"""The Analyzer: dynamic kernel-to-primitive mapping (paper Algorithm 7).

For each partition pair ``(Xit, Ytj)`` the Analyzer fetches the operand
densities (from the compiler's tables for static matrices, from the
Sparsity Profiler for intermediate features) and decides:

1. ``alpha_min = 0``                    -> **skip** the multiplication;
2. ``alpha_min >= 1/2``                 -> **GEMM** (X -> BufferO, Y -> BufferP);
3. ``alpha_max >= 2/psys``              -> **SpDMM**, the *sparser* operand
   goes to BufferU (when that is the right operand the product executes in
   the transposed orientation and the Layout Merger reconciles the partial
   result — §V-B2);
4. otherwise                            -> **SPMM** (X -> BufferU, Y -> BufferO).

The decision is O(1) per pair and O(K) per task, negligible next to the
task's O(N^3)-ish compute (§VI-B) — and the executor charges exactly that
cost to the soft processor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import AcceleratorConfig
from repro.hw.core import PairDecision
from repro.hw.report import CODE_ORDER, SKIP_CODE, SPDMM_CODE
from repro.runtime.perf_model import region_primitive_batch


@dataclass(frozen=True)
class PairInfo:
    """Densities and shapes the Analyzer sees for one partition pair."""

    alpha_x: float
    alpha_y: float
    m: int
    n: int
    d: int


class Analyzer:
    """Algorithm 7, bound to one accelerator configuration."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    def decide(self, info: PairInfo) -> PairDecision:
        """One pair: the batch of one."""
        codes, transposed = self.decide_batch(
            np.array([info.alpha_x]), np.array([info.alpha_y])
        )
        return PairDecision(CODE_ORDER[codes[0]], transposed=bool(transposed[0]))

    def decide_batch(
        self, alpha_x: np.ndarray, alpha_y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 7 over ``K`` pairs at once: ``(codes, transposed)``.

        ``codes`` is an int8 array in :data:`repro.hw.report.CODE_ORDER`;
        ``transposed`` is the SpDMM orientation flag per pair.  The
        §VI-A region rule
        (:func:`~repro.runtime.perf_model.region_primitive_batch`, where
        the two thresholds live) plus the zero case and the orientation:
        the argmin-density operand goes to BufferU, and if that is Y the
        product executes transposed (ties keep X in BufferU).  One numpy
        pass: the runtime's hot inner loop (see the
        ``micro_k2p_decision_batch`` bench).
        """
        ax = np.asarray(alpha_x, dtype=np.float64)
        ay = np.asarray(alpha_y, dtype=np.float64)
        codes = region_primitive_batch(ax, ay, self.config)
        codes[np.minimum(ax, ay) == 0.0] = SKIP_CODE
        transposed = (codes == SPDMM_CODE) & (ay < ax)
        return codes, transposed
