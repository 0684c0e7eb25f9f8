"""Kernel-to-primitive mapping strategies (paper §VIII-B).

- :class:`Static1` (S1) — the HyGCN / BoostGCN mapping: Aggregate ->
  SpDMM (adjacency sparse), Update -> GEMM.  Ignores feature and weight
  sparsity entirely.
- :class:`Static2` (S2) — the AWB-GCN mapping: both kernels -> SpDMM with
  the *left* operand treated as the sparse one (A for Aggregate, H for
  Update).  Ignores weight sparsity and the dense-feature case.
- :class:`DynamicMapping` — the paper's Algorithm 7 (the Analyzer):
  empty-partition skipping plus the argmin of the modelled stage cycles,
  charged to the soft processor.
- :class:`OracleMapping` — the same argmin *without* the skip short-cut;
  used by ablations to price the skip.
- :class:`FixedMapping` — force a single primitive everywhere (ablation).

Static strategies perform no per-pair analysis (their mapping is burnt
into the accelerator control flow), so they charge no runtime-system
time and never skip empty partitions — both effects the paper attributes
to dynamic mapping (§VIII-C).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.config import AcceleratorConfig
from repro.hw.report import CANDIDATES, PRIMITIVE_CODES, SKIP_CODE, Primitive
from repro.ir.kernel import KernelIR, KernelType
from repro.runtime.perf_model import PairBatch, candidate_cycles

_CANDIDATE_CODES = np.array([code for _, code, _ in CANDIDATES], dtype=np.int8)
_CANDIDATE_TRANSPOSED = np.array([flip for _, _, flip in CANDIDATES])


class MappingStrategy(ABC):
    """Decides the primitive for each partition pair of each kernel."""

    #: display name (matches the paper's labels)
    name: str = "base"
    #: True when the strategy runs Algorithm 7 on the soft processor
    charges_analysis: bool = False

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    @abstractmethod
    def decide_batch(
        self, kernel: KernelIR, batch: PairBatch
    ) -> tuple[np.ndarray, np.ndarray, Optional[dict]]:
        """Map all ``K`` pairs of ``batch`` (every pair of a kernel) at
        once: int8 primitive codes (:data:`repro.hw.report.CODE_ORDER`),
        the per-pair SpDMM ``transposed`` flags and, from a strategy that
        weighs the candidates, what it weighed, one record per lane of the
        batch (:attr:`~repro.runtime.stats.KernelStats.modelled_cycles`)."""


class DynamicMapping(MappingStrategy):
    """The paper's dynamic K2P mapping (Algorithm 7, the Analyzer) on this
    hardware model's cost: a pair with an empty operand is skipped, every
    other takes the candidate with the fewest modelled stage cycles
    (:func:`~repro.runtime.perf_model.candidate_cycles`), ties in Algorithm
    7's order: GEMM, SpDMM with X in BufferU, SpDMM transposed (the layout
    merger reconciles the column-major partial, §V-B2), SPMM.  O(1) per
    pair, charged to the soft processor."""

    name = "Dynamic"
    charges_analysis = True
    #: Algorithm 7 line 6-7: an empty operand means no load, no compute
    skips_empty = True

    def decide_batch(self, kernel, batch):
        live = ((batch.x_nnz != 0) & (batch.y_nnz != 0)) | (not self.skips_empty)
        cost = candidate_cycles(batch, self.config, live)
        pick = cost.argmin(axis=0)  # the first candidate at the minimum
        codes = np.where(live, _CANDIDATE_CODES[pick], np.int8(SKIP_CODE))
        _, pairs_at = batch.lane_bounds()
        modelled = []  # per lane, summed over its live pairs
        for a, b in zip(pairs_at, pairs_at[1:]):
            weighed = cost[:, a:b][:, live[a:b]]
            modelled.append({label: None if total == np.inf else total for (label, _, _), total
                             in zip(CANDIDATES, weighed.sum(axis=1).tolist())})
            modelled[-1]["chosen"] = float(weighed.min(axis=0).sum())
        return codes, _CANDIDATE_TRANSPOSED[pick] & live, modelled


def _constant_batch(primitive: Primitive, k: int):
    codes = np.full(k, PRIMITIVE_CODES[primitive], dtype=np.int8)
    return codes, np.zeros(k, dtype=bool), None


class Static1(MappingStrategy):
    """S1: Aggregate -> SpDMM, Update -> GEMM (HyGCN [3], BoostGCN [4])."""

    name = "S1"

    def decide_batch(self, kernel, batch):
        prim = (
            Primitive.SPDMM
            if kernel.ktype is KernelType.AGGREGATE
            else Primitive.GEMM
        )
        return _constant_batch(prim, len(batch))


class Static2(MappingStrategy):
    """S2: everything -> SpDMM with the left operand sparse (AWB-GCN [17])."""

    name = "S2"

    def decide_batch(self, kernel, batch):
        return _constant_batch(Primitive.SPDMM, len(batch))


class OracleMapping(DynamicMapping):
    """The same argmin without the empty-partition skip."""

    name = "Oracle"
    skips_empty = False


class FixedMapping(MappingStrategy):
    """Force one primitive for every pair (ablation baseline)."""

    def __init__(self, config: AcceleratorConfig, primitive: Primitive) -> None:
        super().__init__(config)
        self.primitive = primitive
        self.name = f"Fixed-{primitive.value}"

    def decide_batch(self, kernel, batch):
        return _constant_batch(self.primitive, len(batch))


STRATEGIES = {
    "Dynamic": DynamicMapping,
    "S1": Static1,
    "S2": Static2,
    "Oracle": OracleMapping,
}


def strategy_names() -> tuple[str, ...]:
    """Every name :func:`make_strategy` accepts, sorted."""
    return tuple(
        sorted(STRATEGIES) + sorted(f"Fixed-{p.value}" for p in Primitive)
    )


def make_strategy(
    name: str | MappingStrategy, config: AcceleratorConfig
) -> MappingStrategy:
    """Instantiate a strategy by its paper label (an instance is
    returned unchanged).

    Unknown names raise a :class:`KeyError` that lists every valid
    strategy, so a typo at the CLI or in a request is self-diagnosing.
    """
    if isinstance(name, MappingStrategy):
        return name
    if name in STRATEGIES:
        return STRATEGIES[name](config)
    for prim in Primitive:
        if name == f"Fixed-{prim.value}":
            return FixedMapping(config, prim)
    raise KeyError(
        f"unknown strategy {name!r}; valid strategies: "
        f"{', '.join(strategy_names())}"
    )
