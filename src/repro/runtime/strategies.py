"""Kernel-to-primitive mapping strategies (paper §VIII-B).

- :class:`Static1` (S1) — the HyGCN / BoostGCN mapping: Aggregate ->
  SpDMM (adjacency sparse), Update -> GEMM.  Ignores feature and weight
  sparsity entirely.
- :class:`Static2` (S2) — the AWB-GCN mapping: both kernels -> SpDMM with
  the *left* operand treated as the sparse one (A for Aggregate, H for
  Update).  Ignores weight sparsity and the dense-feature case.
- :class:`DynamicMapping` — the paper's Algorithm 7 (region rule + empty-
  partition skipping), charged to the soft processor.
- :class:`OracleMapping` — picks the model-minimising primitive per pair
  *without* the skip short-cut; used by ablations to show the region rule
  matches the model's argmin.
- :class:`FixedMapping` — force a single primitive everywhere (ablation).

Static strategies perform no per-pair analysis (their mapping is burnt
into the accelerator control flow), so they charge no runtime-system
time and never skip empty partitions — both effects the paper attributes
to dynamic mapping (§VIII-C).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.config import AcceleratorConfig
from repro.hw.core import PairDecision
from repro.hw.report import CODE_ORDER, PRIMITIVE_CODES, SPDMM_CODE, Primitive
from repro.ir.kernel import KernelIR, KernelType
from repro.runtime.analyzer import Analyzer, PairInfo
from repro.runtime.perf_model import argmin_primitive_batch


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
        self,
        kernel: KernelIR,
        alpha_x: np.ndarray,
        alpha_y: np.ndarray,
        m: "int | np.ndarray",
        n: np.ndarray,
        d: "int | np.ndarray",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map all ``K`` pairs of one task at once.

        Returns int8 primitive codes (:data:`repro.hw.report.CODE_ORDER`)
        and the per-pair SpDMM ``transposed`` flags.

        ``m``, ``n`` and ``d`` may each be a scalar or an array aligned
        with ``alpha_x`` — the vectorised executor batches *all* pairs of
        a kernel in one call, so the output-partition dims vary across
        the batch.
        """

    def decide(self, kernel: KernelIR, info: PairInfo) -> PairDecision:
        """Map one (Xit, Ytj) pair to a primitive: the batch of one."""
        codes, transposed = self.decide_batch(
            kernel,
            np.array([info.alpha_x]),
            np.array([info.alpha_y]),
            info.m,
            np.array([info.n]),
            info.d,
        )
        return PairDecision(CODE_ORDER[codes[0]], transposed=bool(transposed[0]))


class DynamicMapping(MappingStrategy):
    """The paper's dynamic K2P mapping (Algorithm 7)."""

    name = "Dynamic"
    charges_analysis = True

    def __init__(self, config: AcceleratorConfig) -> None:
        super().__init__(config)
        self._analyzer = Analyzer(config)

    def decide_batch(self, kernel, alpha_x, alpha_y, m, n, d):
        return self._analyzer.decide_batch(alpha_x, alpha_y)


def _constant_batch(primitive: Primitive, k: int) -> tuple[np.ndarray, np.ndarray]:
    codes = np.full(k, PRIMITIVE_CODES[primitive], dtype=np.int8)
    return codes, np.zeros(k, dtype=bool)


class Static1(MappingStrategy):
    """S1: Aggregate -> SpDMM, Update -> GEMM (HyGCN [3], BoostGCN [4])."""

    name = "S1"

    def decide_batch(self, kernel, alpha_x, alpha_y, m, n, d):
        prim = (
            Primitive.SPDMM
            if kernel.ktype is KernelType.AGGREGATE
            else Primitive.GEMM
        )
        return _constant_batch(prim, len(alpha_x))


class Static2(MappingStrategy):
    """S2: everything -> SpDMM with the left operand sparse (AWB-GCN [17])."""

    name = "S2"

    def decide_batch(self, kernel, alpha_x, alpha_y, m, n, d):
        return _constant_batch(Primitive.SPDMM, len(alpha_x))


class OracleMapping(MappingStrategy):
    """Model-argmin mapping without the empty-partition skip."""

    name = "Oracle"
    charges_analysis = True

    def decide_batch(self, kernel, alpha_x, alpha_y, m, n, d):
        ax = np.asarray(alpha_x, dtype=np.float64)
        ay = np.asarray(alpha_y, dtype=np.float64)
        codes = argmin_primitive_batch(m, n, d, ax, ay, self.config)
        transposed = (codes == SPDMM_CODE) & (ay < ax)
        return codes, transposed


class FixedMapping(MappingStrategy):
    """Force one primitive for every pair (ablation baseline)."""

    charges_analysis = False

    def __init__(self, config: AcceleratorConfig, primitive: Primitive) -> None:
        super().__init__(config)
        self.primitive = primitive
        self.name = f"Fixed-{primitive.value}"

    def decide_batch(self, kernel, alpha_x, alpha_y, m, n, d):
        return _constant_batch(self.primitive, len(alpha_x))


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


def make_strategy(name: str, config: AcceleratorConfig) -> MappingStrategy:
    """Instantiate a strategy by its paper label.

    Unknown names raise a :class:`KeyError` that lists every valid
    strategy, so a typo at the CLI or in a request is self-diagnosing.
    """
    if name in STRATEGIES:
        return STRATEGIES[name](config)
    for prim in Primitive:
        if name == f"Fixed-{prim.value}":
            return FixedMapping(config, prim)
    raise KeyError(
        f"unknown strategy {name!r}; valid strategies: "
        f"{', '.join(strategy_names())}"
    )
