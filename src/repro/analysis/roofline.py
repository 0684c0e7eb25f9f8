"""Per-kernel roofline classification: compute-bound vs memory-bound.

Under double buffering a task's latency is ``max(compute, memory,
transform)`` (§V-B3), so each kernel sits in one of two regimes.  Knowing
which is which explains the strategy results: the Dynamic mapping can
only win on *compute-bound* kernels (it reduces MAC work); memory-bound
kernels cost the same under every mapping, which is why SO-S1 on
dense-aggregate graphs (Flickr, Reddit) hovers near 1 in Table VII.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.runtime.executor import InferenceResult
from repro.runtime.stats import KernelStats


class KernelRegime(enum.Enum):
    COMPUTE_BOUND = "compute-bound"
    MEMORY_BOUND = "memory-bound"
    BALANCED = "balanced"


@dataclass(frozen=True)
class KernelClassification:
    kernel_id: str
    regime: KernelRegime
    compute_cycles: float
    data_cycles: float
    #: compute / max(memory, transform); > 1 means compute dominates
    intensity_ratio: float

    def describe(self) -> str:
        return (
            f"{self.kernel_id}: {self.regime.value} "
            f"(compute {self.compute_cycles:.0f} vs data "
            f"{self.data_cycles:.0f} cycles, ratio {self.intensity_ratio:.2f})"
        )


def classify_kernel(ks: KernelStats, *, balance_band: float = 0.25) -> KernelClassification:
    """Classify one kernel; ratios within ``1 +/- balance_band`` are
    'balanced'."""
    data = max(ks.memory_cycles, ks.transform_cycles)
    if data <= 0 and ks.compute_cycles <= 0:
        ratio = 1.0
    elif data <= 0:
        ratio = float("inf")
    else:
        ratio = ks.compute_cycles / data
    if ratio > 1 + balance_band:
        regime = KernelRegime.COMPUTE_BOUND
    elif ratio < 1 - balance_band:
        regime = KernelRegime.MEMORY_BOUND
    else:
        regime = KernelRegime.BALANCED
    return KernelClassification(
        kernel_id=ks.kernel_id,
        regime=regime,
        compute_cycles=ks.compute_cycles,
        data_cycles=data,
        intensity_ratio=ratio,
    )


def classify_kernels(
    result: InferenceResult, *, balance_band: float = 0.25
) -> list[KernelClassification]:
    """Classify every kernel of a run."""
    return [
        classify_kernel(ks, balance_band=balance_band)
        for ks in result.kernel_stats
    ]
