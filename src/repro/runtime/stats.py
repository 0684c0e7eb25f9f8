"""Run statistics: per-kernel and whole-run accounting.

Everything the evaluation section reports is derived from these records:
accelerator latency (Table VII/X), primitive histograms, runtime-system
overhead and its hidden fraction (Fig. 13), memory traffic, MAC counts,
load balance (the §VI-C eta ablation) and the per-kernel timeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.hw.report import CycleReport, Primitive
from repro.ir.kernel import KernelType


def mean_over_max(busy: np.ndarray) -> float:
    """Load balance of a busy-time vector: mean / max in [0, 1]; 1.0 =
    perfectly even (also for an empty or all-idle vector)."""
    mx = float(busy.max()) if busy.size else 0.0
    if mx == 0.0:
        return 1.0
    # float summation in mean() can overshoot max by an ulp when every
    # entry carries identical load; clamp to keep the [0, 1] contract
    return min(float(busy.mean()) / mx, 1.0)


@dataclass
class TaskLoopStats:
    """Accounting of one lane of an ``execute_kernel_tasks`` call.

    Lives here (not in :mod:`repro.runtime.executor`) so the task loop
    and its reference oracle can share it without an import cycle.
    """

    report: CycleReport = field(default_factory=CycleReport)
    counts: Counter = field(default_factory=Counter)
    num_tasks: int = 0
    num_pairs: int = 0
    #: tasks actually dispatched to a core (all-zero partitions skip)
    tasks_executed: int = 0
    #: scheduling waves the tasks filled: the maximum number of tasks any
    #: one core ran, i.e. how many core-rounds the kernel needed
    waves: int = 0
    #: output partitions written back as COO
    coo_writebacks: int = 0
    #: what the mapping strategy weighed (``decide_batch``'s third value)
    modelled: dict | None = None


@dataclass
class KernelStats:
    """Execution record of one kernel."""

    kernel_id: str
    ktype: KernelType
    num_tasks: int
    num_pairs: int
    #: kernel makespan in accelerator cycles (barrier to barrier)
    cycles: float
    primitive_counts: Counter
    macs: int
    bytes_read: int
    bytes_written: int
    compute_cycles: float
    memory_cycles: float
    transform_cycles: float
    profile_cycles: float
    #: density of the produced feature matrix (runtime-profiled)
    out_density: float
    #: soft-processor seconds spent on this kernel's K2P analysis
    analysis_seconds: float
    #: per-core busy cycles inside this kernel
    core_busy: np.ndarray
    #: scheduling waves the kernel needed (max tasks on any one core)
    num_waves: int = 0
    #: tasks actually dispatched (all-zero output partitions are skipped)
    tasks_executed: int = 0
    #: K2P analysis the kernel's execution could not hide (§VI-B; cycles)
    exposed_cycles: float = 0.0
    #: output partitions written back as COO (the rest went dense)
    coo_writebacks: int = 0
    #: what the Analyzer weighed, summed over the kernel's live pairs:
    #: modelled stage cycles of the chosen mapping ("chosen") and of each
    #: candidate (``None``: it fits no buffer somewhere); ``{}`` if nothing
    modelled_cycles: dict = field(default_factory=dict)

    @property
    def skipped_pairs(self) -> int:
        return self.primitive_counts.get(Primitive.SKIP, 0)

    def load_balance(self) -> float:
        return mean_over_max(self.core_busy)


@dataclass
class LayerStats:
    """One kernel of a run across its lanes, closed by the layer barrier:
    the slowest lane's exposed halo + kernel makespan + exposed analysis.
    Every array has one entry per lane."""

    #: each lane's record of the kernel
    lanes: tuple[KernelStats, ...]
    #: halo bytes each lane received (Aggregate kernels of a plan only)
    halo_bytes: np.ndarray
    #: remote ``Y`` block rows each lane's transfer arrived in
    halo_chunks: np.ndarray
    #: each lane's halo transfer time (seconds)
    halo_s: np.ndarray
    #: the part of ``halo_s`` the lane's compute does not hide
    exposed_halo_s: np.ndarray
    #: each lane's seconds under the barrier: exposed halo + execution
    seconds: np.ndarray
    #: the layer barrier: max over lanes of ``seconds``
    barrier_s: float

    @property
    def kernel_id(self) -> str:
        return self.lanes[0].kernel_id

    @property
    def ktype(self) -> KernelType:
        return self.lanes[0].ktype

    @property
    def slowest(self) -> int:
        """The lane that set the barrier."""
        return int(np.argmax(self.seconds))

    def lane(self, name: str) -> np.ndarray:
        """One :class:`KernelStats` field across the lanes."""
        return np.array([getattr(ks, name) for ks in self.lanes])


def total_primitive_counts(kernel_stats: list[KernelStats]) -> Counter:
    total: Counter = Counter()
    for ks in kernel_stats:
        total.update(ks.primitive_counts)
    return total


def geomean(values) -> float:
    """Geometric mean (the paper's average for speedups)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
