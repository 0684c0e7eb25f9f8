"""The Dynasparse runtime system (paper §VI).

Runs (conceptually) on the soft processor: the **Analyzer** maps each
kernel's partition-pair multiplications to primitives using the analytical
performance model (Table IV / Algorithm 7), and the **Scheduler**
dynamically dispatches the resulting tasks onto idle Computation Cores
(Algorithm 8).  :func:`~repro.runtime.executor.run_strategy` drives a
simulated :class:`~repro.hw.accelerator.Accelerator` through a compiled
program and returns both the exact inference output and the full cycle
accounting.

The static baselines of §VIII-B (S1 = HyGCN/BoostGCN mapping, S2 =
AWB-GCN mapping) are provided as alternative
:class:`~repro.runtime.strategies.MappingStrategy` implementations so the
Table VII / Fig. 11-12 comparisons run on identical hardware.
"""

from repro.runtime.perf_model import model_cycles_batch, region_primitive_batch
from repro.runtime.strategies import (
    DynamicMapping,
    FixedMapping,
    MappingStrategy,
    OracleMapping,
    Static1,
    Static2,
    STRATEGIES,
    make_strategy,
)
from repro.runtime.scheduler import CoreTimeline
from repro.runtime.executor import (
    InferenceResult,
    end_to_end_seconds,
    execute_kernel_tasks,
    run_strategy,
)
from repro.runtime.reference import execute_kernel_tasks_reference
from repro.runtime.stats import KernelStats, TaskLoopStats

__all__ = [
    "model_cycles_batch",
    "region_primitive_batch",
    "MappingStrategy",
    "DynamicMapping",
    "Static1",
    "Static2",
    "OracleMapping",
    "FixedMapping",
    "STRATEGIES",
    "make_strategy",
    "CoreTimeline",
    "InferenceResult",
    "end_to_end_seconds",
    "run_strategy",
    "execute_kernel_tasks",
    "execute_kernel_tasks_reference",
    "KernelStats",
    "TaskLoopStats",
]
