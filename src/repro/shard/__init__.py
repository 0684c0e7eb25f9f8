"""Sharded multi-device execution of large-graph inference.

Splits one compiled program across the devices of an
:class:`~repro.engine.pool.AcceleratorPool` by contiguous vertex ranges
balanced on modelled cycles (:mod:`repro.shard.planner`) and executes
each layer's shards concurrently with a per-layer barrier and a PCIe
halo exchange streamed under compute (:mod:`repro.shard.executor`).  Outputs are
bit-exact against a single-device run; the schedule is the model.

Entry points: ``Engine.compile(..., shards=N)`` +
``Engine.infer(handle, backend="sharded")``, serving requests with
``shards=N``, the ``repro shard-bench`` CLI, or :func:`run_sharded`
directly.
"""

from repro.shard.executor import (
    ShardedResult,
    ShardedRuntime,
    ShardKernelStats,
    run_sharded,
)
from repro.shard.planner import Shard, ShardPlan, halo_vertices, plan_shards

__all__ = [
    "Shard",
    "ShardKernelStats",
    "ShardPlan",
    "ShardedResult",
    "ShardedRuntime",
    "halo_vertices",
    "plan_shards",
    "run_sharded",
]
