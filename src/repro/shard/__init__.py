"""Sharded multi-device execution of large-graph inference.

Splits one compiled program across the devices of an
:class:`~repro.engine.pool.AcceleratorPool` by contiguous vertex ranges
balanced on modelled cycles (:mod:`repro.shard.planner`).  The plan is
what this package adds: :func:`~repro.runtime.executor.run_strategy`
runs it, one lane per shard, with a per-layer barrier and a PCIe halo
exchange streamed under compute (:meth:`ShardPlan.halo_exchange`).  An
unsharded run is the plan of width 1; outputs are bit-exact at every
width, and the schedule is the model.

Entry points: ``Engine.compile(..., shards=N)`` +
``Engine.infer(handle, backend="sharded")``, serving requests with
``shards=N``, the ``repro shard-bench`` CLI, or ``run_strategy(program,
strategy, pool.devices, plan=plan_shards(program, N))``.
"""

from repro.shard.planner import Shard, ShardPlan, halo_vertices, plan_shards

__all__ = [
    "Shard",
    "ShardPlan",
    "halo_vertices",
    "plan_shards",
]
