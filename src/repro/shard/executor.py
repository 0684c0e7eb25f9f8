"""Sharded multi-device execution of one inference.

:class:`ShardedRuntime` runs one compiled program across the devices of
an :class:`~repro.engine.pool.AcceleratorPool`, one shard (contiguous
vertex range, planned by :func:`~repro.shard.planner.plan_shards`) per
device:

- each shard is one *lane* of the runtime's kernel driver
  (:func:`~repro.runtime.executor.run_kernels`): every kernel's task
  grid is split by output block row and each shard's slice runs through
  the same task loop a single-device run (the one-lane case) uses, on
  the shard's own device — outputs are therefore **bit-exact** against
  a single-device ``run_strategy``;
- a **per-layer barrier** separates kernels: the layer's modelled time
  is the slowest shard's (exposed halo + analysis-exposed + execution)
  time, exactly how Algorithm 8's per-kernel barrier works one level
  down;
- for each Aggregate kernel every shard receives the feature rows of
  its **halo** vertices (boundary vertices its adjacency slice
  references outside its own range) over PCIe, charged with the same
  :func:`~repro.hw.memory.pcie_transfer_seconds` model the hetero
  executor and the serving layer use.  The DMA streams one remote ``Y``
  block row at a time while the shard's cores execute (§VI-B's argument
  one level up), so the shard pays
  :func:`~repro.hw.report.exposed_stream` of the transfer under its
  compute.  Update kernels are row-parallel and exchange nothing
  (weights are replicated).

The functional simulation executes each task exactly once in total —
sharding repartitions the existing work, so a sharded run costs no more
host time to simulate than a single-device one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.engine.pool import AcceleratorPool
from repro.hw.memory import pcie_transfer_seconds
from repro.hw.report import exposed_stream
from repro.ir.kernel import KernelType
from repro.obs.tracer import NULL_TRACER
from repro.runtime.executor import InferenceResult, Lane, RunResult, run_kernels
from repro.runtime.stats import mean_over_max
from repro.runtime.strategies import MappingStrategy, make_strategy
from repro.shard.planner import ShardPlan, halo_blocks, halo_vertices, plan_shards

__all__ = ["ShardKernelStats", "ShardedResult", "ShardedRuntime", "run_sharded"]


@dataclass
class ShardKernelStats:
    """Per-shard accounting of one kernel under the layer barrier."""

    kernel_id: str
    ktype: KernelType
    #: per-shard accelerator makespan (cycles)
    shard_cycles: np.ndarray
    #: per-shard exposed K2P analysis (cycles)
    shard_exposed_cycles: np.ndarray
    #: per-shard halo transfer time (seconds; zero for Update kernels)
    shard_halo_s: np.ndarray
    #: per-shard remote ``Y`` block rows the transfer arrives in
    shard_halo_chunks: np.ndarray
    #: the part of ``shard_halo_s`` the shard's compute does not hide
    shard_exposed_halo_s: np.ndarray
    #: per-shard halo bytes received
    shard_halo_bytes: np.ndarray
    #: per-shard task / pair counts
    shard_tasks: np.ndarray
    shard_pairs: np.ndarray
    #: per-shard wall seconds (exposed halo + exposed analysis + execution)
    shard_seconds: np.ndarray
    #: the layer barrier: max over shards of ``shard_seconds``
    barrier_s: float
    #: output partitions written back as COO, summed over shards
    coo_writebacks: int
    #: per-shard ``KernelStats.modelled_cycles``: what the Analyzer weighed
    shard_modelled_cycles: list = field(default_factory=list)


@dataclass(kw_only=True)
class ShardedResult(RunResult):
    """Outcome of one sharded run: exact output + the modelled schedule."""

    plan: ShardPlan
    kernel_stats: list[ShardKernelStats] = field(default_factory=list)
    backend: str = field(default="sharded", init=False)

    reconcile_cats = ("layer",)

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def latency_s(self) -> float:
        """Modelled end-to-end latency: the sum of layer barriers."""
        return float(sum(ks.barrier_s for ks in self.kernel_stats))

    @property
    def total_cycles(self) -> float:
        return self.latency_s * self.config.freq_hz

    @property
    def segments_s(self) -> tuple:
        """The per-layer barrier intervals: they sum to ``latency_s``."""
        return tuple(float(ks.barrier_s) for ks in self.kernel_stats)

    @property
    def barrier_s(self) -> float:
        """Mean per-shard idle time at layer barriers (the mean of a
        trace's barrier-wait span sums)."""
        return max(self.latency_s - float(np.mean(self.shard_busy_s)), 0.0)

    def layer_boundaries_s(self) -> list[float]:
        """Cumulative layer-boundary times on the run-local clock.

        ``boundaries[i]`` is when layer ``i`` starts (``boundaries[0] ==
        0.0``) and the final entry is :attr:`latency_s` — the barrier
        structure the continuous scheduler (:mod:`repro.sched`) uses as
        admission points for joining requests into an in-flight sharded
        execution.
        """
        return list(itertools.accumulate(self.segments_s, initial=0.0))

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def shard_busy_s(self) -> np.ndarray:
        """Per-shard device-occupancy seconds (sum over kernels)."""
        if not self.kernel_stats:
            return np.zeros(self.num_shards)
        return np.sum([ks.shard_seconds for ks in self.kernel_stats], axis=0)

    def _total(self, per_shard: str):
        """One per-shard array summed over shards, then over kernels."""
        return sum(getattr(ks, per_shard).sum() for ks in self.kernel_stats)

    @property
    def halo_bytes(self) -> int:
        """Total boundary-feature bytes moved between devices."""
        return int(self._total("shard_halo_bytes"))

    @property
    def halo_s(self) -> float:
        """Total PCIe transfer time of halo exchange (all shards)."""
        return float(self._total("shard_halo_s"))

    @property
    def halo_exposed_s(self) -> float:
        """The part of ``halo_s`` no shard's compute hid (all shards)."""
        return float(self._total("shard_exposed_halo_s"))

    @property
    def halo_fraction(self) -> float:
        """Exposed-halo share of total device occupancy, in [0, 1]."""
        busy = float(self.shard_busy_s.sum())
        return self.halo_exposed_s / busy if busy > 0 else 0.0

    def zero_halo_latency_s(self) -> float:
        """Latency if every halo exchange were free: per kernel the
        barrier becomes the slowest shard's *compute* time (makespan plus
        exposed analysis).  The oracle of the trace analyzer's zero-halo
        projection, which replays the same accounting from the spans."""
        to_s = self.config.cycles_to_seconds
        return float(sum(
            float(np.max(to_s(ks.shard_cycles + ks.shard_exposed_cycles)))
            for ks in self.kernel_stats
        ))

    def load_balance(self) -> float:
        """Mean shard busy time / max shard busy time; 1.0 = even."""
        return mean_over_max(self.shard_busy_s)

    def speedup_vs(self, single: InferenceResult) -> float:
        """Modelled speedup over a single-device run (>1 = faster)."""
        return single.latency_s / self.latency_s

    def format_report(self) -> str:
        lines = [
            f"{self.model_name} on {self.data_name} — strategy "
            f"{self.strategy_name}, {self.num_shards} shard(s)",
            f"  modelled latency  : {self.latency_ms:.4f} ms "
            f"(halo {self.halo_s * 1e3:.4f} ms over "
            f"{self.halo_bytes:,} bytes, "
            f"{self.halo_fraction * 100:.2f}% of device time)",
            f"  shard balance     : {self.load_balance():.3f} "
            f"(nnz balance {self.plan.nnz_balance():.3f})",
            f"  {'kernel':<20}{'barrier ms':>12}{'slowest':>9}"
            f"{'halo hidden/exposed ms':>24}{'coo wb':>8}  per-shard ms",
        ]
        for ks in self.kernel_stats:
            per = ", ".join(f"{s * 1e3:.3f}" for s in ks.shard_seconds)
            slowest = int(np.argmax(ks.shard_seconds))
            exposed = float(ks.shard_exposed_halo_s[slowest]) * 1e3
            hidden = max(float(ks.shard_halo_s[slowest]) * 1e3 - exposed, 0.0)
            lines.append(
                f"  {ks.kernel_id:<20}{ks.barrier_s * 1e3:>12.4f}{slowest:>9}"
                f"{f'{hidden:.4f} / {exposed:.4f}':>24}{ks.coo_writebacks:>8}"
                f"  [{per}]"
            )
        return "\n".join(lines)

    def _summary(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "halo_bytes": self.halo_bytes,
            "halo_s": self.halo_s,
            "halo_fraction": self.halo_fraction,
            "nnz_balance": self.plan.nnz_balance(),
            "zero_halo_latency_ms": self.zero_halo_latency_s() * 1e3,
            "kernels": [
                {
                    "kernel_id": ks.kernel_id,
                    "ktype": ks.ktype.name,
                    "barrier_ms": ks.barrier_s * 1e3,
                    "slowest_shard": int(np.argmax(ks.shard_seconds)),
                    "halo_bytes": int(ks.shard_halo_bytes.sum()),
                    "halo_exposed_ms": float(ks.shard_exposed_halo_s.max()) * 1e3,
                    "shard_ms": [float(s) * 1e3 for s in ks.shard_seconds],
                    "shard_tasks": [int(t) for t in ks.shard_tasks],
                    "coo_writebacks": ks.coo_writebacks,
                    "shard_modelled_cycles": ks.shard_modelled_cycles,
                }
                for ks in self.kernel_stats
            ],
        }


class ShardedRuntime:
    """Drives one program across the devices of an accelerator pool.

    Shard ``s``'s functional/cycle simulation runs on the hardware state
    of ``pool.devices[s]`` (devices are identical), so the pool must
    hold at least as many devices as the plan has shards.  With
    ``book_on_pool`` (default) the schedule is also recorded on the
    pool's virtual clock: each layer books one barrier-synchronised
    group (:meth:`~repro.engine.pool.AcceleratorPool.submit_group`) on
    the earliest-available devices, with per-shard busy seconds, and the
    next layer is ready only after the slowest shard of the previous one
    — the per-layer barrier.
    """

    def __init__(
        self,
        pool: AcceleratorPool,
        strategy: MappingStrategy,
        plan: ShardPlan,
        *,
        book_on_pool: bool = True,
        tracer=NULL_TRACER,
    ) -> None:
        if plan.num_shards > pool.num_devices:
            raise ValueError(
                f"plan has {plan.num_shards} shards but the pool only has "
                f"{pool.num_devices} device(s); grow the pool or request "
                f"fewer shards"
            )
        if pool.config.psys != strategy.config.psys:
            raise ValueError("strategy and pool configs disagree")
        self.pool = pool
        self.strategy = strategy
        self.plan = plan
        self.book_on_pool = book_on_pool
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: per-operand halo vertex counts, cached across kernels; the
        #: plan already computed the balance adjacency's counts
        self._halo_cache: dict[str, np.ndarray] = (
            {plan.adjacency_name: plan.halo} if plan.halo.size else {}
        )

    # -- halo -----------------------------------------------------------
    def _halo_counts(self, program: CompiledProgram, x_name: str) -> np.ndarray:
        if x_name not in self._halo_cache:
            a = program.store[x_name]
            self._halo_cache[x_name] = np.array(
                [halo_vertices(a, s.v0, s.v1) for s in self.plan.shards],
                dtype=np.int64,
            )
        return self._halo_cache[x_name]

    # -- execution ------------------------------------------------------
    def run(self, program: CompiledProgram) -> ShardedResult:
        plan = self.plan
        config = self.pool.config
        n = plan.num_shards
        lanes = [
            Lane(dev, f"shard{shard.index}", (shard.v0, shard.v1))
            for dev, shard in zip(self.pool.devices, plan.shards)
        ]
        store: dict = {}
        kernel_stats: list[ShardKernelStats] = []
        analysis_total = 0.0
        layer_ready = 0.0
        #: cumulative layer start on the sharded-run clock (trace only);
        #: independent of the pool clock, which may carry prior bookings
        t_layer = 0.0

        for kernel, lane_stats in run_kernels(
            program, self.strategy, lanes, store
        ):
            if kernel.ktype is KernelType.AGGREGATE:
                halo_rows = self._halo_counts(program, kernel.x_name)
                # each halo vertex contributes one feature row of Y
                # (as wide as the Aggregate's output)
                halo_bytes = halo_rows * kernel.output_dim * 4
                # ... and arrives one remote Y block row at a time: read
                # off the adjacency census (its columns are Y's rows)
                scheme = kernel.exec_scheme
                grid = program.view(kernel.x_name, *scheme.x_blocking).nnz_grid
                chunks = np.array([
                    halo_blocks(grid, scheme.y_blocking[0], *lane.rows)
                    for lane in lanes
                ])
            else:
                halo_bytes = chunks = np.zeros(n, dtype=np.int64)
            halo_s = np.array(
                [pcie_transfer_seconds(int(b), config) for b in halo_bytes]
            )
            for ks in lane_stats:
                analysis_total += ks.analysis_seconds
            cycles = np.array([ks.cycles for ks in lane_stats])
            exposed = np.array([ks.exposed_cycles for ks in lane_stats])
            tasks_n = np.array([ks.num_tasks for ks in lane_stats], dtype=np.int64)
            pairs_n = np.array([ks.num_pairs for ks in lane_stats], dtype=np.int64)
            compute_s = config.cycles_to_seconds(cycles + exposed)
            # the DMA streams chunk by chunk under the lane's cores
            exposed_halo_s = exposed_stream(halo_s, chunks, compute_s)
            seconds = exposed_halo_s + compute_s

            barrier_s = float(seconds.max())
            if self.tracer.enabled:
                # shard core-timelines are compute-only clocks that do
                # not carry the halo offsets, so sharded runs trace at
                # shard granularity: exposed halo -> exec -> barrier-wait
                # tile each shard track beside the whole transfer on its
                # dma track, plus one layer span on "timeline" whose
                # durations sum exactly to ShardedResult.latency_s
                for s, lane in enumerate(lanes):
                    exec_start = t_layer + exposed_halo_s[s]
                    if halo_s[s] > 0.0:
                        self.tracer.span(
                            f"{lane.track}/dma", f"{kernel.kernel_id}/halo",
                            t_layer, t_layer + halo_s[s], cat="dma",
                            halo_bytes=int(halo_bytes[s]),
                            chunks=int(chunks[s]),
                        )
                        self.tracer.span(
                            lane.track, f"{kernel.kernel_id}/halo",
                            t_layer, exec_start, cat="halo",
                        )
                    exec_end = t_layer + seconds[s]
                    self.tracer.span(
                        lane.track, kernel.kernel_id,
                        exec_start, exec_end, cat="kernel",
                        ktype=kernel.ktype.name,
                        tasks=int(tasks_n[s]),
                        pairs=int(pairs_n[s]),
                        coo_writebacks=lane_stats[s].coo_writebacks,
                        **lane_stats[s].modelled_cycles,
                    )
                    if barrier_s - seconds[s] > 0.0:
                        self.tracer.span(
                            lane.track, f"{kernel.kernel_id}/barrier-wait",
                            exec_end, t_layer + barrier_s, cat="barrier",
                        )
                    self.tracer.counter(
                        lane.track, "halo_bytes", t_layer,
                        int(halo_bytes[s]),
                    )
                self.tracer.span(
                    "timeline", kernel.kernel_id,
                    t_layer, t_layer + barrier_s, cat="layer",
                    slowest_shard=int(np.argmax(seconds)),
                )
            t_layer += barrier_s
            if self.book_on_pool:
                # one barrier-synchronised group per layer: every member
                # is held to the barrier, busy reflects its shard's work
                _, _, layer_ready = self.pool.submit_group(
                    barrier_s, n, layer_ready,
                    busy_s=[float(s) for s in seconds],
                )
            kernel_stats.append(
                ShardKernelStats(
                    kernel_id=kernel.kernel_id,
                    ktype=kernel.ktype,
                    shard_cycles=cycles,
                    shard_exposed_cycles=exposed,
                    shard_halo_s=halo_s,
                    shard_halo_chunks=chunks,
                    shard_exposed_halo_s=exposed_halo_s,
                    shard_halo_bytes=halo_bytes,
                    shard_tasks=tasks_n,
                    shard_pairs=pairs_n,
                    shard_seconds=seconds,
                    barrier_s=barrier_s,
                    coo_writebacks=sum(ks.coo_writebacks for ks in lane_stats),
                    shard_modelled_cycles=[ks.modelled_cycles for ks in lane_stats],
                )
            )

        return ShardedResult(
            output=store[program.output_name],
            plan=plan,
            strategy_name=self.strategy.name,
            model_name=program.model.name,
            data_name=program.data_name,
            config=config,
            kernel_stats=kernel_stats,
            runtime_overhead_seconds=analysis_total,
        )


def run_sharded(
    program: CompiledProgram,
    num_shards: int,
    *,
    strategy_name: str = "Dynamic",
    pool: AcceleratorPool | None = None,
    plan: ShardPlan | None = None,
    book_on_pool: bool = True,
    tracer=NULL_TRACER,
) -> ShardedResult:
    """Convenience: plan + execute one program across ``num_shards``
    devices (a dedicated pool is created unless one is passed)."""
    if plan is None:
        plan = plan_shards(program, num_shards)
    if pool is None:
        pool = AcceleratorPool(program.config, plan.num_shards)
    strategy = make_strategy(strategy_name, pool.config)
    return ShardedRuntime(
        pool, strategy, plan, book_on_pool=book_on_pool, tracer=tracer
    ).run(program)
