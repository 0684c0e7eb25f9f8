"""The serving orchestrator: admission -> cache -> batch -> dispatch.

:class:`InferenceServer` turns the one-shot simulator into a
traffic-serving system.  The resource-owning plumbing lives in the
:class:`~repro.engine.core.Engine` it composes — the program cache
(compile once per distinct program), the accelerator pool (earliest-idle
dispatch across N simulated devices), the dynamic-graph registry and the
program patcher — while the server contributes what is serving-specific:
the :class:`~repro.serve.batcher.MicroBatcher` (amortize K2P analysis and
PCIe transfer across compatible requests), the virtual clock, and the
:class:`ServingReport` accounting.

Time model
----------
The server runs a discrete-event loop on a *virtual clock* (seconds).
Request arrivals come from the workload; compile time on a cache miss is
the compiler's measured wall-clock preprocessing time; batch service time
is one PCIe input transfer plus the cycle-accurate accelerator latency of
the run.  Because a batch's member requests are bit-identical runs, the
simulator executes each distinct (program, strategy) once and replays the
result — the *virtual* device occupancy is still charged for every batch,
so throughput and utilization numbers reflect real device contention.

The engine's program cache persists across :meth:`InferenceServer.serve`
calls (and is shared with direct ``Engine.compile`` use), so a second
identical sweep compiles nothing — the warm/cold comparison behind the
``serve-bench`` CLI.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.config import AcceleratorConfig
from repro.datasets.catalog import GraphData
from repro.dyngraph.mutable import MutableGraph
from repro.dyngraph.patcher import PatchPolicy, ProgramPatcher
from repro.engine.cache import CacheStats, ProgramCache
from repro.engine.core import MUTATION_POLICIES, Engine
from repro.engine.pool import AcceleratorPool
from repro.hw.memory import pcie_transfer_seconds
from repro.obs.metrics import MetricsRegistry
from repro.runtime.executor import run_strategy
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    MutationRequest,
)

__all__ = [
    "MUTATION_POLICIES",
    "SCHEDULERS",
    "InferenceServer",
    "ServingReport",
]

#: available serve-loop implementations
SCHEDULERS = ("legacy", "continuous")


@dataclass(frozen=True)
class _RunMemo:
    """Replayable outcome of one distinct (program, strategy, shards)
    execution."""

    latency_s: float
    accel_cycles: float
    #: dense output, kept only when the server returns outputs
    output: np.ndarray | None
    #: devices the execution spans (1 = unsharded)
    shards: int = 1
    #: per-shard device-occupancy seconds (empty when unsharded)
    shard_busy_s: tuple = ()
    #: halo-exchange traffic of one sharded execution
    halo_bytes: int = 0
    halo_s: float = 0.0
    #: mean per-shard barrier-wait seconds (0.0 when unsharded)
    barrier_s: float = 0.0
    #: per-layer durations summing exactly to ``latency_s`` (unsharded:
    #: kernel cycles + exposed analysis per kernel; sharded: per-layer
    #: barrier intervals) — the continuous scheduler's join/preemption
    #: boundaries
    segments_s: tuple = ()


@dataclass
class ServingReport:
    """Aggregate metrics of one ``serve`` sweep (virtual-clock seconds)."""

    num_requests: int
    num_batches: int
    pool_size: int
    max_batch_size: int
    max_wait_s: float
    #: first arrival -> last completion on the virtual clock
    makespan_s: float
    throughput_rps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    queue_mean_s: float
    queue_p95_s: float
    avg_batch_size: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    #: compile seconds spent this sweep / avoided via cache hits
    compile_s: float
    compile_saved_s: float
    device_busy_s: list[float]
    device_utilization: list[float]
    load_balance: float
    #: dyngraph churn accounting (zero on mutation-free sweeps)
    num_mutations: int = 0
    num_patches: int = 0
    num_patch_fallbacks: int = 0
    patch_s: float = 0.0
    mutation_evictions: int = 0
    #: sharded-execution accounting (zero on unsharded sweeps): batches
    #: that occupied multiple pool devices, the requests they carried,
    #: the widest shard fan-out, and the halo traffic charged
    sharded_batches: int = 0
    sharded_requests: int = 0
    max_shard_width: int = 0
    halo_bytes: int = 0
    halo_s: float = 0.0
    #: which serve loop produced this report ("legacy" | "continuous")
    scheduler: str = "legacy"
    #: served requests meeting their class's SLO target per second of
    #: makespan (classes without a target always count as met, so with
    #: no targets goodput equals throughput)
    goodput_rps: float = 0.0
    #: devices in the pool's active set when the sweep ended
    active_devices: int = 0
    #: continuous-scheduler accounting (zero on legacy sweeps)
    shed_requests: int = 0
    deferred_requests: int = 0
    joined_requests: int = 0
    preemptions: int = 0
    max_queue_depth: int = 0
    #: per-SLO-class latency percentiles, targets and violations
    class_breakdown: dict = field(repr=False, default_factory=dict)
    #: committed autoscaler transitions (ScaleEvent dicts, in order)
    autoscaler_events: list = field(repr=False, default_factory=list)
    #: MetricsRegistry snapshot of the sweep (counters/gauges/histograms)
    metrics: dict = field(repr=False, default_factory=dict)
    #: per-request phase decomposition (queue_wait / compile / execute /
    #: barrier -> histogram snapshot with count/sum/mean/p50/p95/p99);
    #: latency_s = queue_wait + execute + barrier for every request
    phase_breakdown: dict = field(repr=False, default_factory=dict)
    responses: list[InferenceResponse] = field(repr=False, default_factory=list)

    def format_report(self) -> str:
        util = ", ".join(
            f"dev{d}: {u * 100:5.1f}%" for d, u in enumerate(self.device_utilization)
        )
        lines = [
            f"ServingReport — {self.num_requests} requests in "
            f"{self.num_batches} batches on {self.pool_size} device(s)",
            f"  virtual makespan  : {self.makespan_s * 1e3:.3f} ms",
            f"  throughput        : {self.throughput_rps:,.0f} req/s (virtual)",
            f"  latency p50/p95/p99: "
            f"{self.latency_p50_s * 1e3:.3f} / {self.latency_p95_s * 1e3:.3f} / "
            f"{self.latency_p99_s * 1e3:.3f} ms (mean {self.latency_mean_s * 1e3:.3f})",
            f"  queueing delay    : mean {self.queue_mean_s * 1e3:.3f} ms, "
            f"p95 {self.queue_p95_s * 1e3:.3f} ms",
            f"  batching          : avg {self.avg_batch_size:.2f} req/batch "
            f"(max {self.max_batch_size}, wait {self.max_wait_s * 1e3:.2f} ms)",
            f"  program cache     : {self.cache_hits} hits / "
            f"{self.cache_misses} misses (hit rate {self.cache_hit_rate * 100:.1f}%), "
            f"compile {self.compile_s * 1e3:.1f} ms, "
            f"saved {self.compile_saved_s * 1e3:.1f} ms",
            f"  device utilization: {util} (load balance "
            f"{self.load_balance:.3f})",
        ]
        if self.phase_breakdown:
            for phase in ("queue_wait", "compile", "execute", "barrier"):
                snap = self.phase_breakdown.get(phase)
                if not snap or not snap.get("count"):
                    continue
                lines.append(
                    f"  phase {phase:<12}: p50/p95/p99 "
                    f"{snap['p50'] * 1e3:.3f} / {snap['p95'] * 1e3:.3f} / "
                    f"{snap['p99'] * 1e3:.3f} ms "
                    f"(mean {snap['mean'] * 1e3:.3f}, "
                    f"total {snap['sum'] * 1e3:.3f} ms)"
                )
        if self.sharded_batches:
            lines.append(
                f"  sharded execution : {self.sharded_batches} batches "
                f"({self.sharded_requests} requests, up to "
                f"{self.max_shard_width} devices each), halo "
                f"{self.halo_bytes:,} B / {self.halo_s * 1e3:.3f} ms"
            )
        for name in sorted(self.class_breakdown):
            c = self.class_breakdown[name]
            target = c.get("target_p99_s")
            target_txt = (
                f", target p99 {target * 1e3:.3f} ms "
                f"({c['violations']} violations)"
                if target is not None
                else ""
            )
            lines.append(
                f"  class {name:<12}: {c['count']} served, p50/p95/p99 "
                f"{c['p50_s'] * 1e3:.3f} / {c['p95_s'] * 1e3:.3f} / "
                f"{c['p99_s'] * 1e3:.3f} ms{target_txt}"
            )
        if self.scheduler != "legacy":
            lines.append(
                f"  scheduler         : {self.scheduler} — "
                f"{self.joined_requests} joined in flight, "
                f"{self.shed_requests} shed, "
                f"{self.deferred_requests} deferred, "
                f"{self.preemptions} preemptions "
                f"(max queue depth {self.max_queue_depth})"
            )
            lines.append(
                f"  goodput           : {self.goodput_rps:,.0f} req/s "
                f"meeting SLO (of {self.throughput_rps:,.0f} served)"
            )
        if self.autoscaler_events:
            transitions = " -> ".join(
                str(e["to_devices"]) for e in self.autoscaler_events
            )
            first = self.autoscaler_events[0]
            lines.append(
                f"  autoscaler        : {len(self.autoscaler_events)} "
                f"events, active {first['from_devices']} -> {transitions} "
                f"(final {self.active_devices})"
            )
        if self.num_mutations:
            lines.append(
                f"  graph mutations   : {self.num_mutations} applied, "
                f"{self.num_patches} programs patched "
                f"({self.num_patch_fallbacks} recompile fallbacks, "
                f"{self.patch_s * 1e3:.2f} ms patching), "
                f"{self.mutation_evictions} evicted"
            )
        return "\n".join(lines)

    # the per-response record list is summarised into the percentile and
    # counter fields, not dumped: at millions of requests it dwarfs the report
    def to_dict(self) -> dict:  # staticcheck: ignore[RPR501]
        """JSON-serialisable summary (``repro serve-bench --json``);
        per-response records are summarised, not dumped."""
        return {
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "pool_size": self.pool_size,
            "max_batch_size": self.max_batch_size,
            "max_wait_s": self.max_wait_s,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "queue_mean_s": self.queue_mean_s,
            "queue_p95_s": self.queue_p95_s,
            "avg_batch_size": self.avg_batch_size,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "compile_s": self.compile_s,
            "compile_saved_s": self.compile_saved_s,
            "device_busy_s": list(self.device_busy_s),
            "device_utilization": list(self.device_utilization),
            "load_balance": self.load_balance,
            "num_mutations": self.num_mutations,
            "num_patches": self.num_patches,
            "num_patch_fallbacks": self.num_patch_fallbacks,
            "patch_s": self.patch_s,
            "mutation_evictions": self.mutation_evictions,
            "sharded_batches": self.sharded_batches,
            "sharded_requests": self.sharded_requests,
            "max_shard_width": self.max_shard_width,
            "halo_bytes": self.halo_bytes,
            "halo_s": self.halo_s,
            "scheduler": self.scheduler,
            "goodput_rps": self.goodput_rps,
            "active_devices": self.active_devices,
            "shed_requests": self.shed_requests,
            "deferred_requests": self.deferred_requests,
            "joined_requests": self.joined_requests,
            "preemptions": self.preemptions,
            "max_queue_depth": self.max_queue_depth,
            "class_breakdown": self.class_breakdown,
            "autoscaler_events": list(self.autoscaler_events),
            "metrics": self.metrics,
            "phase_breakdown": self.phase_breakdown,
        }


class InferenceServer:
    """Batched, cached, multi-device serving front-end over an ``Engine``.

    Construct either around an existing engine (``InferenceServer(
    engine=engine)`` — cache, pool and graph registry are shared with
    direct engine use) or standalone (``InferenceServer(config,
    pool_size=4)`` — a private engine is composed).
    """

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        *,
        engine: Engine | None = None,
        pool_size: int | None = None,
        cache_capacity: int | None = None,
        max_batch_size: int = 8,
        max_wait_s: float = 1e-3,
        return_outputs: bool = True,
        mutation_policy: str = "patch",
        patch_policy: PatchPolicy | None = None,
        scheduler: str = "legacy",
        slo_policy=None,
        admission=None,
        autoscaler=None,
    ) -> None:
        if mutation_policy not in MUTATION_POLICIES:
            raise ValueError(
                f"mutation_policy must be one of {MUTATION_POLICIES}, "
                f"got {mutation_policy!r}"
            )
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
            )
        if scheduler == "legacy":
            # slo_policy is allowed (it sets the goodput targets the
            # report grades against) but the continuous-only machinery
            # is not — silently ignoring it would misreport the sweep
            extras = [
                name
                for name, value in (
                    ("admission", admission), ("autoscaler", autoscaler)
                )
                if value is not None
            ]
            if extras:
                raise ValueError(
                    f"{', '.join(extras)} require scheduler='continuous' "
                    f"(the legacy batcher has no admission control or "
                    f"autoscaling)"
                )
        if engine is None:
            engine = Engine(
                config,
                pool_size=1 if pool_size is None else pool_size,
                cache_capacity=64 if cache_capacity is None else cache_capacity,
                patch_policy=patch_policy,
            )
        else:
            # engine-owned resources cannot be re-specified here — a
            # silently ignored pool_size would report metrics for the
            # wrong pool
            conflicts = [
                name
                for name, value in (
                    ("pool_size", pool_size),
                    ("cache_capacity", cache_capacity),
                    ("patch_policy", patch_policy),
                )
                if value is not None
            ]
            if config is not None and config != engine.config:
                conflicts.insert(0, "config")
            if conflicts:
                raise ValueError(
                    f"{', '.join(conflicts)} conflict(s) with engine=: these "
                    f"are owned by the engine, not both (construct the "
                    f"Engine with them instead)"
                )
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.return_outputs = return_outputs
        #: "legacy" (the original fire-whole-batches loop, untouched) or
        #: "continuous" (repro.sched event-driven continuous batching)
        self.scheduler = scheduler
        self.slo_policy = slo_policy
        self.admission = admission
        self.autoscaler = autoscaler
        #: what happens to cached programs when their graph mutates (see
        #: repro.engine.core.MUTATION_POLICIES)
        self.mutation_policy = mutation_policy
        #: distinct (program, strategy) executions already simulated,
        #: LRU-bounded alongside the program cache so long-lived servers
        #: don't accumulate outputs for programs that were evicted
        self._run_memo: OrderedDict[tuple, _RunMemo] = OrderedDict()

    @property
    def _lru_capacity(self) -> int:
        """The memo LRU bound, read live from the engine's cache so the
        memo keeps tracking the engine even if the cache is re-bounded
        after the server is constructed (it used to be frozen at
        construction time)."""
        return self.engine.cache.capacity

    # -- engine-owned resources (shared, never duplicated here) ---------
    @property
    def config(self) -> AcceleratorConfig:
        return self.engine.config

    @property
    def tracer(self):
        """The engine's session tracer (NULL_TRACER when disabled)."""
        return self.engine.tracer

    @property
    def cache(self) -> ProgramCache:
        return self.engine.cache

    @property
    def pool(self) -> AcceleratorPool:
        return self.engine.pool

    @property
    def patcher(self) -> ProgramPatcher:
        return self.engine.patcher

    @property
    def _graphs(self) -> dict[str, MutableGraph]:
        return self.engine._graphs

    @property
    def _graph_keys(self) -> dict[str, dict[tuple, int]]:
        return self.engine._graph_keys

    # -- dynamic graphs -------------------------------------------------
    def register_graph(self, graph: MutableGraph) -> str:
        """Register a mutable graph so requests can reference it by id
        (as their ``dataset``) and mutations can target it."""
        return self.engine.register_graph(graph)

    def _resolve(self, request: InferenceRequest) -> tuple[InferenceRequest, str | None]:
        """Bind a dynamic-graph request to the graph's current snapshot
        (see :meth:`Engine.resolve_request`)."""
        return self.engine.resolve_request(request)

    def _apply_mutation(
        self,
        mutation: MutationRequest,
        now: float,
        program_ready: dict,
        host: dict,
        counters: dict,
    ) -> None:
        """Apply one mutation at virtual time ``now`` and charge its cost.

        The cache reconciliation itself (patch or evict, per the server's
        mutation policy) is the engine's job; this wrapper books the work
        on the sweep's host-CPU clock (``host = {"free": t}``): patches
        and compiles share one host, so they serialise against each other
        on the virtual timeline.
        """
        outcome = self.engine.apply_delta(
            mutation.graph_id, mutation.delta, policy=self.mutation_policy
        )
        counters["mutations"] += 1
        counters["evictions"] += outcome.evictions
        for event in outcome.patches:
            # the patch queues behind whatever the host is doing (an
            # in-flight compile of this very program included) and holds
            # the host while it runs
            start = max(now, host["free"], program_ready.get(event.old_key, now))
            host["free"] = start + event.report.wall_s
            program_ready[event.new_key] = host["free"]
            if event.report.patched:
                counters["patches"] += 1
            else:
                counters["fallbacks"] += 1
            counters["patch_s"] += event.report.wall_s

    # -- admission ------------------------------------------------------
    def _load(self, request: InferenceRequest) -> GraphData:
        return self.engine.load_graph(
            request.dataset, scale=request.scale, seed=request.seed
        )

    def _compile(self, request: InferenceRequest) -> CompiledProgram:
        return self.engine.compile_request(request)

    # -- execution ------------------------------------------------------
    def _execute(self, key: tuple, program: CompiledProgram, strategy: str,
                 ready_s: float, shards: int = 1) -> _RunMemo:
        memo = self._run_memo.get(key)
        if memo is None:
            if shards > 1:
                from repro.shard.executor import run_sharded

                result = run_sharded(
                    program, shards, strategy_name=strategy,
                    pool=self.pool, book_on_pool=False,
                )
                extra = dict(
                    shards=result.num_shards,
                    shard_busy_s=tuple(float(b) for b in result.shard_busy_s),
                    halo_bytes=result.halo_bytes,
                    halo_s=result.halo_s,
                    # mean per-shard idle time at layer barriers — equals
                    # the mean of the trace's barrier-wait span sums
                    barrier_s=max(
                        result.latency_s - float(np.mean(result.shard_busy_s)),
                        0.0,
                    ),
                    # per-layer barrier intervals sum to latency_s exactly
                    segments_s=tuple(
                        float(ks.barrier_s) for ks in result.kernel_stats
                    ),
                )
                accel_cycles = result.latency_s * self.config.freq_hz
            else:
                device = self.pool.peek_device(ready_s)
                result = run_strategy(
                    program, strategy, accelerator=self.pool.devices[device]
                )
                accel_cycles = result.total_cycles
                # per-kernel durations (execution + exposed analysis);
                # normalise float-summation drift into the last segment
                # so the segments reconstruct latency_s exactly
                segs = [
                    self.config.cycles_to_seconds(ks.cycles + ks.exposed_cycles)
                    for ks in result.kernel_stats
                ]
                if segs:
                    segs[-1] += result.latency_s - sum(segs)
                extra = {"segments_s": tuple(segs)}
            output = None
            if self.return_outputs:
                output = result.output_dense()
                # the same array is shared by every response served from
                # this memo; freeze it so an in-place client mutation
                # raises instead of silently corrupting later responses
                output.setflags(write=False)
            memo = _RunMemo(
                latency_s=result.latency_s,
                accel_cycles=accel_cycles,
                output=output,
                **extra,
            )
            self._run_memo[key] = memo
            while len(self._run_memo) > self._lru_capacity:
                self._run_memo.popitem(last=False)
        else:
            self._run_memo.move_to_end(key)
        return memo

    def _dispatch(
        self,
        batch: MicroBatch,
        close_s: float,
        programs: dict[tuple, CompiledProgram],
        responses: list[InferenceResponse],
        compile_charges: dict[int, float],
        hit_flags: dict[int, bool],
        shard_counters: dict | None = None,
    ) -> None:
        program = programs[batch.key]
        first = batch.requests[0]
        strategy, shards = first.strategy, first.shards
        ready_s = max(batch.ready_s, close_s)
        memo = self._execute(batch.key, program, strategy, ready_s, shards)
        # PCIe input transfer and K2P analysis (inside latency_s) are paid
        # once for the whole batch — the amortization micro-batching buys
        input_s = pcie_transfer_seconds(program.input_bytes(), self.config)
        service_s = input_s + memo.latency_s
        if memo.shards > 1:
            # a sharded batch occupies all of its shard devices from the
            # common start to the last per-layer barrier; per-device busy
            # stays honest (each shard's own work + its input-PCIe share)
            busy = [
                b + input_s / memo.shards for b in memo.shard_busy_s
            ]
            devices, start, end = self.pool.submit_group(
                service_s, memo.shards, ready_s, busy_s=busy,
                batch_id=batch.batch_id, batch_size=batch.size,
            )
            device = devices[0]
            if shard_counters is not None:
                shard_counters["batches"] += 1
                shard_counters["requests"] += batch.size
                shard_counters["width"] = max(
                    shard_counters["width"], memo.shards
                )
                shard_counters["halo_bytes"] += memo.halo_bytes
                shard_counters["halo_s"] += memo.halo_s
        else:
            device, start, end = self.pool.submit(
                service_s, ready_s, batch_id=batch.batch_id,
                batch_size=batch.size,
            )
        for req in batch.requests:
            responses.append(
                InferenceResponse(
                    request_id=req.request_id,
                    model=req.model,
                    dataset=req.dataset_name,
                    strategy=req.strategy,
                    arrival_s=req.arrival_s,
                    compile_s=compile_charges.get(req.request_id, 0.0),
                    start_s=start,
                    finish_s=end,
                    service_s=service_s,
                    # strict: a request missing from the accounting maps
                    # is an admission bug — raising beats silently
                    # reporting it as a cache hit (inflated hit rates)
                    cache_hit=hit_flags[req.request_id],
                    batch_id=batch.batch_id,
                    batch_size=batch.size,
                    device=device,
                    shards=memo.shards,
                    barrier_s=memo.barrier_s,
                    accel_cycles=memo.accel_cycles,
                    output=memo.output if self.return_outputs else None,
                    slo=req.slo,
                )
            )

    # -- public API -----------------------------------------------------
    def serve(self, requests: list) -> ServingReport:
        """Run the request stream to completion on the virtual clock.

        ``requests`` may mix :class:`InferenceRequest` with
        :class:`MutationRequest` (for graphs registered via
        :meth:`register_graph`); events are processed in arrival order,
        mutations first on timestamp ties.

        With ``scheduler="continuous"`` the sweep runs through
        :class:`~repro.sched.scheduler.ContinuousScheduler` instead of
        the loop below; ``scheduler="legacy"`` (the default) is the
        original path, bit-exact with pre-1.5 servers.
        """
        if self.scheduler == "continuous":
            from repro.sched.scheduler import ContinuousScheduler

            return ContinuousScheduler(
                self,
                policy=self.slo_policy,
                admission=self.admission,
                autoscaler=self.autoscaler,
            ).run(requests)
        hits0, misses0 = self.cache.hits, self.cache.misses
        compile0, saved0 = self.cache.compile_s, self.cache.saved_s
        self.pool.reset()
        batcher = MicroBatcher(self.max_batch_size, self.max_wait_s)
        mutation_counters = {
            "mutations": 0, "patches": 0, "fallbacks": 0,
            "patch_s": 0.0, "evictions": 0,
        }
        shard_counters = {
            "batches": 0, "requests": 0, "width": 0,
            "halo_bytes": 0, "halo_s": 0.0,
        }

        programs: dict[tuple, CompiledProgram] = {}
        responses: list[InferenceResponse] = []
        compile_charges: dict[int, float] = {}
        hit_flags: dict[int, bool] = {}
        #: virtual time each program's compile finishes this sweep — a
        #: cache hit on a program whose miss is still compiling must wait
        #: for it (compiles from previous sweeps are long done)
        program_ready: dict[tuple, float] = {}
        #: the host CPU is one resource: compiles and mutation patches
        #: serialise against each other on the virtual clock
        host = {"free": 0.0}
        #: (effective ready time, flush order, batch) of every closed
        #: batch; booking happens afterwards in ready order so a batch
        #: stuck waiting on a compile never blocks an idle device from
        #: taking later-flushed but earlier-ready work
        flushed: list[tuple[float, int, MicroBatch]] = []

        tracer = self.tracer

        def dispatch(batch: MicroBatch, close_s: float) -> None:
            if tracer.enabled:
                # the batch-formation window: first member's admission to
                # the flush that closed the batch
                tracer.span(
                    "serve", f"batch{batch.batch_id}/form",
                    batch.opened_s, close_s, cat="batch",
                    size=batch.size, key=str(batch.requests[0].model),
                )
                tracer.counter(
                    "serve", "queue_depth", close_s, batcher.pending,
                )
            flushed.append((max(batch.ready_s, close_s), len(flushed), batch))

        events = sorted(
            requests,
            key=lambda r: (r.arrival_s, isinstance(r, InferenceRequest)),
        )
        for event in events:
            now = event.arrival_s
            # timer expiries strictly before this arrival fire first
            for stale in batcher.due(now):
                dispatch(stale, batcher.deadline(stale))
            if isinstance(event, MutationRequest):
                self._apply_mutation(
                    event, now, program_ready, host, mutation_counters
                )
                continue
            req, graph_id = self._resolve(event)
            if req.shards < 1:
                raise ValueError(
                    f"request {req.request_id} asks for {req.shards} shards"
                )
            if req.shards > self.pool.num_devices:
                raise ValueError(
                    f"request {req.request_id} asks for {req.shards} shards "
                    f"but the pool has {self.pool.num_devices} device(s)"
                )
            prog_key = req.program_key(self.config)
            pkey = req.batch_key(self.config)
            program, compile_s, hit = self.cache.get_or_compile(
                prog_key, lambda: self._compile(req)
            )
            if tracer.enabled:
                tracer.instant(
                    "serve", f"req{req.request_id}/enqueue", now,
                    cat="enqueue", model=str(req.model),
                    cache="hit" if hit else "miss", shards=req.shards,
                )
            if not hit:
                # the compile queues behind the host's in-flight work
                compile_start = max(now, host["free"])
                host["free"] = compile_start + compile_s
                program_ready[prog_key] = host["free"]
                if tracer.enabled:
                    tracer.span(
                        "host/compile",
                        f"compile {req.model}/{req.dataset_name}",
                        compile_start, host["free"], cat="compile",
                    )
            if graph_id is not None:
                self._graph_keys[graph_id][prog_key] = (
                    self._graphs[graph_id].version
                )
            programs[pkey] = program
            compile_charges[req.request_id] = compile_s
            hit_flags[req.request_id] = hit
            full = batcher.add(
                req, pkey, ready_s=max(now, program_ready.get(prog_key, now))
            )
            if full is not None:
                dispatch(full, now)
            elif tracer.enabled:
                tracer.counter("serve", "queue_depth", now, batcher.pending)
        # end of stream: no further arrivals can join, so remaining groups
        # flush immediately instead of idling out their max_wait windows
        # (which would floor the makespan and understate throughput)
        end_s = max((r.arrival_s for r in requests), default=0.0)
        for batch in batcher.drain():
            dispatch(batch, end_s)

        flushed.sort(key=lambda item: item[:2])
        for ready_s, _, batch in flushed:
            self._dispatch(
                batch, ready_s, programs, responses, compile_charges,
                hit_flags, shard_counters,
            )
        num_batches = len(flushed)

        return self._report(
            responses,
            num_batches,
            hits=self.cache.hits - hits0,
            misses=self.cache.misses - misses0,
            compile_s=self.cache.compile_s - compile0,
            saved_s=self.cache.saved_s - saved0,
            mutation_counters=mutation_counters,
            shard_counters=shard_counters,
            policy=self.slo_policy,
        )

    # -- reporting ------------------------------------------------------
    def _report(
        self,
        responses: list[InferenceResponse],
        num_batches: int,
        *,
        hits: int,
        misses: int,
        compile_s: float,
        saved_s: float,
        mutation_counters: dict | None = None,
        shard_counters: dict | None = None,
        policy=None,
        sched_extras: dict | None = None,
    ) -> ServingReport:
        n = len(responses)
        if n:
            latencies = np.array([r.latency_s for r in responses])
            queues = np.array([r.queue_s for r in responses])
            span = max(r.finish_s for r in responses) - min(
                r.arrival_s for r in responses
            )
            p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        else:
            latencies = queues = np.zeros(0)
            span = 0.0
            p50 = p95 = p99 = 0.0
        # utilization over the same serving window the report's makespan
        # and throughput use (the pool's own clock starts at t=0, which
        # would dilute utilization for streams arriving late)
        if span > 0:
            utilization = [float(b) / span for b in self.pool.busy]
        else:
            utilization = [0.0 for _ in range(self.pool.num_devices)]
        lookups = hits + misses
        mc = mutation_counters or {}
        sc = shard_counters or {}
        # per-SLO-class latency block: percentiles for every class seen,
        # violations/goodput against the policy's targets (a class with
        # no target always meets its SLO, so targetless goodput ==
        # throughput — legacy sweeps report it too)
        class_breakdown: dict[str, dict] = {}
        met_total = 0
        for name in sorted({r.slo for r in responses}):
            rs = [r for r in responses if r.slo == name]
            lats = np.array([r.latency_s for r in rs])
            target = None
            if policy is not None:
                try:
                    target = policy.get(name).target_p99_s
                except KeyError:
                    target = None
            violations = (
                int((lats > target).sum()) if target is not None else 0
            )
            met_total += len(rs) - violations
            c50, c95, c99 = np.percentile(lats, [50, 95, 99])
            class_breakdown[name] = {
                "count": len(rs),
                "p50_s": float(c50),
                "p95_s": float(c95),
                "p99_s": float(c99),
                "mean_s": float(lats.mean()),
                "queue_p95_s": float(
                    np.percentile([r.queue_s for r in rs], 95)
                ),
                "target_p99_s": target,
                "violations": violations,
                "joined": sum(1 for r in rs if r.joined),
                "deferred": sum(1 for r in rs if r.deferred),
            }
        se = sched_extras or {}
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(n)
        registry.counter("serve.batches").inc(num_batches)
        registry.counter("serve.cache_hits").inc(hits)
        registry.counter("serve.cache_misses").inc(misses)
        registry.counter("serve.compile_s").inc(compile_s)
        registry.counter("serve.compile_saved_s").inc(saved_s)
        registry.counter("serve.mutations").inc(mc.get("mutations", 0))
        registry.counter("serve.patches").inc(mc.get("patches", 0))
        registry.counter("serve.patch_fallbacks").inc(mc.get("fallbacks", 0))
        registry.counter("serve.sharded_batches").inc(sc.get("batches", 0))
        registry.counter("serve.sharded_requests").inc(sc.get("requests", 0))
        registry.counter("serve.halo_bytes").inc(sc.get("halo_bytes", 0))
        registry.gauge("serve.cache_hit_rate").set(
            hits / lookups if lookups else 0.0
        )
        registry.gauge("serve.load_balance").set(self.pool.load_balance())
        registry.gauge("serve.max_shard_width").set(sc.get("width", 0))
        for d, u in enumerate(utilization):
            registry.gauge(f"serve.dev{d}.busy_fraction").set(u)
        lat_h = registry.histogram("serve.latency_s")
        queue_h = registry.histogram("serve.queue_s")
        # per-request phase decomposition: queueing (arrival -> device
        # start), exposed compile, execution net of barriers, and
        # barrier waits — latency_s = queue_wait + execute + barrier
        # for every request (compile overlaps the queue phase)
        phase_hists = {
            phase: registry.histogram(f"serve.phase.{phase}_s")
            for phase in ("queue_wait", "compile", "execute", "barrier")
        }
        for r in responses:
            lat_h.observe(r.latency_s)
            queue_h.observe(r.queue_s)
            phase_hists["queue_wait"].observe(r.queue_s)
            phase_hists["compile"].observe(r.compile_s)
            phase_hists["execute"].observe(r.execute_s)
            phase_hists["barrier"].observe(r.barrier_s)
        batch_h = registry.histogram("serve.batch_size")
        for size in {r.batch_id: r.batch_size for r in responses}.values():
            batch_h.observe(size)
        phase_breakdown = {
            phase: hist.snapshot() for phase, hist in phase_hists.items()
        }
        if sched_extras is not None:
            # serve.sched.* catalogue — trace-analyze attributes per-class
            # queue-wait from the sched/<class> spans, these give the
            # matching counter/histogram view
            adm = se.get("admission", {})
            admitted = sum(c.get("admit", 0) for c in adm.values())
            registry.counter("serve.sched.admitted").inc(admitted)
            registry.counter("serve.sched.joined").inc(se.get("joined", 0))
            registry.counter("serve.sched.shed").inc(len(se.get("shed", [])))
            registry.counter("serve.sched.deferred").inc(
                se.get("deferred", 0)
            )
            registry.counter("serve.sched.preemptions").inc(
                se.get("preemptions", 0)
            )
            registry.counter("serve.sched.executions").inc(
                se.get("executions", 0)
            )
            scale_events = se.get("scale_events", [])
            registry.counter("serve.sched.scale_ups").inc(
                sum(
                    1
                    for e in scale_events
                    if e["to_devices"] > e["from_devices"]
                )
            )
            registry.counter("serve.sched.scale_downs").inc(
                sum(
                    1
                    for e in scale_events
                    if e["to_devices"] < e["from_devices"]
                )
            )
            registry.gauge("serve.sched.active_devices").set(
                se.get("active_devices", self.pool.num_active)
            )
            registry.gauge("serve.sched.max_queue_depth").set(
                se.get("max_queue_depth", 0)
            )
            for name in class_breakdown:
                h = registry.histogram(f"serve.sched.{name}.latency_s")
                q = registry.histogram(f"serve.sched.{name}.queue_s")
                for r in responses:
                    if r.slo == name:
                        h.observe(r.latency_s)
                        q.observe(r.queue_s)
        return ServingReport(
            num_requests=n,
            num_batches=num_batches,
            pool_size=self.pool.num_devices,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            makespan_s=float(span),
            throughput_rps=n / span if span > 0 else 0.0,
            latency_p50_s=float(p50),
            latency_p95_s=float(p95),
            latency_p99_s=float(p99),
            latency_mean_s=float(latencies.mean()) if n else 0.0,
            queue_mean_s=float(queues.mean()) if n else 0.0,
            queue_p95_s=float(np.percentile(queues, 95)) if n else 0.0,
            avg_batch_size=n / num_batches if num_batches else 0.0,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / lookups if lookups else 0.0,
            compile_s=compile_s,
            compile_saved_s=saved_s,
            device_busy_s=[float(b) for b in self.pool.busy],
            device_utilization=utilization,
            load_balance=self.pool.load_balance(),
            num_mutations=(mutation_counters or {}).get("mutations", 0),
            num_patches=(mutation_counters or {}).get("patches", 0),
            num_patch_fallbacks=(mutation_counters or {}).get("fallbacks", 0),
            patch_s=(mutation_counters or {}).get("patch_s", 0.0),
            mutation_evictions=(mutation_counters or {}).get("evictions", 0),
            sharded_batches=(shard_counters or {}).get("batches", 0),
            sharded_requests=(shard_counters or {}).get("requests", 0),
            max_shard_width=(shard_counters or {}).get("width", 0),
            halo_bytes=(shard_counters or {}).get("halo_bytes", 0),
            halo_s=(shard_counters or {}).get("halo_s", 0.0),
            scheduler=se.get("scheduler", "legacy"),
            goodput_rps=met_total / span if span > 0 else 0.0,
            active_devices=se.get("active_devices", self.pool.num_active),
            shed_requests=len(se.get("shed", [])),
            deferred_requests=se.get("deferred", 0),
            joined_requests=se.get("joined", 0),
            preemptions=se.get("preemptions", 0),
            max_queue_depth=se.get("max_queue_depth", 0),
            class_breakdown=class_breakdown,
            autoscaler_events=list(se.get("scale_events", [])),
            metrics=registry.snapshot(),
            phase_breakdown=phase_breakdown,
            responses=responses,
        )

    def estimate_service_s(self, request: InferenceRequest) -> float:
        """Per-batch device occupancy of one request's program (seconds).

        Side-effect free: reads the program cache / run memo if they
        already hold this program but never populates or recounts them,
        so calibrating on a server before its first ``serve`` sweep does
        not silently turn that sweep warm.
        """
        request, _ = self._resolve(request)
        key = request.batch_key(self.config)
        program = self.cache.peek(request.program_key(self.config))
        if program is None:
            program = self._compile(request)
        memo = self._run_memo.get(key)
        if memo is not None:
            latency_s = memo.latency_s
        elif request.shards > 1:
            from repro.shard.executor import run_sharded

            latency_s = run_sharded(
                program, request.shards, strategy_name=request.strategy,
                book_on_pool=False,
            ).latency_s
        else:
            latency_s = run_strategy(program, request.strategy).latency_s
        return (
            pcie_transfer_seconds(program.input_bytes(), self.config)
            + latency_s
        )

    def saturating_rate(
        self,
        probes: list[InferenceRequest],
        *,
        pool_size: int | None = None,
        factor: float = 8.0,
    ) -> float:
        """Arrival rate (req/s) offering ``factor`` x a pool's capacity.

        Probes each request's batch service time through
        :meth:`estimate_service_s`, normalises to per-request occupancy at
        full batches, and scales to ``pool_size`` devices (default: this
        server's pool).  Shared by the ``serve-bench`` CLI and the
        serving benchmarks so both calibrate load the same way.
        """
        if not probes:
            raise ValueError("need at least one probe request")
        service = [self.estimate_service_s(p) for p in probes]
        per_request_s = (sum(service) / len(service)) / self.max_batch_size
        pool = self.pool.num_devices if pool_size is None else pool_size
        return factor * pool / per_request_s

    def cache_stats(self) -> CacheStats:
        """Lifetime program-cache counters (across all sweeps)."""
        return self.cache.stats()
