"""The serving front-end: what a server owns and what a sweep reports.

:class:`InferenceServer` turns the one-shot simulator into a
traffic-serving system.  The resource-owning plumbing lives in the
:class:`~repro.engine.core.Engine` it composes — the program cache
(compile once per distinct program), the accelerator pool (earliest-idle
dispatch across N simulated devices), the dynamic-graph registry and the
program patcher.  The server holds the serving knobs (batch size and
window, dispatch policy, SLO policy), simulates each distinct execution
once (:meth:`InferenceServer._execute`) and builds the
:class:`ServingReport`.  The serve loop itself — arrivals, batch windows,
dispatch — is :mod:`repro.sched.scheduler`, for every sweep;
``InferenceServer(scheduler=...)`` names its dispatch policy
(:data:`repro.serve.batcher.POLICIES`).

Time model
----------
A sweep is a discrete-event simulation on a *virtual clock* (seconds).
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

from dataclasses import dataclass, field, fields

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.config import AcceleratorConfig
from repro.dyngraph.mutable import MutableGraph
from repro.dyngraph.patcher import PatchPolicy
from repro.engine.cache import CacheStats, ProgramCache
from repro.engine.core import MUTATION_POLICIES, Engine
from repro.engine.pool import AcceleratorPool
from repro.hw.memory import pcie_transfer_seconds
from repro.runtime.executor import run_strategy
from repro.serve.batcher import POLICIES
from repro.serve.request import InferenceRequest, InferenceResponse

__all__ = [
    "MUTATION_POLICIES",
    "SCHEDULERS",
    "InferenceServer",
    "ServingReport",
]

#: the dispatch policies ``InferenceServer(scheduler=...)`` accepts
SCHEDULERS = tuple(POLICIES)


@dataclass(frozen=True)
class _RunMemo:
    """Replayable outcome of one distinct (program, strategy, shards)
    execution, kept on the program (``CompiledProgram._runs``)."""

    latency_s: float
    accel_cycles: float
    #: dense output, frozen: every response served from this memo shares it
    output: np.ndarray
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
    #: the dispatch policy the sweep ran under ("legacy" | "continuous")
    scheduler: str = "legacy"
    #: served requests meeting their class's SLO target per second of
    #: makespan (classes without a target always count as met, so with
    #: no targets goodput equals throughput)
    goodput_rps: float = 0.0
    #: devices in the pool's active set when the sweep ended
    active_devices: int = 0
    #: in-flight dispatch accounting (zero where batches are booked ahead)
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
        if not POLICIES[self.scheduler].book_ahead:
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

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro serve-bench --json``):
        every field but ``responses`` — the per-response records are
        summarised into the percentile and counter fields, not dumped (at
        millions of requests they dwarf the report)."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            name: list(value) if isinstance(value, list) else value
            for name, value in values
            if name != "responses"
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
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if POLICIES[scheduler].one_class:
            # slo_policy is allowed (it sets the goodput targets the
            # report grades against) but machinery that acts on classes
            # and backlog is not — silently ignoring it would misreport
            # the sweep
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
                    f"(scheduler={scheduler!r} schedules every request as "
                    f"one class and books batches ahead: there is no "
                    f"queue bound to enforce and no backlog to scale on)"
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
        #: the serve loop's dispatch policy (repro.serve.batcher.POLICIES)
        self.scheduler = scheduler
        self.slo_policy = slo_policy
        self.admission = admission
        self.autoscaler = autoscaler
        #: what happens to cached programs when their graph mutates (see
        #: repro.engine.core.MUTATION_POLICIES)
        self.mutation_policy = mutation_policy

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

    # -- dynamic graphs -------------------------------------------------
    def register_graph(self, graph: MutableGraph) -> str:
        """Register a mutable graph so requests can reference it by id
        (as their ``dataset``) and mutations can target it."""
        return self.engine.register_graph(graph)

    # -- execution ------------------------------------------------------
    def _simulate(self, program: CompiledProgram, strategy: str, shards: int,
                  ready_s: float | None = None):
        """Simulate one (program, strategy, shards) execution: on the
        pool's own devices when ``ready_s`` says when it would start, on
        scratch devices (no pool state touched) when it is None."""
        on_pool = ready_s is not None
        if shards > 1:
            from repro.shard.executor import run_sharded

            return run_sharded(
                program, shards, strategy_name=strategy,
                pool=self.pool if on_pool else None, book_on_pool=False,
            )
        accelerator = None
        if on_pool:
            accelerator = self.pool.devices[self.pool.peek_device(ready_s)]
        return run_strategy(program, strategy, accelerator=accelerator)

    def _execute(self, program: CompiledProgram, strategy: str,
                 ready_s: float, shards: int = 1) -> _RunMemo:
        """The program's memoised (strategy, shards) execution, simulated
        on first use.  The memo is the program's, so it outlives this
        server and goes when the cache drops or patches the program."""
        memo = program._runs.get((strategy, shards))
        if memo is not None:
            return memo
        result = self._simulate(program, strategy, shards, ready_s)
        if shards > 1:
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
        output = result.output_dense()
        # the same array is shared by every response served from this
        # memo; freeze it so an in-place client mutation raises instead
        # of silently corrupting later responses
        output.setflags(write=False)
        memo = program._runs[strategy, shards] = _RunMemo(
            latency_s=result.latency_s,
            accel_cycles=accel_cycles,
            output=output,
            **extra,
        )
        return memo

    # -- public API -----------------------------------------------------
    def serve(self, requests: list) -> ServingReport:
        """Run the request stream to completion on the virtual clock.

        ``requests`` may mix :class:`InferenceRequest` with
        :class:`~repro.serve.request.MutationRequest` (for graphs
        registered via :meth:`register_graph`); events are processed in
        arrival order, mutations first on timestamp ties.  Every sweep
        runs through the one serve loop
        (:class:`~repro.sched.scheduler.ContinuousScheduler`) under this
        server's dispatch policy.
        """
        from repro.sched.scheduler import ContinuousScheduler

        return ContinuousScheduler(
            self,
            policy=self.slo_policy,
            admission=self.admission,
            autoscaler=self.autoscaler,
        ).run(requests)

    # -- reporting ------------------------------------------------------
    def _report(self, sweep) -> ServingReport:
        """Build the report of a finished sweep from what its scheduler
        counted (``sweep.metrics``) and answered (``sweep.responses``)."""
        responses = sweep.responses
        registry = sweep.metrics
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
        # per-SLO-class latency block: percentiles for every class seen,
        # violations/goodput against the policy's targets (a class with
        # no target always meets its SLO, so targetless goodput ==
        # throughput)
        class_breakdown: dict[str, dict] = {}
        met_total = 0
        for name in sorted({r.slo for r in responses}):
            rs = [r for r in responses if r.slo == name]
            lats = np.array([r.latency_s for r in rs])
            target = None
            if sweep.slo_policy is not None:
                try:
                    target = sweep.slo_policy.get(name).target_p99_s
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

        registry.counter("serve.requests").inc(n)
        hits = int(registry.counter("serve.cache_hits").value)
        misses = int(registry.counter("serve.cache_misses").value)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        load_balance = self.pool.load_balance()
        registry.gauge("serve.cache_hit_rate").set(hit_rate)
        registry.gauge("serve.load_balance").set(load_balance)
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

        metrics = registry.snapshot()
        counters, gauges = metrics["counters"], metrics["gauges"]
        num_batches = int(counters["serve.batches"])

        def in_flight(table: dict, name: str) -> int:
            # the serve.sched.* catalogue exists only where the dispatch
            # policy has work in flight to account for
            return int(table.get(f"serve.sched.{name}", 0))

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
            cache_hit_rate=hit_rate,
            compile_s=counters["serve.compile_s"],
            compile_saved_s=counters["serve.compile_saved_s"],
            device_busy_s=[float(b) for b in self.pool.busy],
            device_utilization=utilization,
            load_balance=load_balance,
            num_mutations=int(counters["serve.mutations"]),
            num_patches=int(counters["serve.patches"]),
            num_patch_fallbacks=int(counters["serve.patch_fallbacks"]),
            patch_s=sweep.patch_s,
            mutation_evictions=sweep.mutation_evictions,
            sharded_batches=int(counters["serve.sharded_batches"]),
            sharded_requests=int(counters["serve.sharded_requests"]),
            max_shard_width=int(gauges["serve.max_shard_width"]),
            halo_bytes=int(counters["serve.halo_bytes"]),
            halo_s=sweep.halo_s,
            scheduler=sweep.dispatch.name,
            goodput_rps=met_total / span if span > 0 else 0.0,
            active_devices=self.pool.num_active,
            shed_requests=in_flight(counters, "shed"),
            deferred_requests=in_flight(counters, "deferred"),
            joined_requests=in_flight(counters, "joined"),
            preemptions=in_flight(counters, "preemptions"),
            max_queue_depth=in_flight(gauges, "max_queue_depth"),
            class_breakdown=class_breakdown,
            autoscaler_events=[
                e.to_dict()
                for e in (sweep.autoscaler.events if sweep.autoscaler else ())
            ],
            metrics=metrics,
            phase_breakdown={
                phase: hist.snapshot() for phase, hist in phase_hists.items()
            },
            responses=responses,
        )

    def estimate_service_s(self, request: InferenceRequest) -> float:
        """Per-batch device occupancy of one request's program (seconds).

        Side-effect free: reads the program cache and the program's run
        memo if they already hold this request's, but never populates or
        recounts them, so calibrating on a server before its first
        ``serve`` sweep does not silently turn that sweep warm.
        """
        request = self.engine.resolve_request(request)
        program = self.cache.peek(request.program_key(self.config))
        if program is None:
            program = self.engine.compile_request(request)
        memo = program._runs.get((request.strategy, request.shards))
        if memo is None:
            memo = self._simulate(program, request.strategy, request.shards)
        return (
            pcie_transfer_seconds(program.input_bytes(), self.config)
            + memo.latency_s
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
