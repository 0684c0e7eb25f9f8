"""The serving front-end: what a server owns and what a sweep reports.

:class:`InferenceServer` turns the one-shot simulator into a
traffic-serving system.  Everything that holds state is the
:class:`~repro.engine.core.Engine` it composes: the program cache, the
accelerator pool, the dynamic-graph registry, the program patcher, and
the one door to a simulated execution
(:meth:`~repro.engine.core.Engine.execute`: the result is recorded on the
cached program and replayed by every later batch, whoever simulated it).
The server holds the serving knobs (batch size and window, SLO policy,
admission, autoscaler), checks a request against them, and builds the
:class:`ServingReport` of a finished sweep in one pass over its
responses.  The serve loop itself is :mod:`repro.sched.scheduler`,
continuous batching, for every sweep.

Time model: a sweep is a discrete-event simulation on a *virtual clock*
(seconds).  Arrivals come from the workload; compile time on a cache
miss is the compiler's measured wall-clock preprocessing time; batch
service time is the cycle-accurate latency of the run, plus a PCIe input
transfer where a device of the batch does not yet hold the program's
inputs (each device keeps what it was sent for the rest of the sweep,
with no eviction).  A batch's members, and the requests that join it in
flight, are bit-identical runs, so each distinct (program, strategy,
shards) is simulated once and replayed, while the *virtual* device
occupancy is charged for every execution.  The engine's
program cache outlives a ``serve`` call (and is shared with direct
``Engine.compile`` / ``Engine.infer`` use), so a second identical sweep
compiles and simulates nothing (the ``serving_throughput`` bench spec
serves one stream cold, then warm, on each pool size).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from repro.config import AcceleratorConfig
from repro.dyngraph.mutable import MutableGraph
from repro.engine.cache import ProgramCache
from repro.engine.core import MUTATION_POLICIES, Engine
from repro.engine.pool import AcceleratorPool
from repro.hw.memory import pcie_transfer_seconds
from repro.serve.request import InferenceRequest, InferenceResponse

__all__ = ["MUTATION_POLICIES", "InferenceServer", "ServingReport"]


def _held(table: str, metric: str, stat: str | None = None, **kwargs):
    """A report field the sweep's metrics snapshot already holds, at
    ``metrics[table][metric]`` (``[stat]`` of a histogram): filled from
    there, never computed beside it; absent reads as zero."""
    return field(metadata={"held": (table, metric, stat)}, **kwargs)


@dataclass
class ServingReport:
    """Aggregate metrics of one ``serve`` sweep (virtual-clock seconds)."""

    num_requests: int
    num_batches: int = _held("counters", "serve.batches")
    pool_size: int
    max_batch_size: int
    max_wait_s: float
    #: first arrival -> last completion on the virtual clock
    makespan_s: float
    throughput_rps: float
    latency_p50_s: float = _held("histograms", "serve.latency_s", "p50")
    latency_p95_s: float = _held("histograms", "serve.latency_s", "p95")
    latency_p99_s: float = _held("histograms", "serve.latency_s", "p99")
    latency_mean_s: float = _held("histograms", "serve.latency_s", "mean")
    queue_mean_s: float = _held("histograms", "serve.queue_s", "mean")
    queue_p95_s: float = _held("histograms", "serve.queue_s", "p95")
    avg_batch_size: float
    cache_hits: int = _held("counters", "serve.cache_hits")
    cache_misses: int = _held("counters", "serve.cache_misses")
    cache_hit_rate: float = _held("gauges", "serve.cache_hit_rate")
    #: compile seconds spent this sweep / avoided via cache hits
    compile_s: float = _held("counters", "serve.compile_s")
    compile_saved_s: float = _held("counters", "serve.compile_saved_s")
    device_busy_s: list[float]
    device_utilization: list[float]
    load_balance: float = _held("gauges", "serve.load_balance")
    #: dyngraph churn accounting (zero on mutation-free sweeps)
    num_mutations: int = _held("counters", "serve.mutations", default=0)
    num_patches: int = _held("counters", "serve.patches", default=0)
    num_patch_fallbacks: int = _held("counters", "serve.patch_fallbacks", default=0)
    patch_s: float = 0.0
    mutation_evictions: int = 0
    #: sharded-execution accounting (zero on unsharded sweeps): batches on
    #: several devices, their requests, the widest fan-out, the halo traffic
    sharded_batches: int = _held("counters", "serve.sharded_batches", default=0)
    sharded_requests: int = _held("counters", "serve.sharded_requests", default=0)
    max_shard_width: int = _held("gauges", "serve.max_shard_width", default=0)
    halo_bytes: int = _held("counters", "serve.halo_bytes", default=0)
    halo_s: float = 0.0
    #: PCIe input slices sent to devices, their seconds, and the seconds
    #: skipped because a batch's devices already held its inputs
    pcie_transfers: int = _held("counters", "serve.pcie_transfers", default=0)
    pcie_s: float = _held("counters", "serve.pcie_s", default=0.0)
    pcie_saved_s: float = _held("counters", "serve.pcie_saved_s", default=0.0)
    #: served requests meeting their class's SLO target per second of
    #: makespan (no target = always met: targetless goodput == throughput)
    goodput_rps: float = 0.0
    #: devices in the pool's active set when the sweep ended
    active_devices: int = 0
    #: in-flight dispatch accounting (joined: arrivals that joined an
    #: execution in flight, plus the requests of groups that boarded one)
    shed_requests: int = _held("counters", "serve.sched.shed", default=0)
    deferred_requests: int = _held("counters", "serve.sched.deferred", default=0)
    joined_requests: int = _held("counters", "serve.sched.joined", default=0)
    preemptions: int = _held("counters", "serve.sched.preemptions", default=0)
    max_queue_depth: int = _held("gauges", "serve.sched.max_queue_depth", default=0)
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
    #: one response per served request, in the order they were answered: a
    #: read-only sequence that builds each response when it is accessed
    #: (:class:`~repro.serve.request.ResponseColumns` for a served sweep)
    responses: Sequence[InferenceResponse] = field(repr=False, default=())

    def format_report(self) -> str:
        def ms(*seconds: float) -> str:
            return " / ".join(f"{s * 1e3:.3f}" for s in seconds)

        util = ", ".join(
            f"dev{d}: {u * 100:5.1f}%" for d, u in enumerate(self.device_utilization)
        )
        lines = [
            f"ServingReport — {self.num_requests} requests in "
            f"{self.num_batches} batches on {self.pool_size} device(s)",
            f"  virtual makespan  : {ms(self.makespan_s)} ms",
            f"  throughput        : {self.throughput_rps:,.0f} req/s (virtual)",
            f"  latency p50/p95/p99: "
            f"{ms(self.latency_p50_s, self.latency_p95_s, self.latency_p99_s)} ms "
            f"(mean {ms(self.latency_mean_s)})",
            f"  queueing delay    : mean {ms(self.queue_mean_s)} ms, "
            f"p95 {ms(self.queue_p95_s)} ms",
            f"  batching          : avg {self.avg_batch_size:.2f} req/batch "
            f"(max {self.max_batch_size}, wait {self.max_wait_s * 1e3:.2f} ms)",
            f"  program cache     : {self.cache_hits} hits / "
            f"{self.cache_misses} misses (hit rate {self.cache_hit_rate * 100:.1f}%), "
            f"compile {self.compile_s * 1e3:.1f} ms, "
            f"saved {self.compile_saved_s * 1e3:.1f} ms",
            f"  device utilization: {util} (load balance {self.load_balance:.3f})",
            f"  PCIe input        : {self.pcie_transfers} transfers, "
            f"{ms(self.pcie_s)} ms paid, {ms(self.pcie_saved_s)} ms saved "
            f"(inputs already in device DDR)",
        ]
        for phase, snap in self.phase_breakdown.items():
            if snap["count"]:
                lines.append(
                    f"  phase {phase:<12}: p50/p95/p99 "
                    f"{ms(snap['p50'], snap['p95'], snap['p99'])} ms "
                    f"(mean {ms(snap['mean'])}, total {ms(snap['sum'])} ms)"
                )
        if self.sharded_batches:
            lines.append(
                f"  sharded execution : {self.sharded_batches} batches "
                f"({self.sharded_requests} requests, up to "
                f"{self.max_shard_width} devices each), halo "
                f"{self.halo_bytes:,} B / {ms(self.halo_s)} ms"
            )
        for name, c in sorted(self.class_breakdown.items()):
            target = c["target_p99_s"]
            lines.append(
                f"  class {name:<12}: {c['count']} served, p50/p95/p99 "
                f"{ms(c['p50_s'], c['p95_s'], c['p99_s'])} ms"
                + (f", target p99 {ms(target)} ms ({c['violations']} violations)"
                   if target is not None else "")
            )
        lines += [
            f"  scheduler         : continuous — "
            f"{self.joined_requests} joined in flight, "
            f"{self.shed_requests} shed, {self.deferred_requests} deferred, "
            f"{self.preemptions} preemptions "
            f"(max queue depth {self.max_queue_depth})",
            f"  goodput           : {self.goodput_rps:,.0f} req/s "
            f"meeting SLO (of {self.throughput_rps:,.0f} served)",
        ]
        if self.autoscaler_events:
            sizes = [self.autoscaler_events[0]["from_devices"]] + [
                e["to_devices"] for e in self.autoscaler_events
            ]
            lines.append(
                f"  autoscaler        : {len(self.autoscaler_events)} events, "
                f"active {' -> '.join(map(str, sizes))} "
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
        """JSON-serialisable summary: every field but ``responses`` —
        the per-response records are summarised into the percentile and
        counter fields, not dumped (at millions of requests they dwarf
        the report)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        del values["responses"]
        return {k: list(v) if isinstance(v, list) else v for k, v in values.items()}


class InferenceServer:
    """Batched, cached, multi-device serving front-end over an ``Engine``.

    Construct either around an existing engine (``InferenceServer(
    engine=engine)``: cache, pool and graph registry are shared with direct
    engine use) or standalone (``InferenceServer(config, pool_size=4)``).
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
        slo_policy=None,
        admission=None,
        autoscaler=None,
    ) -> None:
        if mutation_policy not in MUTATION_POLICIES:
            raise ValueError(
                f"mutation_policy must be one of {MUTATION_POLICIES}, "
                f"got {mutation_policy!r}"
            )
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if engine is None:
            engine = Engine(
                config,
                pool_size=1 if pool_size is None else pool_size,
                cache_capacity=64 if cache_capacity is None else cache_capacity,
            )
        else:
            # engine-owned resources cannot be re-specified here: a silently
            # ignored pool_size would report metrics for the wrong pool
            given = {"pool_size": pool_size, "cache_capacity": cache_capacity}
            conflicts = [name for name, value in given.items() if value is not None]
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
        self.slo_policy = slo_policy
        self.admission = admission
        self.autoscaler = autoscaler
        cap = autoscaler.max_devices if autoscaler is not None else None
        self._max_shards = min(engine.pool.num_devices, cap or engine.pool.num_devices)
        #: what a mutation does to cached programs (MUTATION_POLICIES)
        self.mutation_policy = mutation_policy

    # -- engine-owned resources (shared, never duplicated here) ---------
    @property
    def config(self) -> AcceleratorConfig:
        return self.engine.config

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

    # -- public API -----------------------------------------------------
    def serve(self, requests: list) -> ServingReport:
        """Run the request stream to completion on the virtual clock.

        ``requests`` may mix :class:`InferenceRequest` with
        :class:`~repro.serve.request.MutationRequest` (for graphs
        registered via :meth:`register_graph`); events are processed in
        arrival order, mutations first on timestamp ties, by the one serve
        loop (:class:`~repro.sched.scheduler.ContinuousScheduler`).
        """
        from repro.sched.scheduler import ContinuousScheduler

        return ContinuousScheduler(self).run(requests)

    # -- reporting ------------------------------------------------------
    def _report(self, sweep) -> ServingReport:
        """Build the report of a finished sweep from what its scheduler
        counted (``sweep.metrics``) and answered (``sweep.answers``): the
        answers' columns, one array into each histogram, and every field
        the registry then holds read off its one snapshot (:func:`_held`)."""
        answers, registry, pool = sweep.answers, sweep.metrics, self.pool
        n = len(answers)
        columns = answers.arrays()
        arrival, start, finish, barrier, joined, deferred, slo = (columns[name] for name in (
            "arrival_s", "start_s", "finish_s", "barrier_s", "joined", "deferred", "slo"))
        latency, queue = finish - arrival, start - arrival
        # utilization over the same serving window the report's makespan
        # and throughput use (the pool's own clock starts at t=0, which
        # would dilute utilization for streams arriving late)
        span = float(finish.max() - arrival.min()) if n else 0.0
        utilization = [float(b) / span if span > 0 else 0.0 for b in pool.busy]

        registry.counter("serve.requests").inc(n)
        hits = registry.counter("serve.cache_hits").value
        lookups = hits + registry.counter("serve.cache_misses").value
        registry.gauge("serve.cache_hit_rate").set(hits / lookups if lookups else 0.0)
        registry.gauge("serve.load_balance").set(pool.load_balance())
        for d, u in enumerate(utilization):
            registry.gauge(f"serve.dev{d}.busy_fraction").set(u)
        # per-request phases: queueing (arrival -> device start), exposed
        # compile, execution net of barriers, barrier waits; latency_s =
        # queue_wait + execute + barrier (compile overlaps the queue phase)
        phases = {"queue_wait": queue, "compile": columns["compile_s"],
                  "execute": columns["service_s"] - barrier, "barrier": barrier}
        for name, values in (
            ("latency_s", latency), ("queue_s", queue),
            *((f"phase.{phase}_s", v) for phase, v in phases.items()),
            ("batch_size", columns["batch_size"]),
        ):
            registry.histogram(f"serve.{name}").extend(values)

        # per-SLO-class block: percentiles for every class seen (the
        # ``serve.sched.<class>.*`` histograms), violations and goodput
        # against the policy's targets
        class_breakdown: dict[str, dict] = {}
        met_total = 0
        for name in map(str, np.unique(slo)):
            members = slo == name
            stats = {}
            for what, values in (("latency_s", latency), ("queue_s", queue)):
                hist = registry.histogram(f"serve.sched.{name}.{what}")
                hist.extend(values[members])
                stats[what] = hist.snapshot()
            graded = sweep.slo_policy is not None and name in sweep.slo_policy.names
            target = sweep.slo_policy.get(name).target_p99_s if graded else None
            violations = int((latency[members] > target).sum()) if target is not None else 0
            count = stats["latency_s"]["count"]
            met_total += count - violations
            class_breakdown[name] = {
                "count": count,
                **{f"{q}_s": stats["latency_s"][q]
                   for q in ("p50", "p95", "p99", "mean")},
                "queue_p95_s": stats["queue_s"]["p95"],
                "target_p99_s": target,
                "violations": violations,
                "joined": int(joined[members].sum()),
                "deferred": int(deferred[members].sum()),
            }

        metrics = registry.snapshot()
        held = {}
        for f in fields(ServingReport):
            if "held" in f.metadata:
                table, metric, stat = f.metadata["held"]
                value = metrics[table].get(metric, 0)
                value = value[stat] if stat else value
                held[f.name] = int(value) if f.type == "int" else value
        num_batches = held["num_batches"]
        return ServingReport(
            **held,
            num_requests=n,
            pool_size=pool.num_devices,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            makespan_s=span,
            throughput_rps=n / span if span > 0 else 0.0,
            avg_batch_size=n / num_batches if num_batches else 0.0,
            device_busy_s=[float(b) for b in pool.busy],
            device_utilization=utilization,
            patch_s=sweep.patch_s,
            mutation_evictions=sweep.mutation_evictions,
            halo_s=sweep.halo_s,
            goodput_rps=met_total / span if span > 0 else 0.0,
            active_devices=pool.num_active,
            class_breakdown=class_breakdown,
            autoscaler_events=[
                e.to_dict()
                for e in (sweep.autoscaler.events if sweep.autoscaler else ())
            ],
            metrics=metrics,
            phase_breakdown={
                phase: metrics["histograms"][f"serve.phase.{phase}_s"]
                for phase in phases
            },
            responses=answers,
        )

    def _check_shards(self, request: InferenceRequest) -> None:
        """A request spans at most the devices a sweep can ever start it
        on: the pool, or the most the autoscaler will activate."""
        most = self._max_shards
        if not 1 <= request.shards <= most:
            devices = self.pool.num_devices
            capped = f", of which the autoscaler activates at most {most}"
            raise ValueError(
                f"request {request.request_id} asks for {request.shards} "
                f"shards, but shards must be within [1, {most}]: the pool has "
                f"{devices} device(s){capped if most < devices else ''}"
            )

    def estimate_service_s(self, request: InferenceRequest) -> float:
        """Per-batch device occupancy of one request's program (seconds)
        on a device that holds none of its inputs: the PCIe transfer plus
        the run's latency.  A served batch's ``service_s`` is at most
        this (a sweep skips the transfer to a device that already holds
        the inputs), so a rate calibrated on it does not depend on what
        a sweep kept resident.

        Checks the request as the serve loop would, then reads the
        program cache without populating or recounting it (calibrating
        before a server's first sweep does not turn its compiles warm).
        The execution goes through the engine's one door: replayed if the
        program holds its record, simulated and recorded if not.
        """
        request = self.engine.resolve_request(request)
        self._check_shards(request)
        program = self.cache.peek(request.program_key(self.config))
        if program is None:
            program = self.engine.compile_request(request)
        run = self.engine.execute(program, request.strategy, request.shards, ready_s=0.0)
        return pcie_transfer_seconds(program.input_bytes(), self.config) + run.latency_s

    def saturating_rate(
        self, probes: list[InferenceRequest], *,
        pool_size: int | None = None, factor: float = 8.0,
    ) -> float:
        """Arrival rate (req/s) offering ``factor`` x a pool's capacity.

        Probes each request's batch service time through
        :meth:`estimate_service_s` (PCIe included, as on a device holding
        nothing), normalises to per-request occupancy at
        full batches, and scales to ``pool_size`` devices (default: this
        server's pool).  The serving benchmarks all calibrate load
        with it.
        """
        if not probes:
            raise ValueError("need at least one probe request")
        service = [self.estimate_service_s(p) for p in probes]
        per_request_s = (sum(service) / len(service)) / self.max_batch_size
        pool = self.pool.num_devices if pool_size is None else pool_size
        return factor * pool / per_request_s
