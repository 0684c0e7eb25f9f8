"""What a serve sweep reports: :class:`ServingReport`.

Every sweep is one :meth:`Engine.serve <repro.engine.core.Engine.serve>`
call, whose loop (:mod:`repro.sched.scheduler`, continuous batching)
builds this report from what it counted and answered.  Times are
virtual-clock seconds: a miss's compile is charged at its measured host
time, an execution at its run's cycle-accurate latency plus a PCIe input
transfer where a device does not yet hold the program's inputs.  Each
distinct (program, strategy, shards) is simulated once and replayed,
while device occupancy is charged for every execution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

from repro.serve.request import InferenceResponse

__all__ = ["ServingReport"]


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

        def per_batch(requests: int) -> float:
            return requests / self.num_batches if self.num_batches else 0.0

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
            f"  batching          : avg {self.avg_batch_size:.2f} req/exec = "
            f"{per_batch(self.num_requests - self.joined_requests):.2f} founders "
            f"(max {self.max_batch_size}) + {per_batch(self.joined_requests):.2f} "
            f"joined/boarded, wait {self.max_wait_s * 1e3:.2f} ms",
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
