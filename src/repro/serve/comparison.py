"""The serving comparison: cold then warm, one device then a pool.

Shared by ``repro serve-bench`` and the ``serving_throughput`` spec:
one synthetic request stream replayed twice (cold, then warm: program
cache populated) through a fresh engine per pool size.  Warm-vs-warm
across pool sizes isolates pool scaling from one-time compile charges;
cold-vs-warm on one pool shows what the program cache saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import AcceleratorConfig, u250_default
from repro.engine.core import Engine
from repro.obs import Tracer, write_trace
from repro.sched import AdmissionController, PoolAutoscaler, SLOPolicy
from repro.serve.request import InferenceRequest
from repro.serve.server import InferenceServer, ServingReport
from repro.serve.workload import synthesize

__all__ = ["ServingComparison", "serving_comparison"]

#: an arrival rate that is not given is calibrated to this multiple of
#: the largest pool's service capacity, so scaling is measured against a
#: saturating workload
SATURATION_FACTOR = 8.0


@dataclass
class ServingComparison:
    """Cold and warm :class:`ServingReport` s per pool size, one stream."""

    #: arrival rate of the stream (given, or calibrated to saturate)
    rate_rps: float
    #: pool size -> (cold sweep, warm sweep), ascending
    sweeps: dict[int, tuple[ServingReport, ServingReport]]

    @property
    def pool_size(self) -> int:
        return max(self.sweeps)

    @property
    def throughput_scaling(self) -> float:
        """Warm throughput of the largest pool over the smallest's."""
        base = self.sweeps[min(self.sweeps)][1].throughput_rps
        top = self.sweeps[self.pool_size][1].throughput_rps
        return top / base if base else 0.0

    def format_report(self) -> str:
        pool = self.pool_size
        cold, warm = self.sweeps[pool]
        lines = [f"arrival rate: {self.rate_rps:,.0f} req/s of virtual time"]
        for n, reports in self.sweeps.items():
            for temperature, report in zip(("cold", "warm"), reports):
                lines.append(
                    f"\n== {temperature} sweep, pool size {n} ==\n"
                    f"{report.format_report()}"
                )
        lines += [
            "\nsummary:",
            f"  throughput scaling : {self.throughput_scaling:.2f}x with "
            f"{pool} devices (ideal {pool:.2f}x, warm cache)",
            f"  warm vs cold p50   : {cold.latency_p50_s * 1e3:.3f} ms -> "
            f"{warm.latency_p50_s * 1e3:.3f} ms",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro serve-bench --json``)."""
        return {
            "arrival_rate_rps": self.rate_rps,
            "pool_size": self.pool_size,
            "sweeps": {
                f"{temperature}_pool{n}": report.to_dict()
                for n, reports in self.sweeps.items()
                for temperature, report in zip(("cold", "warm"), reports)
            },
            "throughput_scaling": self.throughput_scaling,
        }


def serving_comparison(
    num_requests: int = 200,
    *,
    pools: Sequence[int] = (1, 4),
    arrival: str = "poisson",
    rate_rps: float | None = None,
    models: Sequence[str] = ("GCN", "GIN"),
    datasets: Sequence[str] = ("CO", "CI"),
    strategy: str = "Dynamic",
    prune: float = 0.0,
    scale: float | None = None,
    skew: float = 0.0,
    class_skew: float = 0.0,
    seed: int = 0,
    max_batch_size: int = 8,
    max_wait_s: float = 1e-3,
    cache_capacity: int = 64,
    slo_p99_s: float | None = None,
    queue_bound: int | None = None,
    autoscale: bool = False,
    trace: str | None = None,
    config: AcceleratorConfig | None = None,
) -> ServingComparison:
    """Replay one synthetic stream cold then warm on each of ``pools``.

    ``slo_p99_s`` is the interactive class's p99 target (grades goodput);
    ``queue_bound`` bounds both classes' admission queues and
    ``autoscale`` attaches the queue-depth autoscaler.
    ``trace`` names a Perfetto file for the largest pool's cold sweep
    (compiles, batch formation, queueing and dispatch all happen there).
    """
    config = config or u250_default()
    policy = SLOPolicy.default(
        interactive_target_p99_s=slo_p99_s,
        interactive_queue_depth=queue_bound,
        bulk_queue_depth=queue_bound,
    )

    def server(pool_size: int, tracer: Tracer | None = None) -> InferenceServer:
        # each pool size gets its own engine (cache + device pool) and
        # its own admission/autoscaler state
        return InferenceServer(
            engine=Engine(config, pool_size=pool_size,
                          cache_capacity=cache_capacity, tracer=tracer),
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            return_outputs=False,
            slo_policy=policy,
            admission=(
                AdmissionController(policy) if queue_bound is not None else None
            ),
            autoscaler=PoolAutoscaler(min_devices=1) if autoscale else None,
        )

    sizes = sorted(set(pools))
    if rate_rps is None:
        probes = [
            InferenceRequest(model=m, dataset=d, strategy=strategy,
                             prune=prune, scale=scale, seed=seed)
            for m in models for d in datasets
        ]
        rate_rps = server(1).saturating_rate(
            probes, pool_size=sizes[-1], factor=SATURATION_FACTOR
        )
    workload = synthesize(
        num_requests, arrival=arrival, rate_rps=rate_rps, models=models,
        datasets=datasets, strategies=(strategy,), prune_levels=(prune,),
        scale=scale, skew=skew, seed=seed, class_skew=class_skew,
    )

    sweeps = {}
    for n in sizes:
        tracer = Tracer() if trace is not None and n == sizes[-1] else None
        front = server(n, tracer)
        cold = front.serve(workload)
        if tracer is not None:
            write_trace(tracer, trace, meta={
                "source": "serve-bench",
                "pool_size": n,
                "requests": num_requests,
                "sweep": "cold",
            })
            tracer.clear()  # the warm sweep's spans are not part of it
        sweeps[n] = (cold, front.serve(workload))
    return ServingComparison(rate_rps=rate_rps, sweeps=sweeps)
