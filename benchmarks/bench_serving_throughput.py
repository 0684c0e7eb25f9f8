"""S1 — serving throughput: pool-size and arrival-rate sweeps.

Drives the :mod:`repro.serve` subsystem with a saturating Poisson stream
and reports virtual-clock throughput as the accelerator pool grows, plus
the latency/throughput trade-off as the offered arrival rate rises from
light load to overload.  The headline claims this bench checks:

- throughput scales near-linearly with pool size on a saturating
  workload (the earliest-idle dispatcher keeps devices busy);
- a warm program cache recompiles nothing on a repeated sweep;
- as offered load crosses the pool's service capacity, the excess joins
  executions already in flight instead of queueing for new ones.
"""

from _common import Metric, emit, format_table, register_bench
from repro import u250_default
from repro.serve import InferenceRequest, InferenceServer, synthesize
from repro.serve.comparison import serving_comparison

CFG = u250_default()
MODELS = ("GCN", "GIN")
DATASETS = ("CO", "CI")
NUM_REQUESTS = 160
MAX_BATCH = 8


def _server(pool_size: int) -> InferenceServer:
    return InferenceServer(
        CFG,
        pool_size=pool_size,
        max_batch_size=MAX_BATCH,
        max_wait_s=1e-3,
        return_outputs=False,
    )


def _workload(rate_rps: float):
    return synthesize(
        NUM_REQUESTS,
        arrival="poisson",
        rate_rps=rate_rps,
        models=MODELS,
        datasets=DATASETS,
        seed=17,
    )


def _pool_sweep():
    """Warm report per pool size, on one stream saturating the largest."""
    comparison = serving_comparison(
        NUM_REQUESTS, pools=(1, 2, 4, 8), models=MODELS, datasets=DATASETS,
        seed=17, max_batch_size=MAX_BATCH, config=CFG,
    )
    return [(pool, warm) for pool, (_, warm) in comparison.sweeps.items()]


def _pool_table(rows):
    base = rows[0][1].throughput_rps
    return format_table(
        ["pool", "throughput (req/s)", "scaling", "p95 (ms)", "util (mean)",
         "hit rate"],
        [[pool, f"{r.throughput_rps:,.0f}", f"{r.throughput_rps / base:.2f}x",
          f"{r.latency_p95_s * 1e3:.3f}",
          f"{sum(r.device_utilization) / len(r.device_utilization) * 100:.1f}%",
          f"{r.cache_hit_rate * 100:.0f}%"]
         for pool, r in rows],
        title="S1a: serving throughput vs pool size (warm cache, "
              "saturating Poisson arrivals)",
    )


def _arrival_sweep():
    """Warm report per offered load, from light load to 4x capacity."""
    probes = [InferenceRequest(model=m, dataset=d)
              for m in MODELS for d in DATASETS]
    # factor=1.0: an arrival rate of exactly ~1x pool capacity
    capacity = _server(1).saturating_rate(probes, pool_size=4, factor=1.0)
    rows = []
    for load in (0.25, 0.5, 1.0, 2.0, 4.0):
        server = _server(4)
        workload = _workload(load * capacity)
        server.serve(workload)
        rows.append((load, server.serve(workload)))
    return rows


def _arrival_table(rows):
    return format_table(
        ["offered load", "throughput (req/s)", "p50 (ms)", "p95 (ms)",
         "queue mean (ms)", "avg batch"],
        [[f"{load:.2f}x", f"{r.throughput_rps:,.0f}",
          f"{r.latency_p50_s * 1e3:.3f}", f"{r.latency_p95_s * 1e3:.3f}",
          f"{r.queue_mean_s * 1e3:.3f}", f"{r.avg_batch_size:.2f}"]
         for load, r in rows],
        title="S1b: latency vs offered load (pool of 4, warm cache)",
    )


@register_bench("serving_throughput", tier="full", tags=("serve",))
def _spec():
    """Serving throughput vs pool size and offered load (virtual clock)."""
    rows = _pool_sweep()
    emit("serving_pool_scaling", _pool_table(rows))
    by_pool = {pool: r for pool, r in rows}
    loads = _arrival_sweep()
    emit("serving_arrival_sweep", _arrival_table(loads))
    light, heavy = loads[0][1], loads[-1][1]
    # overload rides the executions in flight: more requests join them
    # and each execution serves more (a light load's p95 is its batching
    # window, so latency need not grow with load)
    assert heavy.joined_requests > light.joined_requests
    assert heavy.avg_batch_size >= light.avg_batch_size
    assert all(r.cache_misses == 0 for _, r in rows)
    one = by_pool[1].throughput_rps
    assert by_pool[2].throughput_rps >= 1.5 * one, (
        f"2 devices serve {by_pool[2].throughput_rps / one:.2f}x one"
    )
    assert by_pool[4].throughput_rps >= 2.5 * one, (
        f"4 devices serve {by_pool[4].throughput_rps / one:.2f}x one"
    )
    return {
        "scaling_4pool": Metric(
            "scaling_4pool", by_pool[4].throughput_rps / one, "x", "higher"
        ),
        "warm_hit_rate": Metric(
            "warm_hit_rate", by_pool[4].cache_hit_rate, "frac", "higher"
        ),
    }
