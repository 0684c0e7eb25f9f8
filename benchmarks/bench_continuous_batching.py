"""S2 — continuous batching: overload goodput vs whole-batch book-ahead.

Drives one overloaded request stream (~10x a device's service capacity,
30% tagged interactive) through the serve loop and through the retired
book-ahead policy, kept as a test oracle (``tests/book_ahead.py``), and
checks the headline claims of the ``repro.sched`` subsystem:

1. join-in-flight lifts goodput (requests meeting their SLO target per
   second) by >= 2x over booking each batch ahead and whole under
   overload;
2. interactive p99 stays within its SLO target while book-ahead blows
   through it (queueing grows unboundedly at 10x load);
3. the oracle's run of the stream is bit-exact on a second server
   (modulo host-wall-clock compile measurements).

All graded sweeps run against a warm program cache, so every number is
virtual-clock deterministic.  Two specs run the two instances:
``continuous_batching`` (smoke: GCN on 2 devices) and
``continuous_batching_gcn_gin_4dev`` (full: a GCN+GIN mix on 4).
"""

import sys
from pathlib import Path

from _common import Metric, emit, format_table, register_bench
from repro import u250_default
from repro.sched import AdmissionController, PoolAutoscaler, SLOPolicy
from repro.serve import InferenceRequest, InferenceServer, synthesize

_tests = str(Path(__file__).resolve().parent.parent / "tests")
if _tests not in sys.path:
    sys.path.append(_tests)
from book_ahead import serve_book_ahead  # noqa: E402

CFG = u250_default()
MAX_BATCH = 8
OVERLOAD_FACTOR = 10.0
CLASS_SKEW = 0.3
#: interactive SLO target as a multiple of the warm single-request
#: service time — generous for continuous batching (joins bound
#: queueing), hopeless for book-ahead (overload queueing is many service
#: times deep)
TARGET_FACTOR = 3.0
MIN_GOODPUT_RATIO = 2.0

SMOKE = dict(models=("GCN",), requests=120, pool=2)
FULL = dict(models=("GCN", "GIN"), requests=320, pool=4)


def _server(pool: int, policy=None, admission=None,
            autoscaler=None) -> InferenceServer:
    return InferenceServer(
        CFG,
        pool_size=pool,
        max_batch_size=MAX_BATCH,
        max_wait_s=1e-3,
        return_outputs=False,
        slo_policy=policy,
        admission=admission,
        autoscaler=autoscaler,
    )


def sweep(models, requests, pool):
    """Warm overload sweeps on the loop and the oracle, plus the
    oracle's bit-exact check."""
    probes = [InferenceRequest(model=m, dataset="CO", seed=17)
              for m in models]
    probe_server = _server(1)
    exec_s = max(
        r.execute_s for r in serve_book_ahead(probe_server, probes).responses
    )
    # ~10x the pool's *batch-amortized* capacity: saturating_rate already
    # normalises per-request occupancy at full batches, so book-ahead is
    # genuinely overloaded, not just un-batched
    rate = probe_server.saturating_rate(
        probes, pool_size=pool, factor=OVERLOAD_FACTOR
    )
    policy = SLOPolicy.default(
        interactive_target_p99_s=TARGET_FACTOR * exec_s,
        bulk_queue_depth=max(64, requests),
    )
    workload = synthesize(
        requests,
        arrival="poisson",
        rate_rps=rate,
        models=models,
        datasets=("CO",),
        seed=17,
        class_skew=CLASS_SKEW,
    )

    legacy = _server(pool, policy=policy)
    serve_book_ahead(legacy, workload)                  # cold: populate the cache
    legacy_report = serve_book_ahead(legacy, workload)  # warm: graded sweep

    continuous = _server(
        pool, policy=policy,
        admission=AdmissionController(policy),
        autoscaler=PoolAutoscaler(min_devices=1),
    )
    continuous.serve(workload)
    continuous_report = continuous.serve(workload)

    # the oracle is deterministic: a second server books the same sweep
    again = _server(pool, policy=policy)
    serve_book_ahead(again, workload)
    again_report = serve_book_ahead(again, workload)
    bit_exact = _strip_wallclock(again_report.to_dict()) == \
        _strip_wallclock(legacy_report.to_dict())

    return {
        "exec_s": exec_s,
        "target_s": TARGET_FACTOR * exec_s,
        "legacy": legacy_report,
        "continuous": continuous_report,
        "bit_exact": bit_exact,
    }


def _strip_wallclock(d: dict) -> dict:
    # compile_s/compile_saved_s are *deliberately* host wall-clock: they
    # come from ProgramCache.get_or_compile, which reports the compiler's
    # phase timings, an allowlisted host-side measurement
    # (WALLCLOCK_ALLOWLIST in tests/test_source_invariants.py).
    # Everything else in the report is virtual-clock and must be
    # bit-identical between the two oracle runs — so only these fields
    # are excluded from the equality check.
    d = dict(d)
    for key in ("compile_saved_s", "compile_s"):
        d.pop(key, None)
    metrics = d.get("metrics")
    if metrics:
        metrics = {k: dict(v) if isinstance(v, dict) else v
                   for k, v in metrics.items()}
        for key in ("serve.compile_s", "serve.compile_saved_s"):
            metrics.get("counters", {}).pop(key, None)
        metrics.pop("histograms", None)
        d["metrics"] = metrics
    return d


def _interactive_p99(report) -> float:
    return report.class_breakdown["interactive"]["p99_s"]


def _table(result) -> str:
    target_ms = result["target_s"] * 1e3
    rows = []
    for name in ("book-ahead", "continuous"):
        r = result["legacy" if name == "book-ahead" else name]
        rows.append([
            name,
            f"{r.goodput_rps:,.0f}",
            f"{r.throughput_rps:,.0f}",
            f"{r.makespan_s * 1e3:.3f}",
            f"{_interactive_p99(r) * 1e3:.3f}",
            f"{r.joined_requests}",
            f"{r.shed_requests}/{r.deferred_requests}",
        ])
    return format_table(
        ["scheduler", "goodput (req/s)", "throughput", "makespan (ms)",
         f"inter p99 (ms, target {target_ms:.3f})", "joined",
         "shed/deferred"],
        rows,
        title="S2: continuous batching vs book-ahead under ~10x overload "
              "(warm cache, virtual clock)",
    )


def _check(models, requests, pool):
    """The claims on one instance, and its metrics."""
    result = sweep(models, requests, pool)
    emit("bench_continuous_batching", _table(result))
    legacy, cont = result["legacy"], result["continuous"]
    assert result["bit_exact"], (
        "two book-ahead runs of one stream diverged"
    )
    ratio = cont.goodput_rps / legacy.goodput_rps
    assert ratio >= MIN_GOODPUT_RATIO, (
        f"continuous goodput only {ratio:.2f}x book-ahead under "
        f"{OVERLOAD_FACTOR:.0f}x overload (need >= {MIN_GOODPUT_RATIO}x)"
    )
    p99 = _interactive_p99(cont)
    assert p99 <= result["target_s"], (
        f"continuous interactive p99 {p99 * 1e3:.3f} ms violates the "
        f"{result['target_s'] * 1e3:.3f} ms SLO target"
    )
    assert cont.joined_requests > 0, "no request joined an execution in flight"
    return {
        "goodput_ratio": Metric("goodput_ratio", ratio, "x", "higher"),
        "interactive_p99_ms": Metric(
            "interactive_p99_ms", p99 * 1e3, "ms", "lower"
        ),
        "joined_fraction": Metric(
            "joined_fraction",
            cont.joined_requests / cont.num_requests,
            "frac",
            "higher",
        ),
        "continuous_goodput_rps": Metric(
            "continuous_goodput_rps", cont.goodput_rps, "req/s", "higher"
        ),
    }


#: all graded numbers are virtual-clock deterministic; the bands are the
#: ones the baseline was recorded with
TOLERANCES = {"goodput_ratio": 0.3, "interactive_p99_ms": 0.3,
              "joined_fraction": 0.3}


@register_bench("continuous_batching", tier="smoke",
                tags=("serve", "sched", "scaling"), tolerances=TOLERANCES)
def _smoke():
    """Continuous-batching goodput and p99 under overload: GCN, 2 devices."""
    return _check(**SMOKE)


@register_bench("continuous_batching_gcn_gin_4dev", tier="full",
                tags=("serve", "sched", "scaling"), tolerances=TOLERANCES)
def _full():
    """Continuous-batching goodput and p99 under overload: GCN+GIN, 4 devices."""
    return _check(**FULL)
