"""O2 — trace analytics: attribution must reconcile, what-ifs must match.

``repro.obs.analyze`` turns recorded spans into steering numbers — what
share of a sharded run's critical path is exposed halo exchange, and what
eliminating it or a faster interconnect would buy.  Those numbers are
only useful if they are *honest*, so this bench runs a traced sharded
inference and gates four invariants on every CI run:

- the critical-path category sums reconcile with
  ``InferenceResult.latency_s`` within 1%;
- the projection with no hypothetical replays the executor's schedule:
  it reproduces ``InferenceResult.latency_s``;
- the zero-halo what-if projection equals the result's own halo-seconds
  accounting (``InferenceResult.zero_halo_latency_s``) to 1e-9;
- the trace written to ``trace.json`` and read back attributes the same
  per-category seconds as the live tracer (within 1e-12 s).

The emitted metrics track what halo exchange still costs (the exposed
halo share of the critical path, the projected zero-halo and
twice-the-interconnect speedups) plus the analyzer's own wall-clock
cost, so a perf regression in either the modelled numbers or the
analysis itself is caught by the baseline gate.  Two specs run the two
instances: ``trace_analyze`` (smoke: Cora on 2 devices, small config) and
``trace_analyze_pubmed_4dev`` (full: PubMed on 4 devices, U250 config).
"""

import tempfile
import time
from pathlib import Path

import numpy as np
from _common import Metric, emit, format_table, register_bench
from repro.config import small_test_config, u250_default
from repro.engine import Engine
from repro.obs import TraceModel, Tracer, attribute, project, write_trace

FULL = dict(model="GCN", dataset="PU", scale=1.0, shards=4)
SMOKE = dict(model="GCN", dataset="CO", scale=1.0, shards=2)

#: attribution must reconcile with the reported latency within 1%
RECONCILE_RTOL = 0.01


def measure(*, model, dataset, scale, shards, config):
    """Traced sharded run + full analysis; returns the steering numbers."""
    tracer = Tracer(task_spans=False)
    engine = Engine(config, pool_size=shards, tracer=tracer)
    handle = engine.compile(model, dataset, scale=scale, shards=shards)
    result = engine.infer(handle, backend="sharded")
    trace_model = TraceModel.from_tracer(tracer, meta=result.trace_meta())

    t0 = time.perf_counter()
    att = attribute(trace_model)
    zero = project(trace_model, zero_halo=True)
    replay = project(trace_model)
    faster = project(trace_model, interconnect_scale=2.0)
    analyze_s = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace(tracer, Path(tmp) / "trace.json",
                           meta=result.trace_meta())
        read_back = attribute(TraceModel.from_trace(path))

    assert att.reconciles(RECONCILE_RTOL), (
        f"attribution does not reconcile: critical path {att.total_s:.9f} s "
        f"vs reported {result.latency_s:.9f} s "
        f"(residual {att.residual_frac():.2%})"
    )
    assert np.isclose(
        zero.projected_s, result.zero_halo_latency_s(), rtol=1e-9
    ), (
        f"zero-halo projection {zero.projected_s:.9f} s does not match "
        f"the result's accounting {result.zero_halo_latency_s():.9f} s"
    )
    assert np.isclose(replay.projected_s, result.latency_s, rtol=1e-9), (
        "the projection with no hypothetical does not replay the schedule"
    )
    assert zero.projected_s <= faster.projected_s <= replay.projected_s
    assert read_back.by_category.keys() == att.by_category.keys() and all(
        abs(read_back.by_category[cat] - secs) <= 1e-12
        for cat, secs in att.by_category.items()
    ), "the trace read back from trace.json attributes differently"

    return {
        "latency_s": result.latency_s,
        "halo_frac": att.fraction("halo"),
        "kernel_frac": att.fraction("kernel"),
        "zero_halo_speedup": zero.speedup,
        "interconnect_x2_speedup": faster.speedup,
        "analyze_s": analyze_s,
        "num_segments": att.num_segments,
    }


def _table(params, stats) -> str:
    return format_table(
        ["model", "dataset", "shards", "latency (ms)", "halo share",
         "zero-halo", "interconnect x2", "analyze (ms)"],
        [[params["model"], params["dataset"], params["shards"],
          f"{stats['latency_s'] * 1e3:.4f}",
          f"{stats['halo_frac'] * 100:.2f}%",
          f"{stats['zero_halo_speedup']:.3f}x",
          f"{stats['interconnect_x2_speedup']:.3f}x",
          f"{stats['analyze_s'] * 1e3:.3f}"]],
        title="O2: critical-path attribution + what-if projections",
    )


def _check(params, config):
    """The analyzer's invariants on one instance, and its metrics."""
    stats = measure(**params, config=config)
    emit("bench_trace_analyze", _table(params, stats))
    assert stats["zero_halo_speedup"] >= 1.0
    # a faster interconnect can never beat free halos
    assert 1.0 <= stats["interconnect_x2_speedup"] <= stats["zero_halo_speedup"]
    assert 0.0 <= stats["halo_frac"] < 1.0
    return {
        "halo_frac": Metric("halo_frac", stats["halo_frac"], "frac"),
        "zero_halo_speedup": Metric(
            "zero_halo_speedup", stats["zero_halo_speedup"], "x", "higher"
        ),
        "interconnect_x2_speedup": Metric(
            "interconnect_x2_speedup", stats["interconnect_x2_speedup"], "x",
            "higher",
        ),
        "analyze_ms": Metric("analyze_ms", stats["analyze_s"] * 1e3, "ms"),
    }


# the fractions/speedups are modelled (machine-independent) and keep the
# default band; analyze_ms is wall-clock and gets the cross-machine band
@register_bench("trace_analyze", tier="smoke", tags=("obs", "shard"))
def _smoke():
    """Attribution reconciliation + what-if oracles: Cora on 2 devices."""
    return _check(SMOKE, small_test_config())


@register_bench("trace_analyze_pubmed_4dev", tier="full", tags=("obs", "shard"))
def _full():
    """Attribution reconciliation + what-if oracles: PubMed on 4 devices."""
    return _check(FULL, u250_default())
