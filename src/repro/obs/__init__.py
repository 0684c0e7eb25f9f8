"""``repro.obs`` — zero-dependency observability for the whole stack.

Three planes, all default-off and free when disabled:

- **spans** (:mod:`repro.obs.tracer`): nested intervals on the virtual
  clock — compiler phases, per-kernel/per-wave/per-task execution,
  serve-side enqueue/batch-form/dispatch, shard halo/barrier — threaded
  through ``Engine``, ``run_strategy`` (one trace shape at every
  width: a ``layer`` span per kernel and each lane's spans beside it),
  the serve loop and ``AcceleratorPool`` via ``tracer=``
  parameters;
- **metrics** (:mod:`repro.obs.metrics`): named counters / gauges /
  histograms, snapshotable into ``ServingReport.metrics`` and
  ``BENCH_*.json``;
- **exporters** (:mod:`repro.obs.export`): one trace format, the
  Perfetto/Chrome ``trace.json``, plus a flamegraph-style text summary
  and the ``repro trace --validate`` schema gate;
- **analytics** (:mod:`repro.obs.analyze`): :class:`TraceModel` loading
  spans back out of a live tracer *or* an exported ``trace.json`` (and
  querying them with the tracer's own ``select`` / ``total_s`` /
  ``tracks``), barrier-aware critical-path :func:`attribute`-ion and
  what-if :func:`project`-ions (zero-halo / interconnect) — the
  machinery behind ``repro trace-analyze`` and ``repro perf-diff
  --attribute``.

Quickstart::

    from repro import Engine
    from repro.obs import Tracer, write_trace

    tracer = Tracer()
    engine = Engine(tracer=tracer)
    handle = engine.compile("GCN", "PU", shards=4)
    result = engine.infer(handle, backend="sharded")
    write_trace(tracer, "trace.json")   # load in https://ui.perfetto.dev
"""

from repro.obs.analyze import (
    Attribution,
    PathSegment,
    TraceAnalysis,
    TraceError,
    TraceModel,
    WhatIf,
    analyze_trace,
    attribute,
    attribution_lines,
    critical_path,
    parse_what_if,
    project,
)
from repro.obs.export import (
    TraceCheck,
    export_run,
    flame_summary,
    to_perfetto,
    validate_trace,
    write_trace,
)
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.tracer import NULL_TRACER, CounterSample, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER", "Attribution", "CounterMetric", "CounterSample", "GaugeMetric",
    "HistogramMetric", "MetricsRegistry", "NullTracer", "PathSegment", "Span", "TraceAnalysis",
    "TraceCheck", "TraceError", "TraceModel", "Tracer", "WhatIf", "analyze_trace", "attribute",
    "attribution_lines", "critical_path", "export_run", "flame_summary", "parse_what_if",
    "project", "to_perfetto", "validate_trace", "write_trace"
]
