"""Trace analytics: critical-path attribution and halo what-ifs.

Every layer of the stack emits spans; this module is the layer that
*answers questions* about them.  A :class:`TraceModel` normalises a span
stream — taken from a live :class:`~repro.obs.tracer.Tracer` or loaded
back out of an exported Perfetto ``trace.json`` — and two analyses run
over it:

- :func:`attribute` — barrier-aware **critical-path extraction**: the
  chain of spans whose end times gate the run's reported ``latency_s``
  (per layer, the lane that set the barrier; a one-device run is the
  one-lane case), rolled up into canonical categories
  (``kernel`` / ``halo`` / ``barrier-wait`` / ``exposed-host`` /
  ``compile`` / ``queue-wait``) whose sum must reconcile with the
  reported latency within 1%;
- :func:`project` — **what-if projections** replayed over the same
  span structure: zero-cost halos or a scaled interconnect.

Everything here is pure analysis over recorded spans: nothing re-runs
the simulator, so the analyses apply equally to a trace produced five
minutes ago in CI and one pulled from an artifact store.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.hw.report import exposed_stream
from repro.obs.export import read_events
from repro.obs.tracer import CounterSample, Span, SpanQueries, Tracer

__all__ = [
    "Attribution",
    "PathSegment",
    "TraceError",
    "TraceAnalysis",
    "TraceModel",
    "WhatIf",
    "analyze_trace",
    "attribute",
    "attribution_lines",
    "critical_path",
    "parse_what_if",
    "project",
]


class TraceError(ValueError):
    """The trace cannot be loaded or is not analysable."""


#: canonical attribution categories, in report order
CATEGORIES = (
    "kernel", "halo", "barrier-wait", "exposed-host", "compile", "queue-wait"
)

#: raw span ``cat`` -> canonical attribution category
_CANONICAL = {
    "kernel": "kernel",
    "halo": "halo",
    "barrier": "barrier-wait",
    "exposed": "exposed-host",
    "compile": "compile",
    "queue": "queue-wait",
    "layer": "kernel",  # degenerate traces: a layer with no shard spans
}

#: slack for span-containment checks (float jitter at barriers)
_EPS = 1e-12


@dataclass(frozen=True)
class TraceModel(SpanQueries):
    """A span stream plus its metadata, ready for analysis.

    Built either from a live tracer (:meth:`from_tracer`) or from an
    exported Chrome/Perfetto ``trace.json`` or its path
    (:meth:`from_trace` — the inverse of
    :func:`~repro.obs.export.to_perfetto`, mapping tids back to track
    names through the ``thread_name`` metadata events); it answers the
    :class:`~repro.obs.tracer.Tracer`'s span queries.  ``meta`` is the
    trace's ``otherData``: when the exporter stamped
    ``expected_total_s`` there, attribution can reconcile against the
    run's reported latency without re-running anything.
    """

    spans: tuple[Span, ...]
    counters: tuple[CounterSample, ...] = ()
    meta: dict = field(default_factory=dict)
    source: str = "<tracer>"

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer: Tracer, *, meta: dict | None = None) -> TraceModel:
        return cls(
            spans=tuple(tracer.spans),
            counters=tuple(tracer.counters),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_trace(cls, trace: dict | str | Path, *, source: str | None = None) -> TraceModel:
        """Rebuild spans/counters from a Chrome trace-event dict or the
        path of one; a trace :func:`~repro.obs.export.validate_trace`
        rejects (its span sums aside) raises, naming the first broken
        invariant."""
        source = source or ("<dict>" if isinstance(trace, dict) else str(trace))
        spans, counters, meta, errors = read_events(trace)
        if errors:
            raise TraceError(f"{source}: {errors[0]}")
        return cls(spans=tuple(spans), counters=tuple(counters), meta=meta, source=source)

    @classmethod
    def load(cls, source) -> TraceModel:
        """Accept whatever the caller has: model, tracer, dict, or path."""
        if isinstance(source, cls):
            return source
        return cls.from_tracer(source) if isinstance(source, Tracer) else cls.from_trace(source)

    @property
    def expected_latency_s(self) -> float | None:
        value = self.meta.get("expected_total_s")
        return None if value is None else float(value)

    @property
    def kind(self) -> str:
        """Trace shape: ``inference`` (a run at any width: its ``layer``
        spans) | ``serve`` | ``unknown``."""
        cats = {sp.cat for sp in self.spans}
        if "layer" in cats:
            return "inference"
        if "dispatch" in cats or "batch" in cats:
            return "serve"
        return "unknown"


# -- critical path ------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One span on the critical path, tagged with its canonical category."""

    span: Span
    category: str

    @property
    def dur_s(self) -> float:
        return self.span.dur_s


def _contains(outer: Span, inner: Span) -> bool:
    slack = _EPS + 1e-9 * max(abs(outer.start_s), abs(outer.end_s), 1e-3)
    return (
        inner.start_s >= outer.start_s - slack
        and inner.end_s <= outer.end_s + slack
    )


def _layers(model: TraceModel):
    """Each ``layer`` span in time order, with its lanes' kernel spans
    (none on a trace stripped of lane tracks)."""
    kernels = model.select(cat="kernel")
    for layer in sorted(model.select(cat="layer"), key=lambda sp: sp.start_s):
        yield layer, [
            sp for sp in kernels
            if sp.name == layer.name and _contains(layer, sp)
        ]


def _lane_span(layer: Span, spans: list[Span], track: str, name: str) -> Span | None:
    """The span called ``name`` on ``track`` inside ``layer`` (a lane's
    exposed halo or analysis, or the whole transfer on its ``dma``
    track); ``None`` if the lane had none."""
    return next(
        (sp for sp in spans
         if sp.track == track and sp.name == name and _contains(layer, sp)),
        None,
    )


def critical_path(source) -> list[PathSegment]:
    """The chain of spans whose end times gate the run's latency.

    Each ``layer`` span on the ``timeline`` track is one per-kernel
    barrier; the lane that set it (the layer's ``slowest``) is the
    critical one, and its exposed-halo, kernel and exposed-analysis spans
    tile the layer up to its barrier, so the segment durations sum to
    ``latency_s`` at every width.
    """
    model = TraceModel.load(source)
    if model.kind == "serve":
        raise TraceError(
            "serving traces have no single critical path (requests overlap); "
            "use ServingReport.phase_breakdown for per-request analytics"
        )
    if model.kind != "inference":
        raise TraceError("trace has no kernel/layer spans to extract a critical path from")
    halos, exposed = model.select(cat="halo"), model.select(cat="exposed")
    path: list[PathSegment] = []
    for layer, members in _layers(model):
        if not members:
            # the layer span itself still carries the barrier time
            path.append(PathSegment(layer, "kernel"))
            continue
        critical = next(
            (sp for sp in members if sp.track == layer.args.get("slowest")),
            max(members, key=lambda sp: sp.end_s),
        )
        track, name = critical.track, critical.name
        halo = _lane_span(layer, halos, track, f"{name}/halo")
        tail = _lane_span(layer, exposed, track, f"{name}/exposed")
        path += [PathSegment(sp, category) for sp, category in (
            (halo, "halo"), (critical, "kernel"), (tail, "exposed-host")
        ) if sp is not None]
    return path


# -- attribution --------------------------------------------------------
@dataclass(frozen=True)
class Attribution:
    """Where the run's latency went, by canonical category.

    ``by_category`` sums the critical-path segments; its total must
    reconcile with the run's reported latency (``expected_s``, stamped
    into the trace meta by ``repro trace``) within ``rtol``.
    ``aggregate_by_cat`` is the informational all-span rollup (every
    shard, not just the critical one) keyed by raw span category.
    """

    kind: str
    by_category: dict[str, float]
    aggregate_by_cat: dict[str, float]
    num_segments: int
    expected_s: float | None = None
    source: str = "<tracer>"

    @property
    def total_s(self) -> float:
        return float(sum(self.by_category.values()))

    def fraction(self, category: str) -> float:
        total = self.total_s
        return self.by_category.get(category, 0.0) / total if total else 0.0

    def residual_frac(self) -> float:
        """|critical-path sum - reported latency| / reported latency."""
        if not self.expected_s:
            return 0.0
        return abs(self.total_s - self.expected_s) / abs(self.expected_s)

    def reconciles(self, rtol: float = 0.01) -> bool:
        return self.expected_s is None or self.residual_frac() <= rtol

    def format_report(self) -> str:
        total = self.total_s
        lines = [
            f"critical-path attribution ({self.kind} trace, "
            f"{self.num_segments} segments, {total * 1e3:.4f} ms)"
        ]
        for category in CATEGORIES:
            dur = self.by_category.get(category, 0.0)
            if dur == 0.0:
                continue
            frac = dur / total if total else 0.0
            bar = "#" * max(int(round(frac * 24)), 0)
            lines.append(
                f"  {category:<14}{dur * 1e3:>12.4f} ms "
                f"{frac * 100:>6.1f}%  {bar}"
            )
        if self.expected_s is not None:
            lines.append(
                f"  reported latency {self.expected_s * 1e3:.4f} ms — "
                f"residual {self.residual_frac() * 100:.3f}% "
                f"({'reconciles' if self.reconciles() else 'DOES NOT reconcile'})"
            )
        off_path = {
            cat: dur for cat, dur in sorted(self.aggregate_by_cat.items())
            if _CANONICAL.get(cat, cat) not in self.by_category
            and cat not in ("layer", "task", "wave")
        }
        if off_path:
            overlapped = ", ".join(
                f"{cat} {dur * 1e3:.4f} ms" for cat, dur in off_path.items()
            )
            lines.append(f"  off the critical path: {overlapped}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "total_s": self.total_s,
            "residual_frac": self.residual_frac(),
            "reconciles": self.reconciles(),
        }


def attribute(source, *, expected_s: float | None = None) -> Attribution:
    """Critical-path attribution of an inference trace.

    ``expected_s`` overrides the reconciliation target; by default the
    ``expected_total_s`` the exporter stamped into the trace meta is
    used (``None`` -> no reconciliation claim is made).
    """
    model = TraceModel.load(source)
    path = critical_path(model)
    if not path:
        raise TraceError("trace has no spans on the critical path")
    by_category: dict[str, float] = {}
    for seg in path:
        by_category[seg.category] = (
            by_category.get(seg.category, 0.0) + seg.dur_s
        )
    aggregate: dict[str, float] = {}
    for sp in model.spans:
        if sp.kind != "span":
            continue
        cat = sp.cat or "(uncategorised)"
        aggregate[cat] = aggregate.get(cat, 0.0) + sp.dur_s
    return Attribution(
        kind=model.kind,
        by_category=by_category,
        aggregate_by_cat=aggregate,
        num_segments=len(path),
        expected_s=(
            expected_s if expected_s is not None else model.expected_latency_s
        ),
        source=model.source,
    )


# -- what-if projections ------------------------------------------------
@dataclass(frozen=True)
class WhatIf:
    """One projected latency against the trace's recorded baseline."""

    name: str
    baseline_s: float
    projected_s: float

    @property
    def savings_s(self) -> float:
        return self.baseline_s - self.projected_s

    @property
    def speedup(self) -> float:
        return (
            self.baseline_s / self.projected_s
            if self.projected_s > 0 else float("inf")
        )

    def describe(self) -> str:
        return (
            f"what-if {self.name}: {self.baseline_s * 1e3:.4f} ms -> "
            f"{self.projected_s * 1e3:.4f} ms "
            f"({self.speedup:.2f}x, saves {self.savings_s * 1e3:.4f} ms)"
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "savings_s": self.savings_s,
                "speedup": self.speedup}


def project(
    source,
    *,
    zero_halo: bool = False,
    interconnect_scale: float | None = None,
) -> WhatIf:
    """Replay the trace's barrier structure under a hypothetical.

    - ``zero_halo``: halo exchanges are free (upper bound on any
      interconnect work);
    - ``interconnect_scale``: halo PCIe seconds divide by this factor
      (2.0 = twice the GB/s).

    Hypotheticals compose; in every layer a transfer reached, each
    lane's time is recomputed as the driver computes the real one
    (execution and exposed analysis, plus
    :func:`~repro.hw.report.exposed_stream` of its ``dma`` span's
    transfer in the chunks the span records), then the per-layer barrier
    (max over lanes) and the sum over layers.  A one-device run moves no
    halo, so every projection of it is its recorded latency.
    """
    if interconnect_scale is not None and interconnect_scale <= 0:
        raise TraceError("interconnect_scale must be positive")
    model = TraceModel.load(source)
    parts: list[str] = []
    if zero_halo:
        parts.append("zero-halo")
    if interconnect_scale is not None:
        parts.append(f"interconnect x{interconnect_scale:g}")
    label = ", ".join(parts) if parts else "baseline"
    #: what every transfer's seconds are divided by
    divisor = math.inf if zero_halo else interconnect_scale or 1.0

    if model.kind != "inference":
        raise TraceError(f"what-if projections need an inference trace, got a {model.kind!r} trace")
    transfers, exposed = model.select(cat="dma"), model.select(cat="exposed")
    baseline = projected = 0.0
    for layer, members in _layers(model):
        baseline += layer.dur_s
        times, moved = [], False
        for sp in members:
            tail = _lane_span(layer, exposed, sp.track, f"{sp.name}/exposed")
            exec_s = sp.dur_s + (tail.dur_s if tail is not None else 0.0)
            dma = _lane_span(layer, transfers, f"{sp.track}/dma", f"{sp.name}/halo")
            if dma is not None:
                moved = True
                exec_s += float(exposed_stream(
                    dma.dur_s / divisor, dma.args.get("chunks", 1), exec_s
                ))
            times.append(exec_s)
        # a layer no transfer reached is left as recorded
        projected += max(times) if moved else layer.dur_s
    return WhatIf(name=label, baseline_s=baseline, projected_s=projected)


def parse_what_if(spec: str) -> dict:
    """Parse one ``--what-if`` CLI token list into :func:`project` kwargs.

    ``spec`` is comma-separated: ``zero-halo`` and ``interconnect=K``
    compose into one projection (``zero-halo,interconnect=2``).
    """
    kwargs: dict = {}
    for token in filter(None, (t.strip() for t in spec.split(","))):
        key, _, value = token.partition("=")
        if token == "zero-halo":
            kwargs["zero_halo"] = True
        elif key == "interconnect" and value:
            try:
                kwargs["interconnect_scale"] = float(value)
            except ValueError:
                raise TraceError(f"bad interconnect factor in {token!r}")
        else:
            raise TraceError(
                f"unknown what-if token {token!r} (expected zero-halo or "
                f"interconnect=K)"
            )
    if not kwargs:
        raise TraceError("empty what-if spec")
    return kwargs


# -- the trace-analyze report -------------------------------------------
@dataclass(frozen=True)
class TraceAnalysis:
    """Everything ``repro trace-analyze`` reports about one trace."""

    trace: str
    attribution: Attribution
    what_ifs: tuple[WhatIf, ...] = ()

    def format_report(self) -> str:
        lines = [self.attribution.format_report()]
        lines.extend(wi.describe() for wi in self.what_ifs)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "trace": self.trace,
            "attribution": self.attribution.to_dict(),
            "what_ifs": [wi.to_dict() for wi in self.what_ifs],
        }


def analyze_trace(trace: str | Path, *, what_if: Sequence[str] = ()) -> TraceAnalysis:
    """Attribute an exported trace's critical path and project each
    ``what_if`` spec (:func:`parse_what_if` tokens)."""
    model = TraceModel.from_trace(trace)
    return TraceAnalysis(
        trace=str(trace),
        attribution=attribute(model),
        what_ifs=tuple(
            project(model, **parse_what_if(spec)) for spec in what_if
        ),
    )


# -- perf-diff attribution ----------------------------------------------
def attribution_lines(trace_path: str | Path) -> list[str]:
    """Human-readable attribution for ``repro perf-diff --attribute``:
    where the latency of the run behind a BENCH regression lives on its
    trace's critical path.  A missing or corrupt trace degrades to an
    explanatory line instead of failing the diff.
    """
    trace_path = Path(trace_path)
    if not trace_path.is_file():
        return [
            f"(no trace artifact at {trace_path} — generate one with "
            f"`repro trace ... --out {trace_path}` to attribute regressions)"
        ]
    try:
        model = TraceModel.from_trace(trace_path)
    except TraceError as exc:
        return [f"(cannot attribute: {exc})"]
    try:
        return [attribute(model).format_report()]
    except TraceError as exc:
        return [f"(no critical-path attribution: {exc})"]
