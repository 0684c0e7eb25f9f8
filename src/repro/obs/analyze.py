"""Trace analytics: critical-path attribution, what-ifs, trace diffing.

PR 6 made every layer of the stack emit spans; this module is the layer
that *answers questions* about them.  A :class:`TraceModel` normalises a
span stream — taken from a live :class:`~repro.obs.tracer.Tracer` or
loaded back out of an exported Perfetto ``trace.json`` — and three
analyses run over it:

- :func:`attribute` — barrier-aware **critical-path extraction**: the
  chain of spans whose end times gate the run's reported ``latency_s``
  (per-layer slowest shard for sharded runs, the kernel+exposed tiling
  for single-device runs), rolled up into canonical categories
  (``kernel`` / ``halo`` / ``barrier-wait`` / ``exposed-host`` /
  ``compile`` / ``queue-wait``) whose sum must reconcile with the
  reported latency within 1%;
- :func:`project` — **what-if projections** replayed over the same
  span structure: zero-cost halos, a scaled interconnect, a different
  Computation-Core count;
- :func:`diff_traces` — aligns two traces by ``(track, cat, name)``
  span group and emits per-group count/duration deltas, so a perf
  regression can be pinned to *which span group* moved
  (``repro perf-diff --attribute``) instead of just "a number changed".

Everything here is pure analysis over recorded spans: nothing re-runs
the simulator, so the analyses apply equally to a trace produced five
minutes ago in CI and one pulled from an artifact store.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.hw.report import exposed_stream
from repro.obs.tracer import CounterSample, Span, Tracer

__all__ = [
    "Attribution",
    "GroupDelta",
    "PathSegment",
    "TraceDiff",
    "TraceError",
    "TraceAnalysis",
    "TraceModel",
    "WhatIf",
    "analyze_trace",
    "attribute",
    "attribution_lines",
    "critical_path",
    "diff_traces",
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
class TraceModel:
    """A span stream plus its metadata, ready for analysis.

    Built either from a live tracer (:meth:`from_tracer`) or from an
    exported Chrome/Perfetto ``trace.json`` (:meth:`from_file` /
    :meth:`from_trace` — the inverse of
    :func:`~repro.obs.export.to_perfetto`, mapping tids back to track
    names through the ``thread_name`` metadata events).  ``meta`` is the
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
    def from_trace(cls, trace: dict, *, source: str = "<dict>") -> TraceModel:
        """Rebuild spans/counters from a Chrome trace-event dict."""
        if not isinstance(trace, dict):
            raise TraceError(f"{source}: trace must be a JSON object")
        events = trace.get("traceEvents")
        if not isinstance(events, list) or not events:
            raise TraceError(
                f"{source}: trace has no traceEvents list (or it is empty)"
            )
        tracks: dict[int, str] = {}
        for event in events:
            if (
                isinstance(event, dict)
                and event.get("ph") == "M"
                and event.get("name") == "thread_name"
            ):
                tracks[event.get("tid")] = event.get("args", {}).get(
                    "name", f"tid{event.get('tid')}"
                )
        spans: list[Span] = []
        counters: list[CounterSample] = []
        for i, event in enumerate(events):
            if not isinstance(event, dict):
                raise TraceError(f"{source}: event {i} is not an object")
            ph = event.get("ph")
            if ph == "M":
                continue
            track = tracks.get(event.get("tid"), f"tid{event.get('tid')}")
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                raise TraceError(f"{source}: event {i} ({ph}) has bad ts {ts!r}")
            if ph == "X":
                dur = event.get("dur")
                if not isinstance(dur, (int, float)):
                    raise TraceError(
                        f"{source}: event {i} (X) has bad dur {dur!r}"
                    )
                spans.append(Span(
                    track=track,
                    name=str(event.get("name", "")),
                    cat=str(event.get("cat", "") or ""),
                    start_s=ts * 1e-6,
                    dur_s=dur * 1e-6,
                    args=dict(event.get("args") or {}),
                ))
            elif ph == "i":
                spans.append(Span(
                    track=track,
                    name=str(event.get("name", "")),
                    cat=str(event.get("cat", "") or ""),
                    start_s=ts * 1e-6,
                    dur_s=0.0,
                    args=dict(event.get("args") or {}),
                    kind="instant",
                ))
            elif ph == "C":
                for cname, value in (event.get("args") or {}).items():
                    counters.append(CounterSample(
                        track=track, name=cname, t_s=ts * 1e-6,
                        value=float(value),
                    ))
            else:
                raise TraceError(f"{source}: event {i} has unknown phase {ph!r}")
        return cls(
            spans=tuple(spans),
            counters=tuple(counters),
            meta=dict(trace.get("otherData") or {}),
            source=source,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> TraceModel:
        path = Path(path)
        try:
            trace = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceError(f"cannot load trace from {path}: {exc}") from exc
        return cls.from_trace(trace, source=str(path))

    @classmethod
    def load(cls, source) -> TraceModel:
        """Accept whatever the caller has: model, tracer, dict, or path."""
        if isinstance(source, cls):
            return source
        if isinstance(source, Tracer):
            return cls.from_tracer(source)
        if isinstance(source, dict):
            return cls.from_trace(source)
        return cls.from_file(source)

    # -- queries --------------------------------------------------------
    def tracks(self) -> tuple[str, ...]:
        seen = {sp.track for sp in self.spans}
        seen.update(c.track for c in self.counters)
        return tuple(sorted(seen))

    def select(self, *, cat: str | None = None, track: str | None = None):
        """Spans filtered by category and/or track prefix (Tracer rules)."""
        out = []
        for sp in self.spans:
            if cat is not None and sp.cat != cat:
                continue
            if track is not None and not (
                sp.track == track or sp.track.startswith(track + "/")
            ):
                continue
            out.append(sp)
        return out

    def total_s(self, *, cat: str | None = None, track: str | None = None) -> float:
        return float(sum(sp.dur_s for sp in self.select(cat=cat, track=track)))

    @property
    def expected_latency_s(self) -> float | None:
        value = self.meta.get("expected_total_s")
        return None if value is None else float(value)

    @property
    def kind(self) -> str:
        """Trace shape: ``sharded`` | ``single`` | ``serve`` | ``unknown``."""
        cats = {sp.cat for sp in self.spans}
        if "layer" in cats:
            return "sharded"
        if "kernel" in cats:
            return "single"
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
    """Each ``layer`` span of a sharded trace in time order, with its
    shards' kernel spans (none on a trace stripped of shard tracks)."""
    kernels = model.select(cat="kernel")
    for layer in sorted(model.select(cat="layer"), key=lambda sp: sp.start_s):
        yield layer, [
            sp for sp in kernels
            if sp.name == layer.name and _contains(layer, sp)
        ]


def _halo_of(layer: Span, spans: list[Span], track: str) -> Span | None:
    """The layer's halo span on ``track`` (a shard's exposed part, or the
    whole transfer on its ``dma`` track); ``None`` if nothing moved."""
    return next(
        (
            sp for sp in spans
            if sp.track == track and sp.name == f"{layer.name}/halo"
            and _contains(layer, sp)
        ),
        None,
    )


def _sharded_path(model: TraceModel) -> list[PathSegment]:
    """Per layer: the slowest shard's exposed-halo + kernel spans.

    Each ``layer`` span on the ``timeline`` track is one per-kernel
    barrier; the shard whose (exposed halo + execution) time set that
    barrier is the critical one, and its spans tile the layer exactly —
    so the segment durations sum to ``sum(barrier_s) == latency_s`` by
    construction.
    """
    halos = model.select(cat="halo")
    path: list[PathSegment] = []
    for layer, members in _layers(model):
        if not members:
            # the layer span itself still carries the barrier time
            path.append(PathSegment(layer, "kernel"))
            continue
        want = f"shard{layer.args.get('slowest_shard')}"
        critical = next(
            (sp for sp in members if sp.track == want),
            max(members, key=lambda sp: sp.end_s),
        )
        halo = _halo_of(layer, halos, critical.track)
        if halo is not None and halo.dur_s > 0.0:
            path.append(PathSegment(halo, "halo"))
        path.append(PathSegment(critical, "kernel"))
    return path


def _single_path(model: TraceModel) -> list[PathSegment]:
    """Device kernel spans in time order, then the exposed-host tail.

    The runtime lays exposed-analysis spans end to end *after* the
    device spans precisely so that ``sum(kernel) + sum(exposed) ==
    latency_s`` exactly; the critical path is that tiling.
    """
    kernels = sorted(
        (
            sp for sp in model.select(cat="kernel")
            if not sp.track.startswith("shard")
        ),
        key=lambda sp: sp.start_s,
    )
    exposed = sorted(model.select(cat="exposed"), key=lambda sp: sp.start_s)
    return [PathSegment(sp, "kernel") for sp in kernels] + [
        PathSegment(sp, "exposed-host") for sp in exposed
    ]


def critical_path(source) -> list[PathSegment]:
    """The chain of spans whose end times gate the run's latency."""
    model = TraceModel.load(source)
    kind = model.kind
    if kind == "sharded":
        return _sharded_path(model)
    if kind == "single":
        return _single_path(model)
    if kind == "serve":
        raise TraceError(
            "serving traces have no single critical path (requests overlap); "
            "use ServingReport.phase_breakdown for per-request analytics"
        )
    raise TraceError(
        "trace has no kernel/layer spans to extract a critical path from"
    )


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


def _scale_exec(span: Span, cores: int, cores_now: int | None) -> float:
    """Execution time of a kernel span under a different core count.

    Wave-quantised when the span carries task counts (a kernel's
    makespan is governed by its wave count — ``ceil(tasks / cores)``),
    proportional otherwise.
    """
    dur = span.dur_s
    tasks = span.args.get("tasks")
    waves_now = span.args.get("waves")
    if waves_now is None and tasks is not None and cores_now:
        waves_now = max(math.ceil(int(tasks) / int(cores_now)), 1)
    if tasks and waves_now:
        waves_new = max(math.ceil(int(tasks) / cores), 1)
        return dur * waves_new / max(int(waves_now), 1)
    if cores_now:
        return dur * int(cores_now) / cores
    raise TraceError(
        "cores what-if needs per-span task counts or a num_cores entry in "
        "the trace meta (re-export with a current `repro trace`)"
    )


def project(
    source,
    *,
    zero_halo: bool = False,
    interconnect_scale: float | None = None,
    cores: int | None = None,
) -> WhatIf:
    """Replay the trace's barrier structure under a hypothetical.

    - ``zero_halo``: halo exchanges are free (upper bound on any
      interconnect work);
    - ``interconnect_scale``: halo PCIe seconds divide by this factor
      (2.0 = twice the GB/s);
    - ``cores``: kernel execution rescaled to this Computation-Core
      count (wave-quantised via each span's task count).

    Hypotheticals compose; each shard's time is recomputed as the
    sharded executor computes the real one (execution plus
    :func:`~repro.hw.report.exposed_stream` of its ``dma`` span's
    transfer, in the chunks the span records), then the per-layer
    barrier (max over shards) and the sum over layers.
    """
    if interconnect_scale is not None and interconnect_scale <= 0:
        raise TraceError("interconnect_scale must be positive")
    if cores is not None and cores < 1:
        raise TraceError("cores must be >= 1")
    model = TraceModel.load(source)
    cores_now = model.meta.get("num_cores")
    parts: list[str] = []
    if zero_halo:
        parts.append("zero-halo")
    if interconnect_scale is not None:
        parts.append(f"interconnect x{interconnect_scale:g}")
    if cores is not None:
        parts.append(f"cores={cores}")
    label = ", ".join(parts) if parts else "baseline"
    #: what every transfer's seconds are divided by
    divisor = math.inf if zero_halo else interconnect_scale or 1.0

    kind = model.kind
    if kind == "sharded":
        transfers = model.select(cat="dma")
        baseline = projected = 0.0
        for layer, members in _layers(model):
            baseline += layer.dur_s
            times = [layer.dur_s] if not members else []
            for sp in members:
                dma = _halo_of(layer, transfers, f"{sp.track}/dma")
                exec_s = sp.dur_s
                if cores is not None:
                    exec_s = _scale_exec(sp, cores, cores_now)
                if dma is not None:
                    exec_s += float(exposed_stream(
                        dma.dur_s / divisor, dma.args.get("chunks", 1), exec_s
                    ))
                times.append(exec_s)
            projected += max(times)
        return WhatIf(name=label, baseline_s=baseline, projected_s=projected)
    if kind == "single":
        path = _single_path(model)
        baseline = sum(seg.dur_s for seg in path)
        projected = 0.0
        for seg in path:
            if seg.category == "kernel" and cores is not None:
                projected += _scale_exec(seg.span, cores, cores_now)
            else:
                projected += seg.dur_s
        return WhatIf(name=label, baseline_s=baseline, projected_s=projected)
    raise TraceError(
        f"what-if projections need an inference trace (sharded or "
        f"single-device), got a {kind!r} trace"
    )


#: ``key=value`` what-if tokens: key -> (project kwarg, parser, noun)
_VALUED_TOKENS = {
    "interconnect": ("interconnect_scale", float, "interconnect factor"),
    "cores": ("cores", int, "core count"),
}


def parse_what_if(spec: str) -> dict:
    """Parse one ``--what-if`` CLI token list into :func:`project` kwargs.

    ``spec`` is comma-separated: ``zero-halo``, ``interconnect=K`` and
    ``cores=N`` compose into one projection (e.g.
    ``interconnect=2,cores=16``).
    """
    kwargs: dict = {}
    for token in filter(None, (t.strip() for t in spec.split(","))):
        key, _, value = token.partition("=")
        if token == "zero-halo":
            kwargs["zero_halo"] = True
        elif key in _VALUED_TOKENS and value:
            name, parse, what = _VALUED_TOKENS[key]
            try:
                kwargs[name] = parse(value)
            except ValueError:
                raise TraceError(f"bad {what} in {token!r}")
        else:
            raise TraceError(
                f"unknown what-if token {token!r} (expected zero-halo, "
                f"interconnect=K or cores=N)"
            )
    if not kwargs:
        raise TraceError("empty what-if spec")
    return kwargs


# -- trace diffing ------------------------------------------------------
@dataclass(frozen=True)
class GroupDelta:
    """One ``(track, cat, name)`` span group's change between two traces."""

    track: str
    cat: str
    name: str
    count_new: int
    count_base: int
    total_new_s: float
    total_base_s: float

    @property
    def delta_s(self) -> float:
        """Positive = the new trace spends more time here."""
        return self.total_new_s - self.total_base_s

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.track, self.cat, self.name)

    def describe(self) -> str:
        return (
            f"{self.track}:{self.name} [{self.cat or 'uncategorised'}] "
            f"{self.total_base_s * 1e3:.4f} -> {self.total_new_s * 1e3:.4f} ms "
            f"({self.delta_s * 1e3:+.4f} ms, "
            f"{self.count_base} -> {self.count_new} spans)"
        )


@dataclass(frozen=True)
class TraceDiff:
    """Per-group deltas of two traces, largest |duration change| first."""

    groups: tuple[GroupDelta, ...]
    new_total_s: float
    base_total_s: float

    @property
    def delta_total_s(self) -> float:
        return self.new_total_s - self.base_total_s

    @property
    def max_abs_delta_s(self) -> float:
        return max((abs(g.delta_s) for g in self.groups), default=0.0)

    def is_zero(self, atol: float = 0.0) -> bool:
        """True when no group's duration or count moved beyond ``atol``."""
        return all(
            abs(g.delta_s) <= atol and g.count_new == g.count_base
            for g in self.groups
        )

    def regressions(self, min_delta_s: float = 0.0) -> list[GroupDelta]:
        """Groups where the new trace spends strictly more time."""
        return [g for g in self.groups if g.delta_s > min_delta_s]

    def format_report(self, top: int = 10) -> str:
        lines = [
            f"trace diff — total span time "
            f"{self.base_total_s * 1e3:.4f} -> {self.new_total_s * 1e3:.4f} ms "
            f"({self.delta_total_s * 1e3:+.4f} ms) across "
            f"{len(self.groups)} span group(s)"
        ]
        if self.is_zero():
            lines.append("  no deltas: the traces are identical group-wise")
            return "\n".join(lines)
        moved = [g for g in self.groups if g.delta_s != 0.0
                 or g.count_new != g.count_base]
        for g in moved[:top]:
            lines.append(f"  {g.describe()}")
        if len(moved) > top:
            rest = sum(g.delta_s for g in moved[top:])
            lines.append(
                f"  (other) {len(moved) - top} more group(s), "
                f"{rest * 1e3:+.4f} ms"
            )
        return "\n".join(lines)

    def to_dict(self, top: int | None = None) -> dict:
        groups = self.groups if top is None else self.groups[:top]
        return {
            "new_total_s": self.new_total_s,
            "base_total_s": self.base_total_s,
            "delta_total_s": self.delta_total_s,
            "is_zero": self.is_zero(),
            "groups": [dict(asdict(g), delta_s=g.delta_s) for g in groups],
        }


def _group(model: TraceModel) -> dict[tuple, list[float]]:
    acc: dict[tuple, list[float]] = {}
    for sp in model.spans:
        if sp.kind != "span":
            continue
        entry = acc.setdefault((sp.track, sp.cat, sp.name), [0, 0.0])
        entry[0] += 1
        entry[1] += sp.dur_s
    return acc


def diff_traces(new_source, base_source) -> TraceDiff:
    """Align two traces by ``(track, cat, name)`` and diff each group.

    Groups present on only one side appear with a zero count/duration on
    the other — a kernel that vanished (or a brand-new span site) is a
    delta, not a silent drop.  Diffing a trace against itself yields
    zero deltas everywhere.
    """
    new_model = TraceModel.load(new_source)
    base_model = TraceModel.load(base_source)
    new_groups = _group(new_model)
    base_groups = _group(base_model)
    deltas = []
    for key in sorted(set(new_groups) | set(base_groups)):
        track, cat, name = key
        n_count, n_total = new_groups.get(key, [0, 0.0])
        b_count, b_total = base_groups.get(key, [0, 0.0])
        deltas.append(GroupDelta(
            track=track, cat=cat, name=name,
            count_new=n_count, count_base=b_count,
            total_new_s=n_total, total_base_s=b_total,
        ))
    deltas.sort(key=lambda g: (-abs(g.delta_s), g.key))
    return TraceDiff(
        groups=tuple(deltas),
        new_total_s=float(sum(g.total_new_s for g in deltas)),
        base_total_s=float(sum(g.total_base_s for g in deltas)),
    )


# -- the trace-analyze report -------------------------------------------
@dataclass(frozen=True)
class TraceAnalysis:
    """Everything ``repro trace-analyze`` reports about one trace."""

    trace: str
    attribution: Attribution
    what_ifs: tuple[WhatIf, ...] = ()
    #: span-group diff against the ``baseline`` trace, ``top`` rows shown
    diff: TraceDiff | None = None
    baseline: str | None = None
    top: int = 10

    def format_report(self) -> str:
        lines = [self.attribution.format_report()]
        lines.extend(wi.describe() for wi in self.what_ifs)
        if self.diff is not None:
            lines.append(self.diff.format_report(top=self.top))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {
            "trace": self.trace,
            "attribution": self.attribution.to_dict(),
            "what_ifs": [wi.to_dict() for wi in self.what_ifs],
        }
        if self.diff is not None:
            payload["diff"] = dict(
                self.diff.to_dict(top=self.top), baseline=self.baseline
            )
        return payload


def analyze_trace(
    trace: str | Path,
    *,
    what_if: Sequence[str] = (),
    diff: str | Path | None = None,
    top: int = 10,
) -> TraceAnalysis:
    """Attribute an exported trace's critical path, project each
    ``what_if`` spec (:func:`parse_what_if` tokens) and, given a
    baseline trace, diff the span groups against it."""
    model = TraceModel.from_file(trace)
    return TraceAnalysis(
        trace=str(trace),
        attribution=attribute(model),
        what_ifs=tuple(
            project(model, **parse_what_if(spec)) for spec in what_if
        ),
        diff=(
            diff_traces(model, TraceModel.from_file(diff))
            if diff is not None else None
        ),
        baseline=None if diff is None else str(diff),
        top=top,
    )


# -- perf-diff attribution ----------------------------------------------
def attribution_lines(
    trace_path: str | Path,
    baseline_trace_path: str | Path | None = None,
    *,
    top: int = 3,
) -> list[str]:
    """Human-readable attribution for ``repro perf-diff --attribute``.

    Pairs a BENCH regression with its CI trace artifacts: when both a
    new and a baseline trace exist, the top span-group regressions name
    what moved; either way the new trace's critical-path attribution
    says where the latency lives now.  Missing/corrupt artifacts degrade
    to an explanatory line instead of failing the diff.
    """
    lines: list[str] = []
    trace_path = Path(trace_path)
    if not trace_path.is_file():
        return [
            f"(no trace artifact at {trace_path} — generate one with "
            f"`repro trace ... --out {trace_path}` to attribute regressions)"
        ]
    try:
        new_model = TraceModel.from_file(trace_path)
    except TraceError as exc:
        return [f"(cannot attribute: {exc})"]
    if baseline_trace_path is not None and Path(baseline_trace_path).is_file():
        try:
            diff = diff_traces(new_model, TraceModel.from_file(baseline_trace_path))
        except TraceError as exc:
            lines.append(f"(cannot diff traces: {exc})")
        else:
            offenders = diff.regressions()[:top]
            if offenders:
                lines.append("responsible span group(s), by time regressed:")
                lines.extend(f"  {g.describe()}" for g in offenders)
            else:
                lines.append(
                    "no span group regressed vs the baseline trace "
                    f"(largest |delta| {diff.max_abs_delta_s * 1e3:.4f} ms)"
                )
    try:
        lines.append(attribute(new_model).format_report())
    except TraceError as exc:
        lines.append(f"(no critical-path attribution: {exc})")
    return lines
