"""Trace exporters: Perfetto/Chrome ``trace.json`` and a text summary.

One trace format, read back by :class:`~repro.obs.analyze.TraceModel`,
and one terminal view of the same :class:`~repro.obs.tracer.Tracer`:

- :func:`to_perfetto` / :func:`write_trace` — the Chrome trace-event
  JSON the Perfetto UI (https://ui.perfetto.dev) loads directly: one
  *thread* per track (devices, shards, cores, host phases), complete
  ("X") events in microseconds, instant ("i") markers, and counter
  ("C") series for queue depth and halo bytes;
- :func:`flame_summary` — a flamegraph-style text rollup (time by
  category, hottest span names, per-track totals) for terminals.

:func:`validate_trace` is the schema gate CI runs (``repro trace
--validate``): it checks the trace-event invariants Perfetto relies on
and, when the trace carries reconciliation metadata (``otherData``),
that span duration sums still add up to the run's reported latency —
so exporter drift cannot ship silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracer import CounterSample, Span, Tracer

__all__ = [
    "TraceCheck",
    "export_run",
    "flame_summary",
    "to_perfetto",
    "validate_trace",
    "write_trace",
]

#: trace-event process id every track lives under
_PID = 1
#: relative tolerance of the span-sum reconciliation check
RECONCILE_RTOL = 0.01


def _tid_map(tracer: Tracer) -> dict[str, int]:
    """Stable track -> tid assignment (sorted, so diffs are readable)."""
    return {track: tid for tid, track in enumerate(tracer.tracks(), start=1)}


def to_perfetto(tracer: Tracer, *, meta: dict | None = None) -> dict:
    """Render the tracer's records as a Chrome/Perfetto trace dict.

    ``meta`` lands in ``otherData``; pass ``expected_total_s`` and
    ``reconcile_cats`` there to arm :func:`validate_trace`'s span-sum
    reconciliation.
    """
    tids = _tid_map(tracer)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for track, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": track},
        })
        events.append({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"sort_index": tid},
        })
    for sp in tracer.spans:
        event = {
            "name": sp.name,
            "cat": sp.cat or "span",
            "ph": "X" if sp.kind == "span" else "i",
            "ts": sp.start_s * 1e6,
            "pid": _PID,
            "tid": tids[sp.track],
        }
        if sp.kind == "span":
            event["dur"] = sp.dur_s * 1e6
        else:
            event["s"] = "t"  # thread-scoped instant
        if sp.args:
            event["args"] = dict(sp.args)
        events.append(event)
    for sample in tracer.counters:
        events.append({
            "name": f"{sample.track}:{sample.name}",
            "ph": "C",
            "ts": sample.t_s * 1e6,
            "pid": _PID,
            "tid": tids[sample.track],
            "args": {sample.name: sample.value},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_trace(
    tracer: Tracer, path: str | Path, *, meta: dict | None = None
) -> Path:
    """Write :func:`to_perfetto` output to ``path`` and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_perfetto(tracer, meta=meta)))
    return path


def _bar(fraction: float, width: int = 24) -> str:
    return "#" * max(int(round(fraction * width)), 0)


def flame_summary(tracer: Tracer, *, top: int = 12) -> str:
    """Flamegraph-style text rollup of where the traced time went:
    the ``top`` hottest span names, the rest in one ``(other)`` row."""
    if top < 0:
        raise ValueError(f"top must be >= 0, got {top}")
    spans = [sp for sp in tracer.spans if sp.kind == "span"]
    total = sum(sp.dur_s for sp in spans)
    lines = [
        f"trace summary — {len(spans)} spans / "
        f"{len(tracer.counters)} counter samples on "
        f"{len(tracer.tracks())} tracks, "
        f"{total * 1e3:.4f} ms total span time"
    ]
    if not spans:
        return "\n".join(lines)

    def rollup(key_fn) -> list[tuple[str, float, int]]:
        acc: dict[str, list] = {}
        for sp in spans:
            entry = acc.setdefault(key_fn(sp), [0.0, 0])
            entry[0] += sp.dur_s
            entry[1] += 1
        return sorted(
            ((k, v[0], v[1]) for k, v in acc.items()),
            key=lambda item: -item[1],
        )

    lines.append("  by category:")
    for cat, dur, count in rollup(lambda sp: sp.cat or "(uncategorised)"):
        frac = dur / total if total else 0.0
        lines.append(
            f"    {cat:<14}{count:>6} spans {dur * 1e3:>12.4f} ms "
            f"{frac * 100:>6.1f}%  {_bar(frac)}"
        )
    lines.append(f"  hottest spans (by name, top {top}):")
    by_name = rollup(lambda sp: sp.name)
    for name, dur, count in by_name[:top]:
        frac = dur / total if total else 0.0
        lines.append(
            f"    {name:<28}{count:>6}x {dur * 1e3:>12.4f} ms "
            f"{frac * 100:>6.1f}%"
        )
    tail = by_name[top:]
    if tail:
        dur = sum(item[1] for item in tail)
        count = sum(item[2] for item in tail)
        frac = dur / total if total else 0.0
        lines.append(
            f"    {f'(other: {len(tail)} names)':<28}{count:>6}x "
            f"{dur * 1e3:>12.4f} ms {frac * 100:>6.1f}%"
        )
    lines.append("  per track:")
    for track, dur, count in sorted(rollup(lambda sp: sp.track)):
        lines.append(
            f"    {track:<18}{count:>6} spans {dur * 1e3:>12.4f} ms"
        )
    return "\n".join(lines)


# -- validation ---------------------------------------------------------
_KNOWN_PHASES = {"X", "i", "C", "M"}


@dataclass
class TraceCheck:
    """What ``repro trace`` reports: a trace file, what
    :func:`validate_trace` found in it and, after a fresh run, the
    header and flame summary of the export."""

    path: Path
    errors: list[str]
    summary: list[str] = field(default_factory=list)

    def format_report(self) -> str:
        verdict = [f"invalid: {err}" for err in self.errors] or [
            f"trace validated: {self.path} is well-formed and its span "
            f"sums reconcile with the reported latency"
        ]
        return "\n".join(self.summary + verdict)


def export_run(
    tracer: Tracer,
    result,
    path: str | Path,
    *,
    top: int = 12,
    rtol: float = RECONCILE_RTOL,
) -> TraceCheck:
    """Write the trace of one traced run (``result.trace_meta()`` arms
    the reconciliation) and validate what was written."""
    flame = flame_summary(tracer, top=top)  # a bad ``top`` raises before any write
    meta = result.trace_meta()
    trace = to_perfetto(tracer, meta=meta)  # rendered once: written, then validated
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))
    summary = [
        f"{meta['model']} on {meta['dataset']}, {meta['shards']} shard(s): "
        f"latency {meta['expected_total_s'] * 1e3:.4f} ms",
        f"trace written to {path} — load it at https://ui.perfetto.dev",
        flame,
    ]
    return TraceCheck(path, validate_trace(trace, rtol=rtol), summary)


def read_events(trace: dict | str | Path) -> tuple[list, list, dict, list[str]]:
    """The spans (instants included), counter samples and ``otherData``
    of a trace-event dict or the path of one, and every trace-event
    invariant Perfetto relies on that it breaks: what
    :func:`validate_trace` reports, and why
    :class:`~repro.obs.analyze.TraceModel` refuses a trace."""
    if not isinstance(trace, dict):
        path = Path(trace)
        try:
            trace = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return [], [], {}, [f"cannot load trace from {path}: {exc}"]
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list) or not events:
        return [], [], {}, ["trace has no traceEvents list (or it is empty)"]
    tracks = {e.get("tid"): e.get("args", {}).get("name", f"tid{e.get('tid')}")
              for e in events if isinstance(e, dict) and e.get("ph") == "M"
              and e.get("name") == "thread_name"}
    spans: list[Span] = []
    counters: list[CounterSample] = []
    errors: list[str] = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        found = [] if event.get("pid") is not None else [f"event {i} ({ph}): missing pid"]
        if ph == "M":
            errors += found
            continue
        ts, dur, args = event.get("ts"), event.get("dur"), event.get("args") or {}
        if not isinstance(ts, (int, float)) or ts < 0:
            found.append(f"event {i} ({ph}): bad ts {ts!r}")
        if not event.get("name"):
            found.append(f"event {i} ({ph}): missing name")
        if ph == "X" and (not isinstance(dur, (int, float)) or dur < 0):
            found.append(f"event {i} (X): bad dur {dur!r}")
        if ph == "C" and not (isinstance(args, dict)
                              and all(isinstance(v, (int, float)) for v in args.values())):
            found.append(f"event {i} (C): args must be numeric values")
        errors += found
        track = tracks.get(event.get("tid"), f"tid{event.get('tid')}")
        if found:
            continue
        if ph == "C":
            counters += [CounterSample(track, name, ts * 1e-6, float(value))
                         for name, value in args.items()]
        else:
            spans.append(Span(track, str(event["name"]), str(event.get("cat", "") or ""),
                              ts * 1e-6, dur * 1e-6 if ph == "X" else 0.0, dict(args),
                              "span" if ph == "X" else "instant"))
    if not any(sp.kind == "span" for sp in spans):
        errors.append("trace has no complete ('X') span events")
    unnamed = {e.get("tid") for e in events if isinstance(e, dict)
               and e.get("ph") in ("X", "i")} - set(tracks)
    if unnamed:
        errors.append(
            f"tids {sorted(unnamed)} carry events but have no thread_name "
            f"metadata (Perfetto would show anonymous tracks)"
        )
    return spans, counters, dict(trace.get("otherData") or {}), errors


def validate_trace(
    trace: dict | str | Path, *, rtol: float = RECONCILE_RTOL
) -> list[str]:
    """Check a ``trace.json`` against the trace-event invariants.

    Accepts the trace dict or a path to one.  Returns a list of error
    strings — empty means the trace is structurally sound
    (:func:`read_events`) *and* (when ``otherData`` carries
    ``expected_total_s`` + ``reconcile_cats``) the span duration sums
    reconcile with the run's reported latency to within ``rtol``
    (default :data:`RECONCILE_RTOL`).
    """
    if rtol <= 0:
        raise ValueError(f"rtol must be positive, got {rtol}")
    spans, _, meta, errors = read_events(trace)
    expected = meta.get("expected_total_s")
    cats = meta.get("reconcile_cats")
    if expected is not None and cats:
        span_sum = sum(sp.dur_s for sp in spans if sp.kind == "span" and sp.cat in set(cats))
        expected = float(expected)
        tol = max(abs(expected) * rtol, 1e-12)
        if abs(span_sum - expected) > tol:
            errors.append(
                f"span-sum reconciliation failed: cats {sorted(cats)} sum to "
                f"{span_sum:.9f} s but the run reported {expected:.9f} s "
                f"(tolerance {rtol:.2%})"
            )
    return errors
