"""In-memory wall-clock spans recorded from the ledger's own call sites.

A span is one call into a layer's public function: name, layer, start,
end, the span that caused it, and the id of the operation it belongs to.
Spans live in a list until the run ends; ``write`` dumps them as JSON.
Nothing here touches ``src/`` -- spans inside the program are a later
change (ROADMAP item 1's ``wall_span``).

``NULL`` is the recorder of untraced runs: ``span()`` hands back one shared
no-op context manager, so traced and untraced operations execute the same
statements and differ only in what the recorder does.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    phase: str
    cell: str
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager closing one span (kept tiny: it runs inside ops)."""

    __slots__ = ("rec", "span")

    def __init__(self, rec: "Recorder", span: Span) -> None:
        self.rec = rec
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.rec._stack.pop()


class Recorder:
    """Collects spans; ``phase``/``cell``/``op`` label whatever opens next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.phase = "setup"
        self.cell = ""
        self.op: int | None = None

    def span(self, name: str, layer: str) -> _Open:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.op, self.phase, self.cell,
                 name, layer, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return _Open(self, s)

    # -- analysis -------------------------------------------------------
    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]

    def children_time(self) -> dict[int, float]:
        """Span id -> seconds covered by its direct children."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.dur
        return covered

    def self_time_by_layer(self, phase: str) -> dict[str, float]:
        """Layer -> self seconds (span minus its children) in one phase."""
        covered = self.children_time()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.phase == phase:
                out[s.layer] += s.dur - covered.get(s.id, 0.0)
        return dict(out)

    def residual_frac(self, phase: str = "timed") -> float:
        """Share of op-span time not covered by child spans.

        The ledger's ops are nothing but calls into the layers, so what
        the children leave uncovered is the ledger's own glue; the spans
        reconcile when it stays within 1% of the op spans.
        """
        covered = self.children_time()
        ops = [s for s in self.spans if s.name == "op" and s.phase == phase]
        total = sum(s.dur for s in ops)
        if total <= 0:
            return 0.0
        return sum(s.dur - covered.get(s.id, 0.0) for s in ops) / total

    def write(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["start"] = s.start - t0
            row["end"] = s.end - t0
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({**meta, "clock": "host perf_counter seconds from "
                       "the first span", "spans": rows}, fh)


def span_cost_s(samples: int = 20000) -> float:
    """Calibrated seconds one empty span costs (open, close, store)."""
    scratch = Recorder()
    t0 = time.perf_counter()
    for _ in range(samples):
        with scratch.span("calibrate", "trace"):
            pass
    return (time.perf_counter() - t0) / samples


class _Null:
    """Recorder of untraced runs: same calls, nothing recorded."""

    phase = "setup"
    cell = ""
    op = None
    _ctx = nullcontext()

    def span(self, name: str, layer: str):
        return self._ctx


NULL = _Null()
