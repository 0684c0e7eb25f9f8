"""Span tracing on the virtual clock: the substrate of ``repro.obs``.

Everything the simulator models already *is* an event timeline — core
tasks (:class:`~repro.runtime.scheduler.TimelineEvent`), pool bookings
(:class:`~repro.engine.pool.DispatchEvent`), per-layer shard barriers —
but each layer kept its own private records.  The :class:`Tracer`
collects them all as one stream of :class:`Span` records stamped in
**virtual seconds** on named *tracks*, so one run can be exported to a
Perfetto/Chrome ``trace.json`` or a flamegraph-style text summary
(:mod:`repro.obs.export`).

Track naming convention (one Perfetto thread per track)::

    host/compile      compiler phases (parse -> profile -> partition)
    timeline          one layer span per kernel: the barrier its lanes meet at
    dev0              the one lane of an unsharded run: per kernel its
                      halo / kernel / exposed-analysis / barrier-wait spans
                      end to end, with the kernel's wave spans inside
    shard2            the same spans for one shard's lane of a planned run
    shard2/dma        the lane's whole halo transfers
    shard2/analyzer   its per-kernel K2P analysis (soft-processor seconds)
    shard2/core5      individual task executions on one core of the lane
    pool/dev1         batch bookings on the accelerator pool
    serve             enqueue/batch-form/dispatch events + queue depth

Tracing is **default-off**: every instrumented call site holds a
module-level :data:`NULL_TRACER` whose ``enabled`` flag gates all work,
so the disabled path costs one attribute check per *kernel* (never per
task — the runtime inner loop is untouched) and bit-exactness is
trivially preserved.  The ``obs_overhead`` bench specs (``repro bench``)
enforce the <= 2% disabled-overhead budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol

__all__ = ["CounterSample", "NULL_TRACER", "NullTracer", "Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One named interval on one track of the virtual timeline."""

    track: str
    name: str
    #: span category ("kernel", "task", "wave", "halo", "barrier",
    #: "compile", "analysis", "exposed", "dispatch", "layer", ...)
    cat: str
    start_s: float
    dur_s: float
    #: free-form attributes (task counts, bytes, cache keys, ...)
    args: dict = field(default_factory=dict)
    #: "span" for intervals, "instant" for zero-duration markers
    kind: str = "span"

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


@dataclass(frozen=True)
class CounterSample:
    """One sample of a time-varying quantity (queue depth, bytes, ...)."""

    track: str
    name: str
    t_s: float
    value: float


class _Records(Protocol):
    @property
    def spans(self) -> Sequence[Span]: ...

    @property
    def counters(self) -> Sequence[CounterSample]: ...


def _matches(sp: Span, cat: str | None, track: str | None) -> bool:
    return (cat is None or sp.cat == cat) and (
        track is None or sp.track == track or sp.track.startswith(track + "/")
    )


class SpanQueries:
    """The span queries of anything holding ``spans`` and ``counters``:
    one body for a live :class:`Tracer` and a trace loaded back as a
    :class:`~repro.obs.analyze.TraceModel`."""

    def tracks(self: _Records) -> tuple[str, ...]:
        """Every track that received at least one record, sorted."""
        seen = {sp.track for sp in self.spans}
        seen.update(c.track for c in self.counters)
        return tuple(sorted(seen))

    def select(
        self: _Records, *, cat: str | None = None, track: str | None = None
    ) -> list[Span]:
        """Spans filtered by category and/or track prefix."""
        return [sp for sp in self.spans if _matches(sp, cat, track)]

    def total_s(
        self: _Records, *, cat: str | None = None, track: str | None = None
    ) -> float:
        """Sum of span durations under the given filters."""
        return float(sum(sp.dur_s for sp in self.spans if _matches(sp, cat, track)))


class NullTracer(SpanQueries):
    """The disabled tracer: every method is a no-op.

    Instrumented code guards span construction with ``if
    tracer.enabled:`` so the disabled path never allocates; the methods
    still exist so un-guarded call sites stay correct.
    """

    enabled = False

    def span(self, track, name, start_s, end_s, *, cat="", **args) -> None:
        return None

    def instant(self, track, name, t_s, *, cat="", **args) -> None:
        return None

    def counter(self, track, name, t_s, value) -> None:
        return None

    def clear(self) -> None:
        return None

    @property
    def spans(self) -> tuple:
        return ()

    @property
    def counters(self) -> tuple:
        return ()


#: the shared disabled tracer every instrumented site defaults to
NULL_TRACER = NullTracer()


class Tracer(SpanQueries):
    """Collects :class:`Span` / :class:`CounterSample` records.

    Times are virtual-clock (or, for compiler phases, host wall-clock)
    **seconds**; negative durations are clamped to zero rather than
    raised so float jitter at barriers cannot kill a traced run.

    ``task_spans`` gates the finest granularity (one span per core task
    execution) — per-kernel and per-wave spans are always emitted.  Large
    graphs produce tens of thousands of task spans; turning them off
    keeps ``trace.json`` loadable while preserving the structure the
    ROADMAP optimisations need.
    """

    enabled = True

    def __init__(self, *, task_spans: bool = True) -> None:
        self.task_spans = task_spans
        self._spans: list[Span] = []
        self._counters: list[CounterSample] = []

    # -- recording ------------------------------------------------------
    def span(
        self,
        track: str,
        name: str,
        start_s: float,
        end_s: float,
        *,
        cat: str = "",
        **args,
    ) -> Span:
        """Record the interval [start_s, end_s] on ``track``."""
        sp = Span(
            track=track,
            name=name,
            cat=cat,
            start_s=float(start_s),
            dur_s=max(float(end_s) - float(start_s), 0.0),
            args=args,
        )
        self._spans.append(sp)
        return sp

    def instant(
        self, track: str, name: str, t_s: float, *, cat: str = "", **args
    ) -> Span:
        """Record a zero-duration marker at ``t_s`` on ``track``."""
        sp = Span(
            track=track,
            name=name,
            cat=cat,
            start_s=float(t_s),
            dur_s=0.0,
            args=args,
            kind="instant",
        )
        self._spans.append(sp)
        return sp

    def counter(
        self, track: str, name: str, t_s: float, value: float
    ) -> CounterSample:
        """Sample a time-varying value at ``t_s`` on ``track``."""
        sample = CounterSample(
            track=track, name=name, t_s=float(t_s), value=float(value)
        )
        self._counters.append(sample)
        return sample

    # -- access ---------------------------------------------------------
    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._spans)

    @property
    def counters(self) -> tuple[CounterSample, ...]:
        return tuple(self._counters)

    def clear(self) -> None:
        """Drop every recorded span/counter (reuse between sweeps)."""
        self._spans.clear()
        self._counters.clear()
