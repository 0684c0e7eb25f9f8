"""Micro-batches, and the two policies for dispatching a closed one.

Requests sharing a ``batch_key`` (same compiled program, mapping strategy
*and* shard width) produce identical accelerator runs, so the server
executes each batch once: one K2P analysis pass, one set of kernel
launches, and a PCIe input transfer only if its device does not already
hold the program's inputs — amortized over every request in the batch.

Batching trades latency for that amortization with two knobs, the same
ones production inference servers expose:

``max_batch_size``
    a group closes the moment it reaches this many requests;

``max_wait_s``
    a group closes once its *oldest* request has waited this long
    (virtual seconds), so a lone request is never starved waiting for
    company that may not come.  The window is strict: a group whose
    deadline is *at* an arrival's instant is still open for that arrival,
    so ``max_wait_s=0`` coalesces same-instant arrivals.

Groups form, and close, in the one serve loop
(:mod:`repro.sched.scheduler`); :data:`POLICIES` names what that loop
does differently per ``InferenceServer(scheduler=...)`` value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.request import InferenceRequest


@dataclass
class MicroBatch:
    """A dispatch group of requests sharing one (program, strategy)."""

    key: tuple
    requests: list[InferenceRequest]
    #: arrival of the oldest request (when the group was opened)
    opened_s: float
    #: earliest time the batch may start (compile of its miss request done)
    ready_s: float
    #: the sweep's open order: 0 for its first batch, unique within a
    #: sweep only (every ``serve`` call numbers its batches from 0)
    batch_id: int

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class DispatchPolicy:
    """The two decisions the serve loop takes differently by policy."""

    name: str
    #: every request is scheduled as one class on the server's
    #: ``max_wait_s`` window: SLO tags are reporting-only (any tag is
    #: accepted) and there is no priority and no queue bound to act on
    one_class: bool
    #: a closed batch is booked *ahead and whole*: once the stream has
    #: been read, closed batches are booked in (ready time, close order),
    #: each as one ``input + latency`` reservation.  Nothing is ever in
    #: flight, so there is nothing to join or preempt, no backlog for an
    #: autoscaler to watch, and no in-flight accounting in the report
    book_ahead: bool


#: ``InferenceServer(scheduler=...)`` value -> what it means
POLICIES = {
    p.name: p
    for p in (
        DispatchPolicy("legacy", one_class=True, book_ahead=True),
        DispatchPolicy("continuous", one_class=False, book_ahead=False),
    )
}
