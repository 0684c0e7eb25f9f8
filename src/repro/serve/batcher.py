"""Micro-batches: the unit the serve loop forms, closes and dispatches.

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

Groups form, close and dispatch in the one serve loop
(:mod:`repro.sched.scheduler`), where a request may also join an
execution of its ``batch_key`` already in flight, and where a group,
forming or closed, boards the execution of its ``batch_key`` that starts
ahead of it instead of waiting to run the same program again: neither
knob bounds an execution's size, only a batch's.
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
