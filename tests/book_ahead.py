"""Whole-batch book-ahead: the serve loop's retired second dispatch policy,
kept as a test oracle.

Until the serve loop became continuous batching only, ``InferenceServer``
took a ``scheduler=`` argument, and its default, ``"legacy"``, scheduled
every request as one class on the server's ``max_wait_s`` window (any SLO
tag accepted, no priority, no queue bound) and booked each closed batch
*ahead and whole*: once the stream had been read, in (ready time, close
order), as one ``input + latency`` booking on the device that can start
it first (``AcceleratorPool.peek_device``) or, sharded, on the N that can
(:func:`peek_group`).  Nothing was ever in flight, so nothing joined and
nothing was preempted, and the report held no ``serve.sched.*`` metrics.

:class:`BookAhead` is that policy, written over the one loop: the same
arrivals, lookups, host clock and batch windows, with the dispatch of a
closed batch replaced.  Its sweeps reproduce the ``legacy/*`` cells of
``tests/test_serve_golden.py`` bit for bit, recorded when the policy was
still in ``src/``; ``benchmarks/bench_continuous_batching.py`` runs it as
the comparison arm continuous batching is graded against.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields, replace
from unittest import mock

import numpy as np

from repro.sched import AdmissionController, SLOClass, SLOPolicy
from repro.sched import scheduler as loop
from repro.serve import ServingReport
from repro.serve.request import ResponseColumns

__all__ = ["BookAhead", "book_ahead", "peek_group", "serve_book_ahead"]

#: what every request is scheduled as: no priority to order by, no queue
#: bound to shed at, the server's window
ONE_CLASS = SLOPolicy((SLOClass(name="all", priority=0),))


def peek_group(pool, num_devices: int, ready_s: float) -> tuple[list[int], float]:
    """The ``num_devices`` active devices of ``pool`` that can start a group
    ready at ``ready_s`` first (ascending; equal starts keep the lower
    number), and their common start."""
    if not 1 <= num_devices <= pool.num_active:
        raise ValueError(
            f"group needs {num_devices} device(s), pool has "
            f"{pool.num_active} active of {pool.num_devices}"
        )
    starts = np.maximum(pool.available[: pool.num_active], ready_s)
    order = np.argsort(starts, kind="stable")
    chosen = sorted(int(d) for d in order[:num_devices])
    return chosen, float(starts[chosen].max())


@dataclass
class BookAheadReport(ServingReport):
    """A report as the policy wrote it: its dictionary names the policy."""

    def to_dict(self) -> dict:
        items = list(super().to_dict().items())
        at = [k for k, _ in items].index("goodput_rps")
        return dict(items[:at] + [("scheduler", "legacy")] + items[at:])


class BookedAnswers(ResponseColumns):
    """Answers whose service is the booking's length, which ``finish -
    start`` may round away from."""

    def __init__(self) -> None:
        super().__init__()
        #: batch id -> the seconds its one reservation booked
        self.service_s: dict[int, float] = {}

    def _build(self, execution, lo, hi):
        service_s = self.service_s[execution[3]]
        for response in super()._build(execution, lo, hi):
            yield replace(response, service_s=service_s)

    def arrays(self):
        columns = super().arrays()
        columns["service_s"] = np.repeat([self.service_s[e[3]] for e in self.executions],
                                         [e[1] for e in self.executions]).astype(float)
        return columns


class BookAhead(loop.ContinuousScheduler):
    """The serve loop with every closed batch booked ahead and whole."""

    def __init__(self, server) -> None:
        super().__init__(server)
        self.classes = ONE_CLASS
        self.admission = AdmissionController(ONE_CLASS)
        self.answers = BookedAnswers()
        #: (ready time, close order, group) of every closed batch
        self._booked: list[tuple] = []

    def _class_of(self, req):
        return ONE_CLASS.classes[0]

    def _close_group(self, group, now: float) -> None:
        del self._groups[group.key]
        self._waiting -= group.batch.size
        self._booked.append((max(group.batch.ready_s, now), len(self._booked), group))

    def _end_of_stream(self, t: float) -> None:
        # booked once the stream has been read, in ready order, so a
        # batch stuck waiting on a compile never blocks an idle device
        # from taking later-closed but earlier-ready work
        super()._end_of_stream(t)
        for ready_s, _, group in sorted(self._booked, key=lambda b: b[:2]):
            self._book_whole(group, ready_s)
        self._booked.clear()

    def _book_whole(self, group, ready_s: float) -> None:
        """One reservation for the whole execution."""
        pool, batch = self.pool, group.batch
        run = self._prepare(batch, ready_s)
        shards = run.num_shards
        # the device(s) that can start it first
        devices = (peek_group(pool, shards, ready_s)[0] if shards > 1
                   else [pool.peek_device(ready_s)])
        input_s = self._input_s(batch, devices)
        service_s = input_s + run.latency_s
        # every shard device is held from the common start to the last
        # per-layer barrier; each is busy for its own work plus its share
        # of the input transfer
        start, end = pool.book(
            devices, [service_s], ready_s,
            busy_s=[b + input_s / shards for b in run.shard_busy_s] or None,
            batch_id=batch.batch_id, batch_size=batch.size,
        )
        self.answers.service_s[batch.batch_id] = service_s
        self.answers.add(
            [(r, start, False, group.members[r.request_id][1], False) for r in batch.requests],
            end, batch.batch_id, devices[0], shards, run.barrier_s, run.total_cycles,
            run.served_output() if self.server.return_outputs else None)

    def run(self, requests: list) -> BookAheadReport:
        report = super().run(requests)
        # nothing was in flight: no ``serve.sched.*`` metric existed
        report.metrics = {
            table: {k: v for k, v in values.items() if not k.startswith("serve.sched.")}
            for table, values in report.metrics.items()
        }
        report.max_queue_depth = 0
        return BookAheadReport(**{f.name: getattr(report, f.name) for f in fields(report)})


def serve_book_ahead(server, requests: list) -> BookAheadReport:
    """One sweep of ``requests`` through ``server``, booked ahead."""
    return BookAhead(server).run(requests)


@contextlib.contextmanager
def book_ahead():
    """Every ``InferenceServer.serve`` sweep in the block is booked ahead
    (for callers that build their servers themselves, such as
    ``serving_comparison``)."""
    with mock.patch.object(loop, "ContinuousScheduler", BookAhead):
        yield
