"""Property test over the serve loop's state space.

Tiny streams (at most 12 requests over two programs, shard widths 1 and
2, two SLO classes) through the serve loop, with and without an
autoscaler and admission bounds tight enough to shed and defer, and
through the book-ahead oracle (``tests/book_ahead.py``).
Whatever the stream, a sweep must account for every request exactly
once, keep each response's phases summing to its latency, never book
one device for two things at once, send a device each input slice at
most once, and charge no response more than a device holding nothing
would.  And the serve loop must book every execution's segments exactly
once, at the chained sums of their seconds: a device's busy seconds are
the chained sum of what it ran, a joiner starts at a layer boundary of
its execution, and a preempted execution's reservation ends at the
boundary where it paused.  Nor may a response finish after a
later-arriving response of its program (its ``batch_key``), since a
queued batch boards the execution of its program that starts.  Two
exemptions: a response whose class is outranked by the class the later
one's execution runs at (its own may be preempted for that one), and a
response that admission parked (a join skips the queue bound).
"""

from __future__ import annotations

import functools
import itertools
from unittest import mock

from book_ahead import serve_book_ahead
from conftest import make_tiny_config, serving
from hypothesis import example, given, settings, strategies as st

from repro.hw.memory import pcie_transfer_seconds
from repro.sched import AdmissionController, PoolAutoscaler, SLOPolicy
from repro.sched.scheduler import ContinuousScheduler
from repro.serve import InferenceRequest, estimate_service_s

SCALE = 0.15
SEEDS = (3, 4)
POLICY = SLOPolicy.default(interactive_queue_depth=2, bulk_queue_depth=3)


def request(**overrides) -> InferenceRequest:
    base = dict(model="GCN", dataset="CO", scale=SCALE)
    base.update(overrides)
    return InferenceRequest(**base)


@functools.lru_cache(maxsize=None)
def warm_serving(scheduler, autoscale, max_batch_size, max_wait_s):
    """One engine and its sweeps per configuration, ``(engine, serve)``,
    every program compiled and every execution simulated, so an example
    costs one warm sweep."""
    continuous = scheduler == "continuous"
    engine, serve = serving(
        make_tiny_config(), pool_size=3,
        max_batch_size=max_batch_size, max_wait_s=max_wait_s,
        slo_policy=POLICY,
        admission=AdmissionController(POLICY) if continuous else None,
        autoscaler=PoolAutoscaler(
            min_devices=1, scale_up_queue_per_device=2.0,
        ) if autoscale else None,
    )
    for seed in SEEDS:
        for shards in (1, 2):
            serve([request(seed=seed, shards=shards)])
    return engine, serve


configurations = st.tuples(
    st.sampled_from([("legacy", False), ("continuous", False),
                     ("continuous", True)]),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([0.0, 2e-4]),
)
#: (program, shard width, class, gap to the previous arrival in units of
#: one warm execution: 0 ties, small gaps land mid-execution)
arrivals = st.lists(
    st.tuples(st.sampled_from(SEEDS), st.sampled_from([1, 2]),
              st.sampled_from(["interactive", "bulk"]),
              st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0])),
    min_size=1, max_size=12,
)


def timed(engine, stream) -> list:
    exec_s = estimate_service_s(engine, request(seed=SEEDS[0]))
    requests, t = [], 0.0
    for seed, shards, slo, gap in stream:
        t += gap * exec_s
        requests.append(request(seed=seed, shards=shards, slo=slo,
                                arrival_s=t))
    return requests


@given(configurations, arrivals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_sweep_accounts_for_every_request(configuration, stream):
    (scheduler, autoscale), max_batch_size, max_wait_s = configuration
    engine, serve = warm_serving(scheduler, autoscale, max_batch_size, max_wait_s)
    requests = timed(engine, stream)

    report = (serve(requests) if scheduler == "continuous"
              else serve_book_ahead(engine, requests, **serve.keywords))

    # exactly one of response or shed, and nothing left parked
    answered = [r.request_id for r in report.responses]
    assert len(set(answered)) == len(answered)
    assert set(answered) <= {r.request_id for r in requests}
    assert len(answered) + report.shed_requests == len(requests)
    assert report.num_requests == len(answered)
    for r in report.responses:
        assert abs(r.latency_s - (r.queue_s + r.execute_s + r.barrier_s)) \
            <= 1e-12
        assert r.start_s >= r.arrival_s and r.finish_s >= r.start_s
    # no device is double-booked on the pool timeline
    for device in range(engine.pool.num_devices):
        booked = sorted(
            (e.start, e.end) for e in engine.pool.events
            if e.device == device
        )
        for (_, end), (start, _) in zip(booked, booked[1:]):
            assert end <= start + 1e-12
    # at most one input transfer per (device, residency key) a sweep
    # booked: slice i of a batch goes to the i-th lowest of its devices
    sent = {r.request_id: r for r in requests}
    program = {r.batch_id: (sent[r.request_id].seed, r.shards) for r in report.responses}
    members: dict[int, set] = {}
    for e in engine.pool.events:
        members.setdefault(e.batch_id, set()).add(e.device)
    held = {(d, *program[b], sorted(devices).index(d))
            for b, devices in members.items() for d in devices}
    assert report.pcie_transfers <= len(held)
    # and no response is charged more than on a device holding nothing,
    # the seconds a preempting batch ran on its device aside
    for r in report.responses:
        preempted_s = sum(
            min(e.end, r.finish_s) - max(e.start, r.start_s)
            for e in engine.pool.events
            if e.device == r.device and e.batch_id != r.batch_id
            and e.start < r.finish_s and e.end > r.start_s
        )
        estimate = estimate_service_s(
            engine, request(seed=sent[r.request_id].seed, shards=r.shards))
        assert r.service_s - preempted_s <= estimate + 1e-12


def chained(start: float, seconds: list) -> list:
    """``start`` and every partial sum after it, added in order."""
    return list(itertools.accumulate(seconds, initial=start))


@given(st.tuples(st.booleans(), st.sampled_from([1, 2, 4]),
                 st.sampled_from([0.0, 2e-4])), arrivals)
# bulk runs on every device when an interactive request of a program not
# in flight arrives: it preempts the unsharded one at a layer boundary,
# and a later bulk request joins the paused execution at its resume
@example((False, 1, 0.0), [(3, 1, "bulk", 0.0), (4, 2, "bulk", 0.0),
                           (4, 1, "interactive", 0.05), (3, 1, "bulk", 0.3)])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_execution_books_its_segments_once(configuration, stream):
    autoscale, max_batch_size, max_wait_s = configuration
    engine, serve = warm_serving("continuous", autoscale, max_batch_size, max_wait_s)
    requests = timed(engine, stream)
    pool = engine.pool
    # (devices, batch id, start, segments, busy seconds, end) of every booking
    booked = []
    book = pool.book

    def recording(devices, segments, ready_s=0.0, *, busy_s=None, **kwargs):
        start, end = book(devices, segments, ready_s, busy_s=busy_s, **kwargs)
        booked.append((list(devices), kwargs["batch_id"], start, list(segments),
                       busy_s, end))
        return start, end

    # batch id -> the input seconds the execution was charged
    inputs = {}
    input_s = ContinuousScheduler._input_s

    def charged(sched, group, devices):
        inputs[group.batch_id] = input_s(sched, group, devices)
        return inputs[group.batch_id]

    with (mock.patch.object(pool, "book", recording),
          mock.patch.object(ContinuousScheduler, "_input_s", charged)):
        report = serve(requests)

    # a device's busy seconds: the chained sum of what it was charged
    for device in range(pool.num_devices):
        charges = [s for devices, _, _, segments, busy_s, _ in booked if device in devices
                   for s in (segments if busy_s is None else [busy_s[devices.index(device)]])]
        assert chained(0.0, charges)[-1] == pool.busy[device]
    sent = {r.request_id: r for r in requests}
    executions: dict[int, list] = {}
    for r in report.responses:
        executions.setdefault(r.batch_id, []).append(r)
    spans = {batch: [b for b in booked if b[1] == batch] for batch in executions}
    # one booking per span: the run from the start or a resume to a pause
    # or the finish, on every member at once
    assert len(booked) == len(executions) + report.preemptions
    for batch, members in executions.items():
        first = sent[members[0].request_id]
        program = engine.cache.peek(first.program_key(engine.config))
        run = engine.execute(program, first.strategy, first.shards, ready_s=0.0)
        assert inputs[batch] in (0.0, pcie_transfer_seconds(program.input_bytes(), engine.config))
        layers = [inputs[batch], *map(float, run.segments_s)]
        founder = next(r for r in members if not r.joined)
        # one device is booked a segment per layer (the input first), so a
        # pause can cut it at any boundary; lanes, which nothing cuts, are
        # held for input + latency, their run's barrier clock
        lanes = founder.shards > 1
        segments = [inputs[batch] + run.latency_s] if lanes else layers
        assert [s for *_, seconds, _, _ in spans[batch] for s in seconds] == segments
        boundaries = []
        for devices, _, start, seconds, busy_s, end in spans[batch]:
            assert devices[0] == founder.device and len(devices) == founder.shards
            assert chained(start, seconds)[-1] == end
            # join points: the chained sums of the layers the span ran
            boundaries += chained(start, layers if lanes else seconds)
            # a member is busy for its lane's work plus its input share
            assert busy_s == ([b + inputs[batch] / founder.shards
                               for b in run.shard_busy_s] if lanes else None)
        # a pause ends a span at a boundary, where the preemptor starts on
        # its device, and the next span resumes the rest
        on_device = [b for b in booked if founder.device in b[0]]
        for span in spans[batch][:-1]:
            preemptor = on_device[on_device.index(span) + 1]
            assert preemptor[1] != batch and preemptor[2] == span[5]
        for r in members:
            assert r.finish_s == spans[batch][-1][5]
            if r.joined:
                assert r.start_s in boundaries


@given(st.tuples(st.booleans(), st.sampled_from([1, 2, 4]),
                 st.sampled_from([0.0, 2e-4])), arrivals)
# two batches of one program queue behind another program on the one
# active device; the second boards the execution the first starts, which
# a later request joins (at a parent of this invariant, it ran after it)
@example((True, 2, 0.0), [(4, 1, "bulk", 0.0), (4, 1, "bulk", 0.0),
                          (3, 1, "bulk", 0.05), (3, 1, "bulk", 0.0),
                          (3, 1, "bulk", 0.05), (3, 1, "bulk", 0.0),
                          (3, 1, "bulk", 0.3)])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_no_response_finishes_after_a_later_arrival_of_its_program(configuration, stream):
    autoscale, max_batch_size, max_wait_s = configuration
    engine, serve = warm_serving("continuous", autoscale, max_batch_size, max_wait_s)
    requests = timed(engine, stream)
    report = serve(requests)

    sent = {r.request_id: r for r in requests}
    priority = {c.name: c.priority for c in POLICY.classes}
    # the class an execution runs at: its founders'
    runs_at = {r.batch_id: priority[r.slo] for r in report.responses if not r.joined}
    by_key: dict[tuple, list] = {}
    for r in report.responses:
        by_key.setdefault((sent[r.request_id].seed, r.shards), []).append(r)
    for members in by_key.values():
        for a, b in itertools.permutations(members, 2):
            if a.arrival_s < b.arrival_s and a.finish_s > b.finish_s:
                # overtaken only by an execution that outranks its class
                # (its own may be preempted for it), or while parked by
                # admission (a join is exempt from the queue bound)
                assert priority[a.slo] < runs_at[b.batch_id] or a.deferred
