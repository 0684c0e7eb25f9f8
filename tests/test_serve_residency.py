"""A device keeps what it was sent.

A served batch pays the PCIe transfer of its program's inputs only where
a device it is booked on does not already hold them: received earlier in
the same sweep, keyed by (program key, shards, slice index), never
evicted.  Each ``serve`` call starts with empty devices.
"""

from __future__ import annotations

import pytest
from book_ahead import serve_book_ahead
from conftest import make_tiny_config, serving

from repro.datasets import load_dataset
from repro.dyngraph import GraphDelta, MutableGraph
from repro.hw.memory import pcie_transfer_seconds
from repro.serve import InferenceRequest, MutationRequest, estimate_service_s

SCALE = 0.15


def request(**overrides) -> InferenceRequest:
    base = dict(model="GCN", dataset="CO", scale=SCALE, seed=3)
    base.update(overrides)
    return InferenceRequest(**base)


def tiny(**overrides) -> tuple:
    """A tiny engine and its sweeps, ``(engine, serve)``: one request a
    batch, closed the instant it arrives."""
    base = dict(pool_size=1, max_batch_size=1, max_wait_s=0.0)
    base.update(overrides)
    return serving(make_tiny_config(), **base)


def recorded(engine, req: InferenceRequest):
    """The replayed record of the request's run."""
    req = engine.resolve_request(req)
    program = engine.cache.peek(req.program_key(engine.config))
    return engine.execute(program, req.strategy, req.shards, ready_s=0.0)


def latency_s(engine, req: InferenceRequest) -> float:
    """The run's latency: no PCIe."""
    return recorded(engine, req).latency_s


def layers(engine, req: InferenceRequest) -> list[float]:
    """The run's per-layer segments (seconds)."""
    return [float(s) for s in recorded(engine, req).segments_s]


def served_s(start: float, *segments: float) -> float:
    """The service a response reports for an execution started at
    ``start``: its finish, the chained sum of its segments from the
    start, less the start."""
    finish = start
    for seconds in segments:
        finish += seconds
    return finish - start


def transfer_s(engine, req: InferenceRequest) -> float:
    req = engine.resolve_request(req)
    program = engine.cache.peek(req.program_key(engine.config))
    return pcie_transfer_seconds(program.input_bytes(), engine.config)


def by_id(report) -> dict:
    return {r.request_id: r for r in report.responses}


def warm(serve, *requests: InferenceRequest) -> None:
    """Compile and record every program, so a sweep's batches are ready
    the instant they arrive."""
    serve(list(requests))


@pytest.mark.parametrize("scheduler", ["legacy", "continuous"])
def test_first_batch_pays_the_estimate_and_the_second_only_the_run(scheduler):
    """Under the serve loop and under the book-ahead oracle."""
    engine, serve = tiny()
    first, second = request(arrival_s=0.0), request(arrival_s=1.0)
    if scheduler == "legacy":
        report = serve_book_ahead(engine, [first, second], **serve.keywords)
    else:
        report = serve([first, second])
    served = by_id(report)
    estimate, run_s = estimate_service_s(engine, request()), latency_s(engine, request())
    assert estimate == transfer_s(engine, request()) + run_s
    if scheduler == "legacy":  # one reservation: the very same sum
        assert served[first.request_id].service_s == estimate
        assert served[second.request_id].service_s == run_s
    else:  # the chained sum of the segments on the clock
        transfer, segments = transfer_s(engine, request()), layers(engine, request())
        start = served[first.request_id].start_s  # the cold compile's end
        assert served[first.request_id].service_s == served_s(start, transfer, *segments)
        assert served[second.request_id].service_s == served_s(1.0, 0.0, *segments)
    assert (report.pcie_transfers, report.pcie_s, report.pcie_saved_s) == (
        1, transfer_s(engine, request()), transfer_s(engine, request()))
    assert report.metrics["counters"]["serve.pcie_transfers"] == 1
    assert "PCIe input        : 1 transfers" in report.format_report()


def test_a_batch_on_the_other_device_pays():
    engine, serve = tiny(pool_size=2)
    warm(serve, request())
    transfer, segments = transfer_s(engine, request()), layers(engine, request())
    # b arrives in a's final layer, too late to join it: a second
    # execution of the same program, on the other device
    last = served_s(0.0, transfer, *segments[:-1])
    a, b, c = (request(arrival_s=t) for t in (0.0, last + segments[-1] / 2, 1.0))
    report = serve([a, b, c])
    served = by_id(report)
    assert report.joined_requests == 0
    assert {served[a.request_id].device, served[b.request_id].device} == {0, 1}
    for r in (a, b):
        assert served[r.request_id].service_s == served_s(r.arrival_s, transfer, *segments)
    assert served[c.request_id].service_s == served_s(1.0, 0.0, *segments)
    assert report.pcie_transfers == 2


def test_the_next_sweep_pays_again():
    engine, serve = tiny()
    stream = [request(arrival_s=0.0), request(arrival_s=1.0)]
    warm(serve, request())  # a cold sweep starts at the compile's host-timed end
    first, second = serve(stream), serve(stream)
    assert [r.service_s for r in first.responses] == [r.service_s for r in second.responses]
    assert second.responses[0].service_s == served_s(
        0.0, transfer_s(engine, request()), *layers(engine, request()))
    assert second.pcie_transfers == 1


def test_a_sharded_batch_pays_unless_every_member_holds_its_slice():
    """Slice ``i`` of a 2-shard batch goes to the ``i``-th lowest device
    of its group; holding the other slice of the same program is not
    holding this one."""
    engine, serve = tiny(pool_size=3)
    wide, long_, longer = request(shards=2), request(model="GIN"), request(model="SGC")
    warm(serve, wide, long_, longer)
    long_s = estimate_service_s(engine, long_)
    # B and D outlast A, and D outlasts B
    assert estimate_service_s(engine, longer) > long_s > estimate_service_s(engine, wide)
    stream = [
        request(model="GIN", arrival_s=0.0),            # B: dev0, long
        request(shards=2, arrival_s=0.0),               # A: dev1 slice 0, dev2 slice 1
        request(model="SGC", arrival_s=0.0),            # D: dev1 after A, longer
        request(shards=2, arrival_s=long_s),            # C: dev0 lacks slice 0
        request(shards=2, arrival_s=4 * long_s),        # F: both hold theirs
        request(shards=2, arrival_s=5 * long_s),        # G: dev1 lacks slice 1
    ]
    b, a, d, c, f, g = stream
    report = serve(stream)
    served, pool = by_id(report), engine.pool
    groups = {e.batch_id: set() for e in pool.events}
    for e in pool.events:
        groups[e.batch_id].add(e.device)
    assert [sorted(groups[served[r.request_id].batch_id]) for r in (a, c, f, g)] == [
        [1, 2], [0, 2], [0, 2], [0, 1]]
    wide_transfer, run_s = transfer_s(engine, wide), latency_s(engine, wide)
    for r in (a, c, g):  # a sharded group is one booking: start + service
        start = served[r.request_id].start_s
        assert served[r.request_id].service_s == served_s(start, wide_transfer + run_s)
    assert served[f.request_id].service_s == served_s(served[f.request_id].start_s, run_s)
    # B and D: one each; A: two slices; C: dev0's slice 0; G: dev1's slice 1
    assert report.pcie_transfers == 2 + 2 + 1 + 1
    assert report.pcie_saved_s == wide_transfer


def test_a_patched_program_pays():
    graph = MutableGraph(load_dataset("CO", scale=SCALE, seed=0), graph_id="dyn")
    engine, serve = tiny()
    engine.register_graph(graph)
    live = dict(dataset="dyn", scale=None, seed=0)
    warm(serve, request(**live))
    before = served_s(0.0, transfer_s(engine, request(**live)), *layers(engine, request(**live)))
    stream = [
        request(**live, arrival_s=0.0),
        request(**live, arrival_s=1.0),
        MutationRequest(graph_id="dyn", delta=GraphDelta.edges(inserts=[(0, 7)]),
                        arrival_s=2.0),
        request(**live, arrival_s=3.0),
    ]
    report = serve(stream)
    assert report.num_patches == 1
    first, second, patched = report.responses
    assert first.service_s == before
    assert second.service_s < before
    assert patched.service_s == served_s(
        3.0, transfer_s(engine, request(**live)), *layers(engine, request(**live)))
    assert report.pcie_transfers == 2
