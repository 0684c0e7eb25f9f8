"""Property test over the serve loop's state space.

Tiny streams (at most 12 requests over two programs, shard widths 1 and
2, two SLO classes) through both dispatch policies, with and without an
autoscaler and with admission bounds tight enough to shed and defer.
Whatever the stream, a sweep must account for every request exactly
once, keep each response's phases summing to its latency, never book
one device for two things at once, send a device each input slice at
most once, and charge no response more than a device holding nothing
would.
"""

from __future__ import annotations

import functools

from conftest import make_tiny_config
from hypothesis import given, settings, strategies as st

from repro.sched import AdmissionController, PoolAutoscaler, SLOPolicy
from repro.serve import InferenceRequest, InferenceServer

SCALE = 0.15
SEEDS = (3, 4)
POLICY = SLOPolicy.default(interactive_queue_depth=2, bulk_queue_depth=3)


def request(**overrides) -> InferenceRequest:
    base = dict(model="GCN", dataset="CO", scale=SCALE)
    base.update(overrides)
    return InferenceRequest(**base)


@functools.lru_cache(maxsize=None)
def warm_server(scheduler, autoscale, max_batch_size, max_wait_s):
    """One server per configuration, every program compiled and every
    execution simulated, so an example costs one warm sweep."""
    continuous = scheduler == "continuous"
    server = InferenceServer(
        make_tiny_config(), pool_size=3, scheduler=scheduler,
        max_batch_size=max_batch_size, max_wait_s=max_wait_s,
        slo_policy=POLICY,
        admission=AdmissionController(POLICY) if continuous else None,
        autoscaler=PoolAutoscaler(
            min_devices=1, scale_up_queue_per_device=2.0,
        ) if autoscale else None,
    )
    for seed in SEEDS:
        for shards in (1, 2):
            server.serve([request(seed=seed, shards=shards)])
    return server


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


@given(configurations, arrivals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_sweep_accounts_for_every_request(configuration, stream):
    (scheduler, autoscale), max_batch_size, max_wait_s = configuration
    server = warm_server(scheduler, autoscale, max_batch_size, max_wait_s)
    exec_s = server.estimate_service_s(request(seed=SEEDS[0]))
    requests, t = [], 0.0
    for seed, shards, slo, gap in stream:
        t += gap * exec_s
        requests.append(request(seed=seed, shards=shards, slo=slo,
                                arrival_s=t))

    report = server.serve(requests)

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
    for device in range(server.pool.num_devices):
        booked = sorted(
            (e.start, e.end) for e in server.pool.events
            if e.device == device
        )
        for (_, end), (start, _) in zip(booked, booked[1:]):
            assert end <= start + 1e-12
    # at most one input transfer per (device, residency key) a sweep
    # booked: slice i of a batch goes to the i-th lowest of its devices
    sent = {r.request_id: r for r in requests}
    program = {r.batch_id: (sent[r.request_id].seed, r.shards) for r in report.responses}
    members: dict[int, set] = {}
    for e in server.pool.events:
        members.setdefault(e.batch_id, set()).add(e.device)
    held = {(d, *program[b], sorted(devices).index(d))
            for b, devices in members.items() for d in devices}
    assert report.pcie_transfers <= len(held)
    # and no response is charged more than on a device holding nothing,
    # the seconds a preempting batch ran on its device aside
    for r in report.responses:
        preempted_s = sum(
            min(e.end, r.finish_s) - max(e.start, r.start_s)
            for e in server.pool.events
            if e.device == r.device and e.batch_id != r.batch_id
            and e.start < r.finish_s and e.end > r.start_s
        )
        estimate = server.estimate_service_s(
            request(seed=sent[r.request_id].seed, shards=r.shards))
        assert r.service_s - preempted_s <= estimate + 1e-12
