"""Tests for the continuous-batching scheduler subsystem (`repro.sched`).

Covers the policy/admission/autoscaler units, the pool active-set and
directed-booking primitives they drive, the layer-boundary hooks the
sharded runtime exposes, and the serve loop end to end: outputs equal
to the book-ahead oracle's (``tests/book_ahead.py``) on light traffic,
join-in-flight under overload, a queued batch boarding the execution of
its program,
shed/defer admission, layer-boundary preemption, autoscaler event flow,
and the per-response phase invariant.  Also holds the satellite
regression tests for the batch-window edge cases, per-class workload
tagging, and the extended ``ServingReport`` round-trip.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from book_ahead import peek_group, serve_book_ahead
from conftest import make_tiny_config

from repro.engine import Engine
from repro.engine.pool import AcceleratorPool
from repro.obs import Tracer
from repro.sched import (
    AdmissionController,
    AdmissionDecision,
    ContinuousScheduler,
    PoolAutoscaler,
    SLOClass,
    SLOPolicy,
)
from repro.serve import InferenceRequest, InferenceServer, synthesize
from repro.runtime.executor import run_strategy
from repro.shard import plan_shards

SCALE = 0.15


def tiny_request(**overrides) -> InferenceRequest:
    base = dict(model="GCN", dataset="CO", scale=SCALE, seed=3)
    base.update(overrides)
    return InferenceRequest(**base)


def tiny_server(**overrides) -> InferenceServer:
    base = dict(config=make_tiny_config(), pool_size=1, max_batch_size=4,
                max_wait_s=1e-3)
    base.update(overrides)
    return InferenceServer(**base)


def warm(server: InferenceServer, **req_overrides) -> float:
    """Prime the compile cache; returns the warm 1-request service time."""
    report = server.serve([tiny_request(**req_overrides)])
    resp = report.responses[0]
    return resp.execute_s


# ---------------------------------------------------------------------------
# policy / admission / autoscaler units
# ---------------------------------------------------------------------------


class TestSLOPolicy:
    def test_default_policy_tiers(self):
        policy = SLOPolicy.default()
        inter, bulk = policy.get("interactive"), policy.get("bulk")
        assert inter.priority > bulk.priority
        assert inter.max_wait_s == 0.0 and bulk.max_wait_s is None
        assert inter.overload == "shed" and bulk.overload == "defer"
        assert policy.names == ("interactive", "bulk")

    def test_unknown_class_raises(self):
        with pytest.raises(KeyError, match="unknown SLO class"):
            SLOPolicy.default().get("batch")

    def test_policy_is_hashable_for_engine_memoization(self):
        a = SLOPolicy.default(interactive_target_p99_s=1e-3)
        b = SLOPolicy.default(interactive_target_p99_s=1e-3)
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("bad", [
        dict(name=""),
        dict(overload="drop"),
        dict(target_p99_s=0.0),
        dict(max_wait_s=-1e-6),
        dict(max_queue_depth=0),
    ])
    def test_class_validation(self, bad):
        kwargs = dict(name="t", priority=0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SLOClass(**kwargs)

    def test_duplicate_class_names_rejected(self):
        c = SLOClass(name="x", priority=0)
        with pytest.raises(ValueError, match="duplicate"):
            SLOPolicy(classes=(c, c))

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            SLOPolicy(classes=())


class TestAdmissionController:
    def make(self, depth=4, overload="defer", factor=4.0):
        policy = SLOPolicy(classes=(
            SLOClass(name="t", priority=0, max_queue_depth=depth,
                     overload=overload),
        ))
        return AdmissionController(policy, hard_limit_factor=factor), \
            policy.get("t")

    def test_admits_below_the_bound(self):
        ctl, cls = self.make(depth=4)
        assert ctl.decide(cls, 3).action == "admit"

    def test_unbounded_class_always_admits(self):
        ctl, cls = self.make(depth=None)
        assert ctl.decide(cls, 10**6).action == "admit"

    def test_shed_class_sheds_at_the_bound(self):
        ctl, cls = self.make(depth=4, overload="shed")
        decision = ctl.decide(cls, 4)
        assert decision.action == "shed" and "bound 4" in decision.reason

    def test_defer_class_defers_then_hard_sheds(self):
        ctl, cls = self.make(depth=4, factor=4.0)
        assert ctl.decide(cls, 4).action == "defer"
        assert ctl.decide(cls, 15).action == "defer"
        hard = ctl.decide(cls, 16)  # ceil(4 * 4.0)
        assert hard.action == "shed" and "hard limit" in hard.reason

    def test_counters_and_snapshot(self):
        ctl, cls = self.make(depth=2)
        for depth in (0, 2, 100):
            ctl.decide(cls, depth)
        assert ctl.snapshot() == {"t": {"admit": 1, "defer": 1, "shed": 1}}
        ctl.reset()
        assert ctl.snapshot() == {"t": {"admit": 0, "defer": 0, "shed": 0}}

    def test_low_watermark_is_half_the_bound(self):
        ctl, cls = self.make(depth=5)
        assert ctl.low_watermark(cls) == 2
        ctl1, cls1 = self.make(depth=1)
        assert ctl1.low_watermark(cls1) == 1
        ctln, clsn = self.make(depth=None)
        assert ctln.low_watermark(clsn) is None

    def test_invalid_hard_limit_factor(self):
        with pytest.raises(ValueError):
            AdmissionController(SLOPolicy.default(), hard_limit_factor=0.5)

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            AdmissionDecision("drop")


class TestPoolAutoscaler:
    def test_grows_past_the_queue_threshold(self):
        a = PoolAutoscaler(scale_up_queue_per_device=4.0)
        got = a.propose(0.0, active=1, queue_depth=5, busy_devices=1,
                        pool_devices=4)
        assert got is not None and got[0] == 2

    def test_holds_inside_the_dead_band(self):
        a = PoolAutoscaler(scale_up_queue_per_device=4.0,
                           scale_down_queue_per_device=1.0)
        # 2 active: shrink needs depth < 1, grow needs depth > 8
        assert a.propose(0.0, active=2, queue_depth=3, busy_devices=1,
                         pool_devices=4) is None

    def test_shrinks_only_with_an_idle_device(self):
        a = PoolAutoscaler()
        assert a.propose(0.0, active=2, queue_depth=0, busy_devices=2,
                         pool_devices=4) is None
        got = a.propose(0.0, active=2, queue_depth=0, busy_devices=1,
                        pool_devices=4)
        assert got is not None and got[0] == 1

    def test_respects_min_and_max_devices(self):
        a = PoolAutoscaler(min_devices=2, max_devices=3)
        assert a.propose(0.0, active=2, queue_depth=0, busy_devices=0,
                         pool_devices=4) is None
        got = a.propose(0.0, active=3, queue_depth=100, busy_devices=3,
                        pool_devices=4)
        assert got is None  # already at max_devices

    def test_cooldown_gates_consecutive_changes(self):
        a = PoolAutoscaler(cooldown_s=1.0)
        a.commit(0.0, from_devices=1, to_devices=2, reason="grow",
                 queue_depth=9, busy_devices=1)
        assert a.propose(0.5, active=2, queue_depth=100, busy_devices=2,
                         pool_devices=4) is None
        assert a.propose(1.5, active=2, queue_depth=100, busy_devices=2,
                         pool_devices=4) is not None

    def test_commit_records_events_in_order(self):
        a = PoolAutoscaler()
        a.commit(0.0, from_devices=1, to_devices=2, reason="grow",
                 queue_depth=9, busy_devices=1)
        a.commit(1.0, from_devices=2, to_devices=1, reason="drain",
                 queue_depth=0, busy_devices=0)
        assert [e.to_dict()["to_devices"] for e in a.events] == [2, 1]
        a.reset()
        assert a.events == []

    def test_dead_band_is_required(self):
        with pytest.raises(ValueError, match="dead band"):
            PoolAutoscaler(scale_up_queue_per_device=1.0,
                           scale_down_queue_per_device=1.0)

    @pytest.mark.parametrize("bad", [
        dict(min_devices=0),
        dict(min_devices=3, max_devices=2),
        dict(cooldown_s=-1.0),
        dict(provision_delay_s=-1.0),
        dict(step=0),
    ])
    def test_knob_validation(self, bad):
        with pytest.raises(ValueError):
            PoolAutoscaler(**bad)


# ---------------------------------------------------------------------------
# pool active set + directed booking
# ---------------------------------------------------------------------------


class TestPoolActiveSet:
    def test_defaults_to_all_devices_active(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=3)
        assert pool.num_active == 3

    def test_set_active_bounds(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=3)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                pool.set_active(bad)

    def test_parked_devices_do_not_take_new_work(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=3)
        pool.set_active(1)
        pool.available[0] = 5.0  # device 0 busy; 1 and 2 idle but parked
        assert pool.peek_device(0.0) == 0

    def test_grow_charges_the_provision_delay(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=2)
        pool.set_active(1)
        pool.set_active(2, now=1.0, provision_delay_s=0.5)
        assert pool.available[1] == pytest.approx(1.5)
        # ... but never rewinds an already-later availability
        pool.set_active(1)
        pool.available[1] = 9.0
        pool.set_active(2, now=1.0, provision_delay_s=0.5)
        assert pool.available[1] == pytest.approx(9.0)

    def test_submit_on_books_the_named_device(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=2)
        start, end = pool.book([1], [2.0], 0.5, batch_id=7)
        assert (start, end) == (0.5, 2.5)
        assert pool.available[1] == pytest.approx(2.5)
        assert pool.busy[1] == pytest.approx(2.0)
        assert pool.events[-1].device == 1

    def test_submit_on_parked_device_drains(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=2)
        pool.set_active(1)
        start, end = pool.book([1], [1.0], 0.0)
        assert (start, end) == (0.0, 1.0)

    def test_submit_on_busy_override(self):
        # each member is held to the barrier, busy for its own seconds
        pool = AcceleratorPool(make_tiny_config(), num_devices=2)
        pool.available[1] = 0.25
        start, end = pool.book([0, 1], [2.0], 0.0, busy_s=[0.5, 1.5])
        assert (start, end) == (0.25, 2.25)
        assert list(pool.available) == [2.25, 2.25]
        assert list(pool.busy) == [0.5, 1.5]

    def test_submit_run_is_one_booking_at_the_chained_sums(self):
        # segments whose one-at-a-time sums round differently from their
        # total: the booking ends, and charges the device, at the chained
        # sums booking them one by one gives
        segments = [0.3, 0.6, 0.1]
        one_by_one = AcceleratorPool(make_tiny_config(), num_devices=1)
        one_by_one.book([0], [0.5], 0.0)
        for seconds in segments:
            one_by_one.book([0], [seconds], 0.7)
        run = AcceleratorPool(make_tiny_config(), num_devices=1)
        run.book([0], [0.5], 0.0)
        _, end = run.book([0], segments, 0.7, batch_id=4, batch_size=3)
        assert end == one_by_one.available[0] == run.available[0]
        assert end != 0.7 + sum(segments)
        assert run.busy[0] == one_by_one.busy[0]
        (event,) = run.events[1:]
        assert (event.device, event.start, event.end, event.batch_id,
                event.batch_size) == (0, 0.7, end, 4, 3)

    def test_submit_on_validates_device_and_service(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=1)
        with pytest.raises(ValueError):
            pool.book([1], [1.0])
        with pytest.raises(ValueError):
            pool.book([], [1.0])
        with pytest.raises(ValueError):
            pool.book([0], [-1.0])
        with pytest.raises(ValueError):
            pool.book([0], [1.0], busy_s=[1.0, 1.0])

    def test_submit_group_limited_to_the_active_set(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=3)
        pool.set_active(2)
        with pytest.raises(ValueError, match="active"):
            peek_group(pool, 3, 0.0)
        devices, _ = peek_group(pool, 2, 0.0)
        assert devices == [0, 1]

    def test_reset_reactivates_every_device(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=3)
        pool.set_active(1)
        pool.reset()
        assert pool.num_active == 3


# ---------------------------------------------------------------------------
# layer boundaries exposed by the sharded runtime
# ---------------------------------------------------------------------------


class TestLayerBoundaries:
    @pytest.fixture(scope="class")
    def sharded(self):
        from repro import Compiler, build_model, init_weights, load_dataset
        cfg = make_tiny_config()
        data = load_dataset("CO", scale=SCALE, seed=3)
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        program = Compiler(cfg).compile(model, data,
                                        init_weights(model, seed=3))
        return program

    def test_boundaries_span_zero_to_latency(self, sharded):
        res = run_strategy(sharded, "Dynamic", plan=plan_shards(sharded, 2))
        bounds = list(itertools.accumulate(res.segments_s, initial=0.0))
        assert bounds[0] == 0.0
        assert bounds[-1] == pytest.approx(res.latency_s)
        assert len(bounds) == len(res.layers) + 1
        assert bounds == sorted(bounds)


# ---------------------------------------------------------------------------
# the continuous scheduler end to end
# ---------------------------------------------------------------------------


def strip_wallclock(d: dict) -> dict:
    """Report dict minus host-wall-clock fields (compile is measured on
    the host clock, so it varies run to run)."""
    d = dict(d)
    for key in ("compile_saved_s", "compile_s"):
        d.pop(key, None)
    metrics = d.get("metrics")
    if metrics:
        metrics = {k: dict(v) if isinstance(v, dict) else v
                   for k, v in metrics.items()}
        for key in ("serve.compile_s", "serve.compile_saved_s"):
            metrics.get("counters", {}).pop(key, None)
        metrics.pop("histograms", None)
        d["metrics"] = metrics
    return d


class TestContinuousServe:
    def test_admission_and_autoscaler_run_on_the_default_server(self):
        policy = SLOPolicy.default(bulk_queue_depth=4)
        server = tiny_server(slo_policy=policy,
                             admission=AdmissionController(policy),
                             autoscaler=PoolAutoscaler())
        report = server.serve([tiny_request()])
        assert len(report.responses) == 1
        assert report.metrics["counters"]["serve.sched.admitted"] == 1.0

    def test_continuous_matches_legacy_outputs_on_light_traffic(self):
        requests = synthesize(
            num_requests=8, arrival="steady", rate_rps=1e3,
            models=("GCN",), datasets=("CO",), scale=SCALE, seed=5,
        )
        legacy, cont = tiny_server(), tiny_server()
        # synthesize stamps the workload seed onto each request, so warm
        # the same (model, dataset, scale, seed) program the stream uses
        warm(legacy, seed=5), warm(cont, seed=5)
        rl = serve_book_ahead(legacy, [r for r in requests])
        rc = cont.serve([r for r in requests])
        lout = {r.request_id: r.output for r in rl.responses}
        assert len(rc.responses) == len(rl.responses)
        for resp in rc.responses:
            assert np.array_equal(resp.output, lout[resp.request_id])

    def test_joins_share_an_inflight_execution(self):
        server = tiny_server(max_wait_s=0.0)
        exec_s = warm(server)
        # founder at t=0; followers arrive mid-execution and must board
        # at layer boundaries instead of founding new batches
        requests = [tiny_request(arrival_s=0.0)] + [
            tiny_request(arrival_s=frac * exec_s)
            for frac in (0.2, 0.4, 0.6)
        ]
        sched = ContinuousScheduler(server)
        report = sched.run(requests)
        assert report.joined_requests == 3
        assert report.num_batches == 1
        joined = [r for r in report.responses if r.joined]
        assert len(joined) == 3
        for resp in joined:
            assert resp.barrier_s == 0.0
            # a joiner never finishes after the execution it boarded
            assert resp.finish_s == pytest.approx(
                max(r.finish_s for r in report.responses))

    @pytest.mark.parametrize("shards", (1, 2))
    def test_an_arrival_at_the_start_instant_joins_after_the_input(self, shards):
        """One join rule at every width: a request arriving at the instant
        an execution starts joins at its first boundary, after the input
        transfer (the founder fills the batch, so its execution starts on
        its own arrival)."""
        server = tiny_server(pool_size=shards, max_batch_size=1)
        warm(server, shards=shards)
        report = server.serve([tiny_request(shards=shards, arrival_s=0.0)
                               for _ in range(2)])
        founder, joiner = sorted(report.responses, key=lambda r: r.joined)
        assert report.num_batches == 1 and joiner.joined
        assert founder.queue_s == 0.0
        assert joiner.queue_s == report.metrics["counters"]["serve.pcie_s"] > 0.0

    def test_a_queued_batch_boards_the_execution_of_its_program(self):
        """Two GCN/CO batches queue behind a GIN/CI one on one device: the
        second boards the execution the first starts instead of running
        the same program again, after a later arrival that joined it."""
        engine = Engine(pool_size=1, tracer=Tracer())
        gin, gcn = dict(model="GIN", dataset="CI"), dict(model="GCN", dataset="CO")
        engine.serve([InferenceRequest(**gin)]), engine.serve([InferenceRequest(**gcn)])
        gin_s = engine.serve([InferenceRequest(**gin)]).responses[0].finish_s
        stream = [InferenceRequest(**gin, arrival_s=0.0) for _ in range(2)] + [
            InferenceRequest(**gcn, arrival_s=t)
            for t in (1e-6, 1e-6, 2e-6, 2e-6, np.nextafter(gin_s, 1.0))
        ]
        report = engine.serve(list(stream), max_batch_size=2)
        # ids come from a module-global counter: go by stream position
        finish = {r.request_id: r.finish_s for r in report.responses}
        assert report.num_batches == 2
        assert len({finish[r.request_id] for r in stream[2:]}) == 1
        assert finish[stream[2].request_id] > finish[stream[0].request_id]
        # boarders count as joined, and the trace says which group boarded
        assert report.joined_requests == 3
        (board,) = [s for s in engine.tracer.spans if s.name.endswith("/board")]
        batch = {r.request_id: r.batch_id for r in report.responses}
        assert board.name == f"exec{batch[stream[2].request_id]}/board"
        assert board.args == {"batch_id": 2, "size": 2, "slo": "bulk"}

    def test_a_burst_rides_fewer_executions_than_book_ahead(self):
        """``serve_steady``'s mechanism at small scale: a burst of one
        program's requests, three batches deep, on one device, joins the
        execution in flight instead of queueing batch after batch."""
        server = tiny_server(max_batch_size=4)
        exec_s = warm(server)
        burst = synthesize(
            num_requests=12, arrival="poisson", rate_rps=24.0 / exec_s,
            models=("GCN",), datasets=("CO",), scale=SCALE, seed=3,
        )
        served = server.serve(list(burst))
        booked = serve_book_ahead(server, list(burst))
        assert booked.num_batches == 3
        assert served.joined_requests > 0
        assert served.num_batches < booked.num_batches
        assert served.latency_mean_s < booked.latency_mean_s

    def test_overload_goodput_beats_legacy(self):
        server_l = tiny_server(pool_size=2)
        server_c = tiny_server(pool_size=2)
        exec_s = warm(server_l, seed=13)
        warm(server_c, seed=13)
        requests = synthesize(
            num_requests=40, arrival="poisson",
            rate_rps=10.0 / exec_s,  # ~10x one device's capacity
            models=("GCN",), datasets=("CO",), scale=SCALE,
            class_skew=0.3, seed=13,
        )
        rl = serve_book_ahead(server_l, [r for r in requests])
        rc = server_c.serve([r for r in requests])
        assert rc.joined_requests > 0
        assert rc.throughput_rps > rl.throughput_rps
        assert rc.makespan_s < rl.makespan_s

    def test_phase_invariant_holds_for_every_response(self):
        server = tiny_server(pool_size=2)
        exec_s = warm(server)  # stream seed below matches the default (3)
        requests = synthesize(
            num_requests=20, arrival="bursty", rate_rps=6.0 / exec_s,
            models=("GCN",), datasets=("CO",), scale=SCALE,
            class_skew=0.4, seed=3,
        )
        report = server.serve(requests)
        for resp in report.responses:
            assert resp.latency_s == pytest.approx(
                resp.queue_s + resp.execute_s + resp.barrier_s, abs=1e-12)

    def test_report_carries_scheduler_accounting(self):
        server = tiny_server()
        warm(server)
        report = server.serve([tiny_request(arrival_s=0.0)])
        assert report.active_devices >= 1
        counters = report.metrics["counters"]
        assert counters["serve.sched.executions"] == 1.0
        assert "serve.sched.joined" in counters

    def test_sharded_requests_flow_through_the_continuous_path(self):
        server = tiny_server(pool_size=2,
                             max_wait_s=0.0)
        legacy = tiny_server(pool_size=2)
        warm(server, shards=2), warm(legacy, shards=2)
        reqs = [tiny_request(shards=2, arrival_s=0.0)]
        rc = server.serve([r for r in reqs])
        rl = serve_book_ahead(legacy, [r for r in reqs])
        assert np.array_equal(rc.responses[0].output, rl.responses[0].output)
        assert rc.responses[0].shards == 2
        assert rc.responses[0].barrier_s == pytest.approx(
            rl.responses[0].barrier_s)


class TestAdmissionIntegration:
    def test_interactive_overload_sheds(self):
        policy = SLOPolicy.default(interactive_queue_depth=2)
        server = tiny_server(
            slo_policy=policy,
            admission=AdmissionController(policy), max_wait_s=0.0,
        )
        exec_s = warm(server)
        warm(server, seed=4)
        # near-simultaneous burst over two programs: joins can only soak
        # up the same-program arrivals, the rest pile past the depth-2
        # interactive bound and shed (joins themselves are exempt)
        requests = [
            tiny_request(slo="interactive", seed=3 + (i % 2),
                         arrival_s=i * exec_s * 1e-3)
            for i in range(12)
        ]
        report = server.serve(requests)
        assert report.shed_requests > 0
        assert len(report.responses) + report.shed_requests == 12
        counters = report.metrics["counters"]
        assert counters["serve.sched.shed"] == float(report.shed_requests)

    def test_bulk_overload_defers_but_still_serves(self):
        policy = SLOPolicy.default(bulk_queue_depth=2)
        server = tiny_server(
            slo_policy=policy,
            admission=AdmissionController(policy, hard_limit_factor=100.0),
            max_batch_size=1, max_wait_s=0.0,
        )
        exec_s = warm(server)
        requests = [
            tiny_request(slo="bulk", seed=3 + (i % 2),
                         arrival_s=i * exec_s * 1e-3)
            for i in range(8)
        ]
        # two distinct programs (seed alternates) so later arrivals can't
        # all free-ride one in-flight execution via joins
        server.serve([tiny_request(seed=4)])  # warm the second program
        report = server.serve(requests)
        assert report.deferred_requests > 0
        assert report.shed_requests == 0
        assert len(report.responses) == 8  # deferred != dropped
        assert any(r.deferred for r in report.responses)

    def test_unknown_slo_class_raises(self):
        policy = SLOPolicy.default()
        server = tiny_server(slo_policy=policy)
        warm(server)
        with pytest.raises(ValueError, match="SLO class"):
            server.serve([tiny_request(slo="platinum")])


class TestPreemption:
    def make_requests(self, exec_s):
        # bulk founder at t=0 holds the only device; a different-program
        # interactive request lands mid-execution -> must preempt at a
        # layer boundary rather than wait for the bulk batch to drain
        return [
            tiny_request(slo="bulk", seed=3, arrival_s=0.0),
            tiny_request(slo="interactive", seed=4,
                         arrival_s=0.45 * exec_s),
        ]

    def prepared_server(self):
        policy = SLOPolicy.default()
        server = tiny_server(slo_policy=policy,
                             max_wait_s=0.0)
        exec_s = warm(server, seed=3)
        warm(server, seed=4)
        return server, exec_s

    def test_interactive_preempts_bulk_at_a_boundary(self):
        server, exec_s = self.prepared_server()
        report = server.serve(self.make_requests(exec_s))
        assert report.preemptions == 1
        by_slo = {r.slo: r for r in report.responses}
        # the preemptor overtakes: it finishes before the preempted bulk
        assert by_slo["interactive"].finish_s < by_slo["bulk"].finish_s
        # the paused execution resumes and still completes correctly
        assert by_slo["bulk"].output is not None

    def test_a_resumed_execution_finishes_at_its_last_booking(self):
        # the preemptor is shorter than what the bulk run has left, so the
        # finish timer armed before the pause comes due while the resumed
        # span runs: only the timer of the running span may finish it
        bulk, interactive = dict(model="GraphSAGE", scale=0.3), dict(scale=0.05)
        server = tiny_server(slo_policy=SLOPolicy.default(), max_wait_s=0.0)
        exec_s = warm(server, **bulk)
        warm(server, **interactive)
        report = server.serve([
            tiny_request(slo="bulk", arrival_s=0.0, **bulk),
            tiny_request(slo="interactive", arrival_s=0.05 * exec_s, **interactive),
        ])
        assert report.preemptions == 1
        by_slo = {r.slo: r for r in report.responses}
        paused = by_slo["bulk"]
        spans = [e for e in server.pool.events if e.batch_id == paused.batch_id]
        assert len(spans) == 2
        assert paused.finish_s == spans[-1].end
        # its uncut finish (exec_s from its start at 0) came due mid-resume
        assert by_slo["interactive"].finish_s < exec_s < paused.finish_s

    def test_preempted_outputs_stay_exact(self):
        server, exec_s = self.prepared_server()
        requests = self.make_requests(exec_s)
        seed_of = {r.request_id: r.seed for r in requests}
        report = server.serve(requests)
        solo = tiny_server()
        warm(solo, seed=3), warm(solo, seed=4)
        for resp in report.responses:
            ref = solo.serve(
                [tiny_request(seed=seed_of[resp.request_id])]
            ).responses[0]
            assert np.array_equal(resp.output, ref.output)


class TestAutoscalerIntegration:
    def test_pool_grows_under_backlog_and_drains_back(self):
        server = tiny_server(
            pool_size=3, max_wait_s=0.0,
            autoscaler=PoolAutoscaler(
                min_devices=1, scale_up_queue_per_device=2.0,
            ),
        )
        exec_s = warm(server, seed=9)
        warm(server, seed=9, model="GIN")
        # two models: joins can only absorb same-program arrivals, so
        # the cross-program backlog is what pressures the autoscaler
        requests = synthesize(
            num_requests=30, arrival="poisson", rate_rps=12.0 / exec_s,
            models=("GCN", "GIN"), datasets=("CO",), scale=SCALE, seed=9,
        )
        report = server.serve(requests)
        events = report.autoscaler_events
        assert events, "overload must trigger at least one scale event"
        assert any(e["to_devices"] > e["from_devices"] for e in events)
        assert 1 <= report.active_devices <= 3
        for e in events:
            assert 1 <= e["to_devices"] <= 3

    def test_provision_delay_charges_the_new_device(self):
        server = tiny_server(
            pool_size=2, max_wait_s=0.0,
            autoscaler=PoolAutoscaler(
                min_devices=1, scale_up_queue_per_device=1.0,
                scale_down_queue_per_device=0.5,
                provision_delay_s=0.05,
            ),
        )
        exec_s = warm(server)
        requests = [tiny_request(seed=3 + i, arrival_s=0.0)
                    for i in range(4)]
        for i in range(4):
            warm(server, seed=3 + i)
        report = server.serve(requests)
        grow = [e for e in report.autoscaler_events
                if e["to_devices"] > e["from_devices"]]
        assert grow
        # nothing can start on the grown device before its cold start
        t_grow = grow[0]["t_s"]
        dev1 = [e for e in server.pool.events if e.device == 1]
        if dev1:
            assert min(e.start for e in dev1) >= t_grow + 0.05 - 1e-12

    def test_a_queued_shard_width_is_a_floor_on_the_active_set(self):
        # one 2-shard request on an active set of 1 used to sit in the
        # ready queue forever: nothing scaled up for it and the sweep
        # returned 0 responses, 0 shed, 0 deferred
        server = tiny_server(
            pool_size=4, max_wait_s=0.0,
            autoscaler=PoolAutoscaler(min_devices=1),
        )
        report = server.serve([tiny_request(shards=2)])
        (response,) = report.responses
        assert response.shards == 2
        grow = report.autoscaler_events[0]
        assert (grow["from_devices"], grow["to_devices"]) == (1, 2)
        assert "spans 2 devices" in grow["reason"]
        # the issue's own reproduction (default config: the planner
        # collapses so small a graph to one shard, it is still answered)
        server = InferenceServer(
            pool_size=4, max_wait_s=0.0,
            autoscaler=PoolAutoscaler(min_devices=1),
        )
        lost = InferenceRequest(model="GCN", dataset="CO", scale=0.2,
                                shards=2)
        assert len(server.serve([lost]).responses) == 1

    def test_shards_above_the_autoscaler_ceiling_are_rejected(self):
        server = tiny_server(
            pool_size=4,
            autoscaler=PoolAutoscaler(min_devices=1, max_devices=1),
        )
        with pytest.raises(ValueError, match=r"shards.*\[1, 1\]"):
            server.serve([tiny_request(shards=2)])
        with pytest.raises(ValueError, match=r"shards.*\[1, 2\]"):
            tiny_server(pool_size=2).serve([tiny_request(shards=3)])

    def test_undispatched_work_is_an_error_not_a_short_report(
            self, monkeypatch):
        monkeypatch.setattr(ContinuousScheduler, "_schedule",
                            lambda self, t: None)
        server = tiny_server()
        with pytest.raises(RuntimeError, match="1 admitted request"):
            server.serve([tiny_request()])

    def test_without_autoscaler_the_whole_pool_is_active(self):
        server = tiny_server(pool_size=2)
        warm(server)
        report = server.serve([tiny_request(arrival_s=0.0)])
        assert report.active_devices == 2
        assert report.autoscaler_events == []


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------


class TestBatcherRegressions:
    """Window edge cases, through ``serve()`` on one warm device."""

    def served(self, requests, **server_kw):
        server = tiny_server(max_batch_size=4, **server_kw)
        for seed in (3, 4, 5):
            warm(server, seed=seed)
        return server.serve(requests).responses

    def test_zero_wait_is_due_immediately(self):
        # the window test is a strict <: a same-instant arrival can
        # still coalesce, an instant later the group has flushed (and
        # the latecomer can only join the execution in flight)
        a, b, c = (tiny_request(arrival_s=t)
                   for t in (0.5, 0.5, 0.5 + 1e-12))
        by_id = {r.request_id: r
                 for r in self.served([a, b, c], max_wait_s=0.0)}
        assert by_id[a.request_id].batch_id == by_id[b.request_id].batch_id
        assert not by_id[b.request_id].joined
        assert by_id[c.request_id].joined
        assert by_id[c.request_id].start_s > by_id[a.request_id].start_s == 0.5

    def test_due_and_drain_are_fifo_on_deadline_ties(self):
        # three groups opened at one instant share a deadline: they
        # dispatch in open order, whether their windows expire (a late
        # arrival keeps the stream going) or the stream ends first
        for seeds in ((3, 4, 5), (5, 4, 3)):
            tied = [tiny_request(seed=seed, arrival_s=0.2) for seed in seeds]
            drained = self.served(list(tied), max_wait_s=1e-3)
            assert [r.request_id for r in drained] == \
                [r.request_id for r in tied]
            late = tiny_request(seed=3, arrival_s=1.0)
            expired = self.served([*tied, late], max_wait_s=1e-3)
            assert [r.request_id for r in expired] == \
                [r.request_id for r in [*tied, late]]
            starts = [r.start_s for r in expired]
            assert starts == sorted(starts) and starts[0] == 0.2 + 1e-3


class TestWorkloadClassSkew:
    def test_skew_bounds_are_validated(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="class_skew"):
                synthesize(num_requests=4, class_skew=bad)

    def test_default_is_all_bulk(self):
        requests = synthesize(num_requests=16, seed=7)
        assert all(r.slo == "bulk" for r in requests)

    def test_full_skew_is_all_interactive(self):
        requests = synthesize(num_requests=16, class_skew=1.0, seed=7)
        assert all(r.slo == "interactive" for r in requests)

    def test_tags_are_deterministic_per_seed(self):
        a = synthesize(num_requests=64, class_skew=0.4, seed=21)
        b = synthesize(num_requests=64, class_skew=0.4, seed=21)
        assert [r.slo for r in a] == [r.slo for r in b]
        c = synthesize(num_requests=64, class_skew=0.4, seed=22)
        assert [r.slo for r in a] != [r.slo for r in c]

    def test_tagging_does_not_perturb_the_rest_of_the_stream(self):
        plain = synthesize(num_requests=32, seed=21)
        tagged = synthesize(num_requests=32, class_skew=0.5, seed=21)
        assert [r.arrival_s for r in plain] == [r.arrival_s for r in tagged]
        assert [r.model for r in plain] == [r.model for r in tagged]
        assert [r.seed for r in plain] == [r.seed for r in tagged]

    def test_skew_fraction_is_roughly_honoured(self):
        requests = synthesize(num_requests=400, class_skew=0.3, seed=5)
        frac = sum(r.slo == "interactive" for r in requests) / 400
        assert 0.2 < frac < 0.4


class TestReportRoundTrip:
    @pytest.fixture(scope="class")
    def report(self):
        policy = SLOPolicy.default(
            interactive_target_p99_s=1.0, bulk_queue_depth=64,
        )
        server = tiny_server(
            pool_size=2, slo_policy=policy,
            admission=AdmissionController(policy),
            autoscaler=PoolAutoscaler(min_devices=1,
                                      scale_up_queue_per_device=2.0),
        )
        exec_s = warm(server, seed=17)
        requests = synthesize(
            num_requests=24, arrival="poisson", rate_rps=8.0 / exec_s,
            models=("GCN",), datasets=("CO",), scale=SCALE,
            class_skew=0.4, seed=17,
        )
        return server.serve(requests)

    def test_to_dict_round_trips_through_json(self, report):
        d = report.to_dict()
        again = json.loads(json.dumps(d))
        for key in ("goodput_rps", "active_devices", "shed_requests",
                    "deferred_requests", "joined_requests", "preemptions",
                    "max_queue_depth", "class_breakdown",
                    "autoscaler_events"):
            assert key in again

    def test_class_breakdown_grades_both_tiers(self, report):
        cb = report.class_breakdown
        assert set(cb) <= {"interactive", "bulk"}
        assert "interactive" in cb
        inter = cb["interactive"]
        for key in ("count", "p50_s", "p95_s", "p99_s", "queue_p95_s",
                    "target_p99_s", "violations", "joined", "deferred"):
            assert key in inter
        assert inter["target_p99_s"] == 1.0
        total = sum(c["count"] for c in cb.values())
        assert total == len(report.responses)

    def test_goodput_counts_only_met_targets(self, report):
        # the 1.0 s interactive target is generous: nothing violates it,
        # bulk has no target, so goodput == throughput
        assert report.goodput_rps == pytest.approx(report.throughput_rps)
        assert all(c["violations"] == 0
                   for c in report.class_breakdown.values())

    def test_format_report_renders_the_sched_sections(self, report):
        text = report.format_report()
        assert "scheduler" in text and "continuous" in text
        assert "goodput" in text
        assert "class interactive" in text and "class bulk" in text
        if report.autoscaler_events:
            assert "autoscaler" in text

    def test_report_defaults_stay_inert_without_targets(self):
        server = tiny_server()
        warm(server)
        report = server.serve([tiny_request(arrival_s=0.0)])
        assert report.goodput_rps == pytest.approx(report.throughput_rps)
        assert report.autoscaler_events == []
        assert (report.shed_requests, report.deferred_requests,
                report.joined_requests, report.preemptions) == (0, 0, 0, 0)
        assert "autoscaler" not in report.format_report()
