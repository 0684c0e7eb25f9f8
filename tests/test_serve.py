"""Tests for the serving subsystem (`repro.serve`).

Covers the four pillars of the server: program-cache fingerprinting and
LRU behaviour, micro-batch grouping and timeout flushing, multi-device
throughput scaling, and functional exactness of served outputs against
the NumPy reference model.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_tiny_config

from repro.datasets import load_dataset
from repro.gnn import build_model, init_weights, reference_inference
from repro.engine.cache import ProgramCache
from repro.engine.pool import AcceleratorPool
from repro.serve import (
    InferenceRequest,
    InferenceServer,
    bursty_arrivals,
    poisson_arrivals,
    steady_arrivals,
    synthesize,
)

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


class TestFingerprinting:
    def test_identical_requests_share_a_program_key(self):
        cfg = make_tiny_config()
        assert tiny_request().program_key(cfg) == tiny_request().program_key(cfg)

    @pytest.mark.parametrize("override", [
        {"model": "GIN"},
        {"dataset": "CI"},
        {"scale": 0.2},
        {"seed": 4},
        {"prune": 0.5},
    ])
    def test_differing_requests_get_distinct_keys(self, override):
        cfg = make_tiny_config()
        assert tiny_request().program_key(cfg) != \
            tiny_request(**override).program_key(cfg)

    def test_config_is_part_of_the_key(self):
        r = tiny_request()
        assert r.program_key(make_tiny_config()) != \
            r.program_key(make_tiny_config(num_cores=1))

    def test_a_config_is_fingerprinted_once(self):
        # a request key reads the fingerprint, it never hashes the config
        cfg = make_tiny_config()
        assert cfg.fingerprint is cfg.fingerprint == repr(cfg)
        assert tiny_request().program_key(cfg)[-1] is cfg.fingerprint
        assert make_tiny_config(num_cores=1).fingerprint != cfg.fingerprint

    def test_strategy_changes_batch_key_but_not_program_key(self):
        cfg = make_tiny_config()
        a, b = tiny_request(), tiny_request(strategy="S1")
        assert a.program_key(cfg) == b.program_key(cfg)
        assert a.batch_key(cfg) != b.batch_key(cfg)

    def test_inline_graphdata_fingerprint_matches_catalog(self):
        cfg = make_tiny_config()
        data = load_dataset("CO", scale=SCALE, seed=3)
        named = tiny_request()
        # inline data keys on content identity, not object identity
        inline1 = tiny_request(dataset=data)
        inline2 = tiny_request(dataset=load_dataset("CO", scale=SCALE, seed=3))
        assert inline1.program_key(cfg) == inline2.program_key(cfg)
        assert inline1.program_key(cfg) != named.program_key(cfg)

    def test_inline_graphs_with_different_content_do_not_collide(self):
        # equal metadata (name/scale/seed/dims/nnz) but different values
        # must not share a program key
        cfg = make_tiny_config()
        d1 = load_dataset("CO", scale=SCALE, seed=3)
        d2 = load_dataset("CO", scale=SCALE, seed=3)
        d2.h0 = d2.h0.copy()
        d2.h0.data[0] += 1.0
        assert tiny_request(dataset=d1).program_key(cfg) != \
            tiny_request(dataset=d2).program_key(cfg)

    def test_rebinding_graph_matrices_invalidates_the_digest(self):
        cfg = make_tiny_config()
        data = load_dataset("CO", scale=SCALE, seed=3)
        before = tiny_request(dataset=data).program_key(cfg)
        h0 = data.h0.copy()
        h0.data[:] *= 3.0
        data.h0 = h0
        assert tiny_request(dataset=data).program_key(cfg) != before


class TestProgramCache:
    def test_hit_miss_counters(self):
        cache = ProgramCache(capacity=4)
        calls = []

        def compile_fn():
            calls.append(1)
            return _compile_tiny()

        key = tiny_request().program_key(make_tiny_config())
        _, charge1, hit1 = cache.get_or_compile(key, compile_fn)
        _, charge2, hit2 = cache.get_or_compile(key, compile_fn)
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1
        assert charge1 > 0.0 and charge2 == 0.0
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 2 - 1)
        assert stats.hit_rate == 0.5
        assert stats.saved_s > 0.0

    def test_lru_eviction_order(self):
        cache = ProgramCache(capacity=2)
        program = _compile_tiny()
        cache.put(("a",), program)
        cache.put(("b",), program)
        assert cache.get(("a",)) is program  # refresh "a": "b" is now LRU
        cache.put(("c",), program)
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert cache.evictions == 1


def _compile_tiny():
    data = load_dataset("CO", scale=SCALE, seed=3)
    model = build_model("GCN", data.num_features, data.hidden_dim,
                        data.num_classes)
    from repro.compiler import Compiler
    return Compiler(make_tiny_config()).compile(model, data,
                                                init_weights(model, seed=3))


class TestMicroBatcher:
    """Batch formation, observed through ``serve()`` on a warm server:
    a batch starts on an idle device the instant it closes, so
    ``start_s`` tells when and why it closed."""

    KEYS = {"k1": 3, "k2": 4, "k3": 5}

    def served(self, requests, **server_kw):
        server = tiny_server(pool_size=4, **server_kw)
        for seed in self.KEYS.values():
            server.serve([tiny_request(seed=seed)])
        report = server.serve(requests)
        assert len(report.responses) == len(requests)
        return {r.request_id: r for r in report.responses}

    def req(self, key, arrival_s):
        return tiny_request(seed=self.KEYS[key], arrival_s=arrival_s)

    def test_groups_by_key_and_flushes_at_max_size(self):
        r1, r3, r2 = (self.req(k, t) for k, t in
                      (("k1", 0.0), ("k2", 0.2), ("k1", 0.1)))
        by_id = self.served([r1, r3, r2], max_batch_size=2, max_wait_s=1.0)
        full, other = by_id[r1.request_id], by_id[r3.request_id]
        assert by_id[r2.request_id].batch_id == full.batch_id
        assert full.batch_size == 2 and other.batch_size == 1
        assert other.batch_id != full.batch_id
        # closed by the second member's arrival, not by the 1 s window
        assert full.start_s == 0.1

    def test_max_wait_flushes_the_oldest_group(self):
        a, b, c, late = (self.req(k, t) for k, t in
                         (("k1", 0.0), ("k2", 0.3), ("k1", 0.5), ("k3", 2.0)))
        by_id = self.served([a, b, c, late], max_batch_size=8, max_wait_s=0.5)
        # k1's window is its *oldest* member's: it ends at 0.5, and the
        # comparison is strict, so the arrival at 0.5 itself still joins
        assert by_id[a.request_id].batch_id == by_id[c.request_id].batch_id
        assert by_id[a.request_id].start_s == 0.5
        assert by_id[b.request_id].start_s == 0.8
        assert by_id[b.request_id].batch_size == 1

    def test_ready_time_tracks_slowest_member(self):
        # the first member misses and compiles; the second hits while
        # that compile is still running and must wait for it too
        server = tiny_server(max_batch_size=2, max_wait_s=1.0)
        miss, hit = tiny_request(arrival_s=0.0), tiny_request(arrival_s=1e-9)
        first, second = server.serve([miss, hit]).responses
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert first.compile_s > 1e-9 and second.compile_s == 0.0
        assert first.batch_id == second.batch_id
        assert first.start_s == second.start_s == first.compile_s

    def test_zero_wait_still_batches_simultaneous_arrivals(self):
        a, b, later = (self.req("k1", t) for t in (1.0, 1.0, 1.1))
        by_id = self.served([a, b, later], max_batch_size=4, max_wait_s=0.0)
        # same instant: the group stays open for the second arrival
        assert by_id[a.request_id].batch_id == by_id[b.request_id].batch_id
        assert by_id[a.request_id].batch_size == 2
        assert by_id[a.request_id].start_s == 1.0
        assert by_id[later.request_id].batch_size == 1

    def test_drain_empties_the_queue(self):
        # end of stream: both groups close at the last arrival instead of
        # idling out their 1 s windows, in (deadline, open order)
        a, b = self.req("k1", 0.0), self.req("k2", 0.1)
        server = tiny_server(max_batch_size=8, max_wait_s=1.0)
        for seed in self.KEYS.values():
            server.serve([tiny_request(seed=seed)])
        first, second = server.serve([b, a]).responses
        assert (first.request_id, second.request_id) == \
            (a.request_id, b.request_id)
        assert first.start_s == 0.1
        assert second.start_s == first.finish_s  # one device, k1 then k2


class TestAcceleratorPool:
    def test_earliest_idle_dispatch(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=2)
        for seconds, device in ((2.0, 0), (1.0, 1)):
            assert pool.peek_device(0.0) == device
            pool.book([device], [seconds], 0.0)
        # device 1 frees at t=1, so it gets the next batch
        assert pool.peek_device(0.0) == 1
        assert pool.book([1], [1.0], 0.0) == (1.0, 2.0)
        assert pool.makespan_s == pytest.approx(2.0)
        assert pool.load_balance() == pytest.approx(1.0)

    def test_ready_time_defers_start(self):
        pool = AcceleratorPool(make_tiny_config(), num_devices=1)
        assert pool.book([pool.peek_device(5.0)], [1.0], 5.0) == (5.0, 6.0)
        util = pool.utilization()
        assert util[0] == pytest.approx(1.0 / 6.0)


class TestWorkload:
    def test_arrival_processes(self):
        p = poisson_arrivals(100, rate_rps=1000.0, seed=1)
        assert p.shape == (100,) and np.all(np.diff(p) >= 0) and p[0] > 0
        s = steady_arrivals(10, rate_rps=100.0)
        assert np.allclose(np.diff(s), 0.01)
        b = bursty_arrivals(64, rate_rps=1000.0, seed=1, burst_size=8)
        assert np.all(np.diff(b) >= 0)
        # mean rate is preserved within a factor ~2
        assert 0.5 < b[-1] / (64 / 1000.0) < 2.0

    def test_synthesize_is_deterministic(self):
        kw = dict(arrival="poisson", rate_rps=500.0, models=("GCN", "GIN"),
                  datasets=("CO", "CI"), skew=1.1, seed=9)
        a = synthesize(50, **kw)
        b = synthesize(50, **kw)
        assert [(r.model, r.dataset, r.arrival_s) for r in a] == \
            [(r.model, r.dataset, r.arrival_s) for r in b]
        assert {r.model for r in a} <= {"GCN", "GIN"}


class TestInferenceServer:
    def _burst(self, n, **overrides):
        """n identical requests all arriving at t=0 (saturating)."""
        return [tiny_request(arrival_s=0.0, **overrides) for _ in range(n)]

    def test_cache_hit_on_second_sweep(self):
        server = tiny_server()
        workload = self._burst(6)
        cold = server.serve(workload)
        assert cold.cache_misses == 1 and cold.cache_hits == 5
        warm = server.serve(workload)
        assert warm.cache_misses == 0 and warm.cache_hits == 6
        assert warm.compile_s == 0.0
        assert warm.cache_hit_rate == 1.0

    def test_cache_hit_waits_for_inflight_compile(self):
        # a hit on a program whose miss is still compiling cannot start
        # executing before that compile finishes on the virtual clock
        server = tiny_server(pool_size=2, max_batch_size=1)
        r1, r2 = tiny_request(arrival_s=0.0), tiny_request(arrival_s=0.0)
        report = server.serve([r1, r2])
        by_id = {r.request_id: r for r in report.responses}
        compile_s = by_id[r1.request_id].compile_s
        assert compile_s > 0.0
        assert by_id[r2.request_id].compile_s == 0.0
        assert by_id[r2.request_id].start_s >= compile_s

    def test_ready_batch_not_blocked_by_inflight_compile(self):
        # a batch waiting on a compile must not hold an idle device
        # hostage: later-flushed but earlier-ready work runs first
        server = tiny_server(pool_size=1, max_batch_size=1)
        server.serve([tiny_request(model="GIN", arrival_s=0.0)])  # cache GIN
        x = tiny_request(arrival_s=0.0)                 # GCN: cache miss
        y = tiny_request(model="GIN", arrival_s=1e-6)   # hit, ready at once
        report = server.serve([x, y])
        by_id = {r.request_id: r for r in report.responses}
        assert by_id[x.request_id].compile_s > 0.0
        assert by_id[y.request_id].start_s < by_id[x.request_id].compile_s

    def test_batching_amortizes_batches(self):
        # two batches of four close while the program compiles; the
        # second boards the execution the first starts once it is ready
        report = tiny_server(max_batch_size=4).serve(self._burst(8))
        assert report.num_batches == 1 and report.joined_requests == 4
        assert report.avg_batch_size == pytest.approx(8.0)

    def test_max_wait_splits_distant_arrivals(self):
        server = tiny_server(max_batch_size=8, max_wait_s=1e-3)
        workload = [tiny_request(arrival_s=0.0), tiny_request(arrival_s=1.0)]
        report = server.serve(workload)
        assert report.num_batches == 2

    def test_pool_scaling_on_saturating_workload(self):
        # four programs: requests for one program join its execution in
        # flight, so only distinct programs can spread over devices
        workload = [tiny_request(arrival_s=0.0, seed=3 + i % 4) for i in range(12)]
        reports = {}
        for pool in (1, 2):
            server = tiny_server(pool_size=pool, max_batch_size=2)
            server.serve(workload)           # cold sweep populates caches
            reports[pool] = server.serve(workload)
        t1 = reports[1].throughput_rps
        t2 = reports[2].throughput_rps
        assert t2 >= 1.8 * t1, f"2 devices gave only {t2 / t1:.2f}x"
        assert len(reports[2].device_utilization) == 2
        assert all(u > 0 for u in reports[2].device_utilization)

    def test_served_output_matches_reference(self):
        request = tiny_request()
        report = tiny_server().serve([request])
        (resp,) = report.responses
        data = load_dataset("CO", scale=SCALE, seed=request.seed)
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        weights = init_weights(model, seed=request.seed)
        ref = reference_inference(model, data.a, data.h0, weights)
        np.testing.assert_allclose(resp.output, ref, rtol=1e-3, atol=1e-5)

    def test_estimate_service_does_not_warm_the_cache(self):
        server = tiny_server()
        server.estimate_service_s(tiny_request())
        report = server.serve([tiny_request(arrival_s=0.0)])
        assert report.cache_misses == 1  # first sweep is still cold

    def test_trailing_batch_flushes_at_end_of_stream(self):
        # once the stream ends no arrival can join, so the last partial
        # batch must not idle out its max_wait window
        server = tiny_server(max_batch_size=8, max_wait_s=1.0)
        workload = [tiny_request(arrival_s=0.0), tiny_request(arrival_s=0.5)]
        server.serve(workload)                  # warm: no compile noise
        report = server.serve(workload)
        assert report.num_batches == 1
        (resp, _) = report.responses
        assert resp.start_s == pytest.approx(0.5)  # not opened_s + 1.0

    def test_response_accounting(self):
        server = tiny_server(max_batch_size=2)
        report = server.serve(self._burst(4))
        assert report.num_requests == 4
        for resp in report.responses:
            assert resp.finish_s >= resp.start_s >= resp.arrival_s
            assert resp.latency_s >= resp.service_s > 0
            # a batch of two founds the execution, the other pair boards it
            assert resp.batch_size == 4
        assert report.throughput_rps > 0
        assert report.latency_p99_s >= report.latency_p50_s > 0

    def test_mixed_models_get_separate_batches(self):
        server = tiny_server(max_batch_size=8)
        workload = [tiny_request(arrival_s=0.0),
                    tiny_request(arrival_s=0.0, model="GIN")]
        report = server.serve(workload)
        assert report.num_batches == 2
        assert report.cache_misses == 2

    def test_outputs_are_read_only(self):
        # responses share one memoized array; in-place mutation must
        # raise rather than corrupt later sweeps' outputs
        report = tiny_server().serve(self._burst(2))
        resp = report.responses[0]
        with pytest.raises(ValueError):
            resp.output[0, 0] = 1.0

    def test_outputs_can_be_dropped(self):
        server = tiny_server(return_outputs=False)
        report = server.serve(self._burst(2))
        assert all(r.output is None for r in report.responses)

    def test_format_report_mentions_key_metrics(self):
        text = tiny_server().serve(self._burst(3)).format_report()
        for needle in ("throughput", "p50/p95/p99", "hit rate",
                       "device utilization", "queueing delay"):
            assert needle in text


class TestArrivalRateContract:
    """Every arrival kind advertises a mean rate; the achieved rate
    (num_requests / last arrival) must match it."""

    RATE = 1000.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "steady"])
    def test_achieved_mean_rate_matches_advertised(self, kind, seed):
        n = 400
        if kind == "poisson":
            times = poisson_arrivals(n, self.RATE, seed)
            tol = 0.15  # CLT jitter of the gap sum at n=400
        elif kind == "bursty":
            times = bursty_arrivals(n, self.RATE, seed, burst_size=16)
            tol = 16 / n + 0.01  # within-burst spread of the last burst
        else:
            times = steady_arrivals(n, self.RATE)
            tol = 1e-9
        achieved = n / float(times.max())
        assert abs(achieved / self.RATE - 1.0) < tol

    @pytest.mark.parametrize("n", [100, 104, 113])
    def test_partial_final_burst_does_not_distort_the_rate(self, n):
        # n not a multiple of burst_size: the final burst is partial, and
        # used to stretch the stream a full period beyond its share
        times = bursty_arrivals(n, self.RATE, seed=5, burst_size=16)
        achieved = n / float(times.max())
        assert abs(achieved / self.RATE - 1.0) < 16 / n + 0.01

    def test_oversized_spread_is_clamped(self):
        n, b = 64, 8
        period = b / self.RATE
        huge = bursty_arrivals(n, self.RATE, seed=3, burst_size=b,
                               burst_spread_s=10.0)
        clamped = bursty_arrivals(n, self.RATE, seed=3, burst_size=b,
                                  burst_spread_s=0.5 * period)
        # a spread >= the burst period is clamped to half the smallest
        # inter-burst gap...
        assert np.array_equal(huge, clamped)
        # ...so the burst structure survives the sort: exactly one large
        # inter-arrival gap per burst boundary
        gaps = np.diff(huge)
        assert int((gaps > 0.25 * period).sum()) == n // b - 1
        assert abs(n / float(huge.max()) / self.RATE - 1.0) < b / n + 0.01

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="burst_spread_s"):
            bursty_arrivals(8, 100.0, burst_spread_s=-0.1)

    def test_arrivals_are_sorted_and_positive(self):
        times = bursty_arrivals(40, 500.0, seed=9, burst_size=16,
                                burst_spread_s=1.0)
        assert np.all(np.diff(times) >= 0)
        assert times[0] > 0


class TestServingAccountingFixes:
    def test_missing_hit_flag_raises_instead_of_reporting_a_hit(self):
        # a request the loop never looked up used to be reported as
        # cache_hit=True, silently inflating the hit rate
        from repro.sched import ContinuousScheduler, SLOClass
        from repro.sched.scheduler import _Execution, _Group
        from repro.serve import MicroBatch

        server = tiny_server()
        req = tiny_request(arrival_s=0.0)
        server.serve([req])  # warm the program cache
        stray = tiny_request(arrival_s=0.0)
        program = server.cache.peek(stray.program_key(server.config))
        assert program is not None
        memo = server.engine.execute(program, stray.strategy, ready_s=0.0)
        sweep = ContinuousScheduler(server)
        batch = MicroBatch(key=None, requests=[stray], opened_s=0.0, ready_s=0.0,
                           batch_id=0)
        finished = _Execution(_Group(batch, SLOClass("bulk", 0), 0.0, 1), memo, [0.0], [0])
        with pytest.raises(KeyError):
            sweep._respond(finished, 1.0)
        assert len(sweep.answers) == 0

    def test_executions_outlive_the_server_that_ran_them(self, kernel_calls):
        # replaces test_run_memo_tracks_live_cache_capacity: there is no
        # server-side memo left to bound.  The executions are the cached
        # program's, so a second engine.serve stays warm whatever kwargs
        # it passes, and dropping the program drops them
        from repro.engine import Engine

        engine = Engine(make_tiny_config())
        stream = [
            tiny_request(arrival_s=1e-4 * i, seed=seed, strategy=strategy)
            for i, (seed, strategy) in enumerate(
                [(1, "Dynamic"), (2, "Dynamic"), (1, "S1"), (1, "Dynamic")]
            )
        ]
        cold = engine.serve(stream, max_batch_size=8)
        assert kernel_calls
        del kernel_calls[:]
        warm = engine.serve(stream, max_batch_size=4, return_outputs=False)
        assert kernel_calls == []
        assert warm.cache_misses == 0
        assert all(r.output is None for r in warm.responses)
        assert all(r.output is not None for r in cold.responses)
        engine.cache.invalidate(lambda _key, _program: True)
        engine.serve(stream, max_batch_size=4)
        assert kernel_calls

    @pytest.mark.parametrize("policy", ["patch", "evict"])
    def test_mutation_drops_a_programs_executions(self, policy, kernel_calls):
        from repro.dyngraph import GraphDelta, MutableGraph
        from repro.engine import Engine

        engine = Engine(make_tiny_config())
        graph = MutableGraph(load_dataset("CO", scale=SCALE, seed=3),
                             graph_id="memo")
        engine.register_graph(graph)
        read = [InferenceRequest(model="GCN", dataset="memo")]
        engine.serve(read)
        (old_key,) = engine.cache.keys()
        stale = engine.cache.peek(old_key)
        assert list(stale._runs) == [("Dynamic", 1)]
        outcome = engine.apply_delta(
            "memo", GraphDelta.edges(inserts=[(0, 9)]), policy=policy
        )
        if policy == "patch":
            (new_key,) = engine.cache.keys()
            assert new_key == outcome.patches[0].new_key != old_key
            # a patch is a new program: it starts with no executions, and
            # the one it replaced (in-flight batches may hold it) keeps its own
            assert engine.cache.peek(new_key)._runs == {}
            assert list(stale._runs) == [("Dynamic", 1)]
        else:
            assert engine.cache.keys() == [] and outcome.evictions == 1
        del kernel_calls[:]
        (response,) = engine.serve(read).responses
        assert kernel_calls  # re-simulated on the mutated graph
        data = graph.snapshot()
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        np.testing.assert_allclose(
            response.output,
            reference_inference(model, data.a, data.h0,
                                init_weights(model, seed=0)),
            rtol=1e-4, atol=1e-5,
        )


class TestShardedServingCounters:
    """ServingReport's sharded counters under mixed request streams."""

    def _mixed_report(self):
        server = tiny_server(pool_size=4)
        requests = [
            tiny_request(arrival_s=0.000, shards=2),
            tiny_request(arrival_s=0.000, shards=2),
            tiny_request(arrival_s=0.010),            # unsharded
            tiny_request(arrival_s=0.020, shards=4),
            tiny_request(arrival_s=0.030),            # unsharded
        ]
        return server.serve(requests)

    def test_mixed_stream_counts_only_sharded_batches(self):
        report = self._mixed_report()
        # the two shards=2 requests share a batch_key and micro-batch;
        # the shards=4 request is its own batch; the unsharded two are
        # never counted
        assert report.sharded_batches == 2
        assert report.sharded_requests == 3
        assert report.max_shard_width == 4
        assert report.num_requests == 5

    def test_halo_accounting_is_populated_for_sharded_batches(self):
        report = self._mixed_report()
        assert report.halo_bytes > 0
        assert report.halo_s > 0.0

    def test_responses_carry_their_shard_width(self):
        report = self._mixed_report()
        widths = sorted(r.shards for r in report.responses)
        assert widths == [1, 1, 2, 2, 4]
        sharded = [r for r in report.responses if r.shards > 1]
        # a sharded batch books `shards` pool devices; the response
        # reports the lowest-numbered one
        assert all(0 <= r.device < 4 for r in sharded)

    def test_metrics_snapshot_mirrors_the_counters(self):
        report = self._mixed_report()
        counters = report.metrics["counters"]
        assert counters["serve.sharded_batches"] == report.sharded_batches
        assert counters["serve.sharded_requests"] == report.sharded_requests
        assert counters["serve.halo_bytes"] == report.halo_bytes
        assert report.metrics["gauges"]["serve.max_shard_width"] == \
            report.max_shard_width
        assert report.metrics["histograms"]["serve.latency_s"]["count"] == 5

    def test_unsharded_stream_leaves_counters_at_zero(self):
        server = tiny_server(pool_size=2)
        report = server.serve(
            [tiny_request(arrival_s=0.01 * i) for i in range(3)]
        )
        assert report.sharded_batches == 0
        assert report.sharded_requests == 0
        assert report.max_shard_width == 0
        assert report.halo_bytes == 0 and report.halo_s == 0.0
        assert report.metrics["counters"]["serve.sharded_batches"] == 0

    def test_sharded_outputs_stay_exact_through_the_server(self):
        server = tiny_server(pool_size=2)
        report = server.serve([
            tiny_request(arrival_s=0.0, shards=2),
            tiny_request(arrival_s=0.01),
        ])
        data = load_dataset("CO", scale=SCALE, seed=3)
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        expected = reference_inference(model, data.a, data.h0,
                                       init_weights(model, seed=3))
        for resp in report.responses:
            np.testing.assert_allclose(resp.output, expected, rtol=1e-5,
                                       atol=1e-6)

    def test_report_to_dict_includes_shard_counters_and_metrics(self):
        import json

        report = self._mixed_report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["sharded_batches"] == report.sharded_batches
        assert payload["max_shard_width"] == report.max_shard_width
        assert payload["halo_bytes"] == report.halo_bytes
        assert "serve.halo_bytes" in payload["metrics"]["counters"]


class TestPhaseBreakdown:
    """Per-request queue/compile/execute/barrier decomposition in the
    ServingReport (the serving-trace analytics of repro.obs.analyze)."""

    def _mixed_report(self):
        server = tiny_server(pool_size=4)
        return server.serve([
            tiny_request(arrival_s=0.000, shards=2),
            tiny_request(arrival_s=0.000, shards=2),
            tiny_request(arrival_s=0.010),            # unsharded
            tiny_request(arrival_s=0.020, shards=4),
            tiny_request(arrival_s=0.030),            # unsharded
        ])

    def test_breakdown_has_all_phases_with_percentiles(self):
        report = self._mixed_report()
        assert set(report.phase_breakdown) == {
            "queue_wait", "compile", "execute", "barrier",
        }
        for snap in report.phase_breakdown.values():
            assert snap["count"] == report.num_requests
            assert {"p50", "p95", "p99", "mean", "sum"} <= set(snap)

    def test_phases_decompose_latency_per_request(self):
        report = self._mixed_report()
        for r in report.responses:
            assert r.queue_s + r.execute_s + r.barrier_s == pytest.approx(
                r.latency_s, rel=1e-12
            )

    def test_barrier_matches_sharded_idle_time(self):
        from repro.runtime.executor import run_strategy
        from repro.shard import plan_shards

        server = tiny_server(pool_size=2)
        report = server.serve([tiny_request(arrival_s=0.0, shards=2)])
        (resp,) = report.responses
        program = server.cache.peek(
            tiny_request(shards=2).program_key(server.config)
        )
        result = run_strategy(program, "Dynamic", plan=plan_shards(program, 2))
        expected = result.latency_s - float(np.mean(result.shard_busy_s))
        assert resp.barrier_s == pytest.approx(max(expected, 0.0), rel=1e-9)
        assert report.phase_breakdown["barrier"]["sum"] == pytest.approx(
            resp.barrier_s, rel=1e-9
        )

    def test_unsharded_requests_have_zero_barrier(self):
        server = tiny_server()
        report = server.serve([tiny_request(arrival_s=0.0)])
        (resp,) = report.responses
        assert resp.barrier_s == 0.0
        assert report.phase_breakdown["barrier"]["sum"] == 0.0
        assert report.phase_breakdown["execute"]["sum"] == pytest.approx(
            resp.service_s, rel=1e-12
        )

    def test_breakdown_in_metrics_and_to_dict_and_report(self):
        report = self._mixed_report()
        hists = report.metrics["histograms"]
        for phase in ("queue_wait", "compile", "execute", "barrier"):
            assert f"serve.phase.{phase}_s" in hists
        payload = report.to_dict()
        assert payload["phase_breakdown"] == report.phase_breakdown
        text = report.format_report()
        assert "phase queue_wait" in text and "phase barrier" in text

    def test_empty_sweep_has_empty_phases(self):
        report = tiny_server().serve([])
        for snap in report.phase_breakdown.values():
            assert snap["count"] == 0
