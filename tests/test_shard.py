"""Tests for `repro.shard`: sharded multi-device execution.

Covers the planner's invariants (contiguous nnz-balanced vertex ranges
aligned to the adjacency blocking, halo accounting), **bit-exactness**
of sharded outputs against the single-device runtime over the
model x dataset x shard-count matrix, the modelled schedule (per-layer
barriers, halo charges, pool booking), and the engine / serving / CLI
integration paths.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from conftest import make_tiny_config

from repro import Compiler, build_model, init_weights, load_dataset
from repro.__main__ import main
from repro.engine import Engine, backend_names
from repro.engine.pool import AcceleratorPool
from repro.ir.kernel import KernelType
from repro.runtime.executor import run_strategy
from repro.runtime.strategies import make_strategy
from repro.serve import InferenceRequest, InferenceServer, synthesize
from repro.shard import (
    ShardedRuntime,
    halo_vertices,
    plan_shards,
    run_sharded,
)

SCALE = 0.22


@lru_cache(maxsize=None)
def compile_program(model_name="GCN", dataset="CO", seed=3):
    cfg = make_tiny_config()
    data = load_dataset(dataset, scale=SCALE, seed=seed)
    model = build_model(
        model_name, data.num_features, data.hidden_dim, data.num_classes
    )
    return Compiler(cfg).compile(model, data, init_weights(model, seed=seed))


@lru_cache(maxsize=None)
def single_result(model_name="GCN", dataset="CO", strategy="Dynamic"):
    """One single-device reference run per matrix cell (shared by the
    per-shard-count tests; the simulator is deterministic)."""
    return run_strategy(compile_program(model_name, dataset), strategy)


@pytest.fixture(scope="module")
def gcn_co():
    return compile_program("GCN", "CO")


class TestPlanner:
    def test_shards_partition_the_vertex_range(self, gcn_co):
        plan = plan_shards(gcn_co, 3)
        assert plan.shards[0].v0 == 0
        assert plan.shards[-1].v1 == plan.num_vertices
        for a, b in zip(plan.shards, plan.shards[1:]):
            assert a.v1 == b.v0
        # interior boundaries land on adjacency block rows
        for s in plan.shards[:-1]:
            assert s.v1 % plan.align_rows == 0

    def test_nnz_is_conserved(self, gcn_co):
        plan = plan_shards(gcn_co, 3)
        a = gcn_co.view(plan.adjacency_name, gcn_co.n1, gcn_co.n1)
        assert plan.total_nnz == a.nnz

    def test_plan_degrades_when_graph_is_too_small(self, gcn_co):
        a = gcn_co.view("A_norm", gcn_co.n1, gcn_co.n1)
        plan = plan_shards(gcn_co, a.num_row_blocks + 5)
        assert plan.num_shards == a.num_row_blocks
        assert plan.requested_shards == a.num_row_blocks + 5
        assert all(s.num_vertices > 0 for s in plan.shards)

    def test_single_shard_has_no_halo(self, gcn_co):
        plan = plan_shards(gcn_co, 1)
        assert plan.num_shards == 1
        assert plan.halo.tolist() == [0]

    def test_halo_counts_are_boundary_vertices(self, gcn_co):
        plan = plan_shards(gcn_co, 2)
        a = gcn_co.store[plan.adjacency_name].tocsr()
        for s in plan.shards:
            expected = halo_vertices(a, s.v0, s.v1)
            assert plan.halo[s.index] == expected
            assert expected <= plan.num_vertices - s.num_vertices

    def test_invalid_shard_count_rejected(self, gcn_co):
        with pytest.raises(ValueError, match="num_shards"):
            plan_shards(gcn_co, 0)

    def test_block_range_covers_every_block_exactly_once(self, gcn_co):
        plan = plan_shards(gcn_co, 3)
        for br in (gcn_co.n1, gcn_co.n2):
            blocks = []
            for s in plan.shards:
                lo, hi = plan.block_range(s, br)
                blocks.extend(range(lo, hi))
            total = -(-plan.num_vertices // br)
            assert blocks == list(range(total))

    def test_describe_mentions_every_shard(self, gcn_co):
        plan = plan_shards(gcn_co, 2)
        text = plan.describe()
        assert "2 shard(s)" in text and "halo" in text


class TestBitExactness:
    """The acceptance matrix: sharded output == single-device output."""

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("dataset", ("CO", "CI"))
    @pytest.mark.parametrize("model", ("GCN", "GIN"))
    def test_matrix(self, model, dataset, shards):
        program = compile_program(model, dataset)
        single = single_result(model, dataset)
        sharded = run_sharded(program, shards)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    @pytest.mark.parametrize("strategy", ("S1", "S2", "Oracle"))
    def test_exact_under_every_strategy(self, gcn_co, strategy):
        single = single_result("GCN", "CO", strategy)
        sharded = run_sharded(gcn_co, 2, strategy_name=strategy)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    def test_graphsage_accumulate_branch_is_exact(self):
        program = compile_program("GraphSAGE", "CO")
        single = run_strategy(program, "Dynamic")
        sharded = run_sharded(program, 3)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    def test_single_shard_matches_single_device_latency(self, gcn_co):
        single = single_result("GCN", "CO")
        sharded = run_sharded(gcn_co, 1)
        assert sharded.latency_s == pytest.approx(single.latency_s, rel=1e-9)
        assert sharded.halo_bytes == 0 and sharded.halo_s == 0.0

    @pytest.mark.parametrize("model", ("GCN", "GraphSAGE"))
    def test_single_device_is_the_one_lane_case(self, model):
        """One shard and one device are the same lane through the same
        driver: identical outputs and, kernel by kernel, identical
        makespans, exposed analysis, pair and task counts."""
        program = compile_program(model, "CO")
        single = run_strategy(program, "Dynamic")
        sharded = run_sharded(program, 1)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )
        assert len(sharded.kernel_stats) == len(single.kernel_stats)
        for sks, ks in zip(sharded.kernel_stats, single.kernel_stats):
            assert sks.kernel_id == ks.kernel_id
            assert sks.shard_cycles[0] == ks.cycles
            assert sks.shard_exposed_cycles[0] == ks.exposed_cycles
            assert sks.shard_pairs[0] == ks.num_pairs
            assert sks.shard_tasks[0] == ks.num_tasks
        assert sharded.runtime_overhead_seconds == single.runtime_overhead_seconds


class TestOneDriver:
    """Single-device and sharded runs go through the one kernel driver:
    a recorder substituted for its module-level task loop sees every
    kernel x lane call of both."""

    def test_run_strategy_is_one_lane_per_kernel(self, gcn_co, kernel_calls):
        result = run_strategy(gcn_co, "Dynamic")
        assert kernel_calls == [
            (ks.kernel_id, "dev0", ks.num_tasks) for ks in result.kernel_stats
        ]

    def test_run_sharded_is_one_call_per_kernel_and_shard(
            self, gcn_co, kernel_calls):
        result = run_sharded(gcn_co, 3)
        assert kernel_calls == [
            (ks.kernel_id, f"shard{s}", int(ks.shard_tasks[s]))
            for ks in result.kernel_stats
            for s in range(result.num_shards)
        ]
        for kernel, ks in zip(gcn_co.graph.topo_order(), result.kernel_stats):
            assert ks.shard_tasks.sum() == kernel.exec_scheme.num_tasks


class TestModelledSchedule:
    def test_latency_is_the_sum_of_layer_barriers(self, gcn_co):
        res = run_sharded(gcn_co, 2)
        assert res.latency_s == pytest.approx(
            sum(ks.barrier_s for ks in res.kernel_stats)
        )
        for ks in res.kernel_stats:
            assert ks.barrier_s == pytest.approx(float(ks.shard_seconds.max()))

    def test_halo_charged_on_aggregate_kernels_only(self, gcn_co):
        res = run_sharded(gcn_co, 2)
        for ks in res.kernel_stats:
            if ks.ktype is KernelType.AGGREGATE:
                assert ks.shard_halo_bytes.sum() > 0
                assert ks.shard_halo_s.sum() > 0
            else:
                assert ks.shard_halo_bytes.sum() == 0

    def test_halo_bytes_match_plan_boundaries(self, gcn_co):
        plan = plan_shards(gcn_co, 2)
        res = run_sharded(gcn_co, 2, plan=plan)
        store = dict(gcn_co.store)
        for ks in res.kernel_stats:
            if ks.ktype is not KernelType.AGGREGATE:
                continue
            kernel = next(
                k for k in gcn_co.graph.topo_order()
                if k.kernel_id == ks.kernel_id
            )
            a = store[kernel.x_name].tocsr()
            for s in plan.shards:
                rows = halo_vertices(a, s.v0, s.v1)
                assert ks.shard_halo_bytes[s.index] == (
                    rows * kernel.output_dim * 4
                )

    def test_booking_records_every_layer_on_the_pool(self, gcn_co):
        pool = AcceleratorPool(gcn_co.config, 2)
        strategy = make_strategy("Dynamic", gcn_co.config)
        plan = plan_shards(gcn_co, 2)
        res = ShardedRuntime(pool, strategy, plan).run(gcn_co)
        assert len(pool.events) == len(res.kernel_stats) * plan.num_shards
        assert pool.makespan_s == pytest.approx(res.latency_s)

    def test_pool_smaller_than_plan_rejected(self, gcn_co):
        pool = AcceleratorPool(gcn_co.config, 1)
        strategy = make_strategy("Dynamic", gcn_co.config)
        with pytest.raises(ValueError, match="grow the pool"):
            ShardedRuntime(pool, strategy, plan_shards(gcn_co, 2))

    def test_load_balance_and_halo_fraction_in_unit_range(self, gcn_co):
        res = run_sharded(gcn_co, 4)
        assert 0.0 < res.load_balance() <= 1.0
        assert 0.0 < res.halo_fraction < 1.0
        assert "shard" in res.format_report()


class TestEngineIntegration:
    @pytest.mark.parametrize("shards", (None, 0, -2, 2.0, "2"))
    def test_invalid_shards_rejected_at_the_engine_boundary(self, shards):
        engine = Engine(make_tiny_config(), pool_size=2)
        with pytest.raises(ValueError, match="shards") as err:
            engine.compile("GCN", "CO", scale=SCALE, seed=3, shards=shards)
        assert repr(shards) in str(err.value)

    def test_compile_with_shards_attaches_a_plan(self):
        engine = Engine(make_tiny_config(), pool_size=2)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3, shards=2)
        assert handle.shard_plan is not None
        assert handle.shard_plan.num_shards == 2
        plain = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        assert plain.shard_plan is None and plain.cache_hit

    def test_sharded_backend_is_registered_and_exact(self):
        assert "sharded" in backend_names()
        engine = Engine(make_tiny_config(), pool_size=2)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3, shards=2)
        sharded = engine.infer(handle, backend="sharded")
        single = engine.infer(handle)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    def test_sharded_backend_defaults_to_pool_width(self):
        engine = Engine(make_tiny_config(), pool_size=3)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3)
        result = engine.infer(handle, backend="sharded")
        assert result.num_shards == 3

    def test_oversized_plan_raises_on_small_pool(self):
        engine = Engine(make_tiny_config(), pool_size=1)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3, shards=2)
        with pytest.raises(ValueError, match="grow the pool"):
            engine.infer(handle, backend="sharded")


class TestServingIntegration:
    def _workload(self, n, shards):
        return synthesize(
            n, models=("GCN",), datasets=("CO",), scale=SCALE,
            rate_rps=2000.0, seed=5, shards=shards,
        )

    def test_sharded_batches_occupy_multiple_devices(self):
        engine = Engine(make_tiny_config(), pool_size=2)
        server = InferenceServer(engine=engine, max_batch_size=4)
        plain = server.serve(self._workload(8, shards=1))
        sharded = server.serve(self._workload(8, shards=2))
        assert plain.sharded_batches == 0
        assert sharded.sharded_batches == sharded.num_batches > 0
        assert sharded.sharded_requests == 8
        assert sharded.max_shard_width == 2
        assert sharded.halo_bytes > 0 and sharded.halo_s > 0
        assert "sharded execution" in sharded.format_report()
        # every booked batch spans both devices
        assert all(r.shards == 2 for r in sharded.responses)
        # functional outputs are unchanged by sharding
        np.testing.assert_array_equal(
            plain.responses[0].output, sharded.responses[0].output
        )

    def test_shards_beyond_pool_rejected(self):
        server = InferenceServer(config=make_tiny_config(), pool_size=1)
        with pytest.raises(ValueError, match="shards"):
            server.serve(self._workload(2, shards=2))

    def test_batch_key_separates_shard_widths(self):
        cfg = make_tiny_config()
        a = InferenceRequest(model="GCN", dataset="CO", scale=SCALE, shards=1)
        b = InferenceRequest(model="GCN", dataset="CO", scale=SCALE, shards=2)
        assert a.program_key(cfg) == b.program_key(cfg)
        assert a.batch_key(cfg) != b.batch_key(cfg)

    def test_estimate_service_covers_sharded_requests(self):
        engine = Engine(make_tiny_config(), pool_size=2)
        server = InferenceServer(engine=engine)
        plain = server.estimate_service_s(
            InferenceRequest(model="GCN", dataset="CO", scale=SCALE, seed=3)
        )
        sharded = server.estimate_service_s(
            InferenceRequest(
                model="GCN", dataset="CO", scale=SCALE, seed=3, shards=2
            )
        )
        assert 0.0 < sharded < plain


class TestShardBenchCLI:
    def test_shard_bench_runs_and_verifies(self, capsys):
        assert main([
            "shard-bench", "--dataset", "CO", "--scale", "0.3",
            "--shards", "1,2", "--plan",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out and "ShardPlan" in out

    def test_bad_shard_list_rejected(self):
        with pytest.raises(SystemExit, match="shards"):
            main(["shard-bench", "--shards", "two"])
        with pytest.raises(SystemExit, match="shards"):
            main(["shard-bench", "--shards", "0"])
