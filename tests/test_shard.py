"""Tests for `repro.shard`: sharded multi-device execution.

Covers the planner's invariants (contiguous cycle-balanced vertex ranges
aligned to the adjacency blocking, halo accounting) and what its cost
buys (four shards beat two, the planned split is the enumerated optimum,
degenerate graphs split evenly), **bit-exactness** of sharded outputs
against the single-device runtime over the model x dataset x shard-count
matrix, the modelled schedule (per-layer barriers, halo transfers
overlapped with compute, pool booking), and the engine / serving / CLI
integration paths.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import make_tiny_config

from repro import Compiler, build_model, init_weights, load_dataset
from repro.config import MemoryConfig, u250_default
from repro.engine import BACKENDS, Engine
from repro.engine.pool import AcceleratorPool
from repro.hw import Accelerator
from repro.ir.kernel import KernelType
from repro.ir.scheme import owned_block_rows
from repro.runtime.executor import run_strategy
from repro.runtime.strategies import make_strategy
from repro.serve import InferenceRequest, estimate_service_s, synthesize
from repro.shard import Shard, ShardPlan, halo_vertices, plan_shards

SCALE = 0.22
MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")


def compile_data(model_name, data, cfg, seed=3):
    model = build_model(
        model_name, data.num_features, data.hidden_dim, data.num_classes
    )
    return Compiler(cfg).compile(model, data, init_weights(model, seed=seed))


@lru_cache(maxsize=None)
def compile_program(model_name="GCN", dataset="CO", seed=3, scale=SCALE,
                    cfg=None):
    data = load_dataset(dataset, scale=scale, seed=seed)
    return compile_data(model_name, data, cfg or make_tiny_config(), seed)


def block_bounds(plan):
    """A plan as block-row boundaries, e.g. ``[0, 7, 14]``."""
    return [s.v0 // plan.align_rows for s in plan.shards] + [
        -(-plan.num_vertices // plan.align_rows)
    ]


def plan_from_bounds(like, bounds):
    """``like``'s program cut at block rows ``bounds`` instead."""
    n1 = like.align_rows
    return ShardPlan(
        num_vertices=like.num_vertices, align_rows=n1,
        shards=[
            Shard(index=i, v0=lo * n1, v1=min(hi * n1, like.num_vertices), nnz=0)
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ],
        adjacency_name=like.adjacency_name, requested_shards=len(bounds) - 1,
    )


def run_plan(program, shards, strategy="Dynamic", *, plan=None, devices=None):
    """``program`` over ``plan`` (else a fresh ``shards``-way plan), one
    lane per shard on ``devices`` (else fresh ones), through the one
    driver."""
    return run_strategy(program, strategy, devices,
                        plan=plan or plan_shards(program, shards))


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
        assert sum(s.nnz for s in plan.shards) == a.nnz

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
                lo, hi = owned_block_rows(s.v0, s.v1, br)
                blocks.extend(range(lo, hi))
            total = -(-plan.num_vertices // br)
            assert blocks == list(range(total))

    def test_describe_mentions_every_shard(self, gcn_co):
        plan = plan_shards(gcn_co, 2)
        head, *rows = plan.describe().splitlines()
        assert "2 shard(s)" in head
        assert ("balanced on modelled cycles of the first Aggregate over "
                "A_norm") in head
        assert len(rows) == 2
        for shard, row in zip(plan.shards, rows):
            assert shard.cost > 0
            assert f"cost {shard.cost:,.0f} cycles nnz {shard.nnz:,}" in row
            assert "halo" in row


class TestPlannerCost:
    """What pricing a shard in modelled cycles buys, on the paper's
    configuration (the U250's 7 cores share one DDR)."""

    #: modelled ms over 2 and 4 shards when the core billed its AHM passes
    #: after the DDR transfer instead of beside it: neither may rise
    SERIAL_AHM_MS = {"GCN": (0.13952, 0.08090), "GIN": (0.96033, 0.71423)}

    @pytest.mark.parametrize("model", ("GCN", "GIN"))
    def test_four_shards_beat_two_on_pubmed(self, model):
        program = compile_program(model, "PU", 0, 0.5, u250_default())
        two = run_plan(program, 2)
        four = run_plan(program, 4)
        assert block_bounds(four.plan) == [0, 3, 7, 10, 14]
        two_ms, four_ms = self.SERIAL_AHM_MS[model]
        assert two.latency_s * 1e3 <= two_ms and four.latency_s * 1e3 <= four_ms
        # hiding the AHM under the transfer shrinks each shard's kernels
        # but not the halo they wait for, so the ratio sits higher than the
        # absolute latencies above: GIN reads 0.709 / 0.939 = 0.755
        assert four.latency_s < 0.76 * two.latency_s
        np.testing.assert_array_equal(
            four.output_dense(), two.output_dense()
        )

    def test_planned_split_is_the_enumerated_optimum(self):
        program = compile_program("GCN", "PU", 0, 0.25, u250_default())
        planned = plan_shards(program, 4)
        rows = block_bounds(planned)[-1]
        assert rows == 7
        splits = [
            [0, *cuts, rows]
            for cuts in itertools.combinations(range(1, rows), 3)
        ]
        assert len(splits) == 20
        best = min(
            run_plan(
                program, 4, plan=plan_from_bounds(planned, bounds)
            ).latency_s
            for bounds in splits
        )
        assert run_plan(program, 4, plan=planned).latency_s <= 1.02 * best

    def test_full_scale_pubmed_splits_evenly(self):
        program = compile_program("GCN", "PU", 0, 1.0, u250_default())
        assert block_bounds(plan_shards(program, 4)) == [0, 7, 14, 21, 28]


class TestDegeneratePlans:
    """Graphs sparsification produces: the cost must not divide by zero,
    the split stays even and the outputs exact."""

    @staticmethod
    def _with_adjacency(a):
        data = load_dataset("CO", scale=SCALE, seed=3)
        return dataclasses.replace(data, a=sp.csr_matrix(a, dtype=np.float32))

    @pytest.mark.parametrize("shards", (2, 3, 4))
    @pytest.mark.parametrize("model", ("GraphSAGE", "GCN"))
    def test_zero_edge_adjacency(self, model, shards):
        # GraphSAGE's mean adjacency then stores nothing at all; GCN's
        # normalised one keeps the self loops, which reference no halo
        n = load_dataset("CO", scale=SCALE, seed=3).num_vertices
        program = compile_data(
            model, self._with_adjacency((n, n)), make_tiny_config()
        )
        sharded = run_plan(program, shards)
        sizes = np.diff(block_bounds(sharded.plan))
        assert sizes.max() - sizes.min() <= 1
        assert all(np.isfinite(s.cost) for s in sharded.plan.shards)
        assert sharded.halo_bytes == 0 and sharded.halo_exposed_s == 0.0
        assert sharded.latency_s == sharded.zero_halo_latency_s()
        np.testing.assert_array_equal(
            sharded.output_dense(),
            run_strategy(program, "Dynamic").output_dense(),
        )

    @pytest.mark.parametrize("model", ("GraphSAGE", "GCN"))
    def test_isolated_vertex_block_rows(self, model):
        n1 = compile_program(model, "CO").n1
        a = load_dataset("CO", scale=SCALE, seed=3).a.tolil()
        a[n1:3 * n1, :] = 0
        a[:, n1:3 * n1] = 0
        program = compile_data(
            model, self._with_adjacency(a.tocsr()), make_tiny_config()
        )
        sharded = run_plan(program, 4)
        assert sharded.num_shards == 4
        assert all(np.isfinite(s.cost) and s.cost > 0
                   for s in sharded.plan.shards)
        np.testing.assert_array_equal(
            sharded.output_dense(),
            run_strategy(program, "Dynamic").output_dense(),
        )

    def test_more_shards_than_block_rows(self, gcn_co):
        rows = gcn_co.view("A_norm", gcn_co.n1, gcn_co.n1).num_row_blocks
        pool = AcceleratorPool(gcn_co.config, rows + 5)
        sharded = run_plan(gcn_co, rows + 5, devices=pool.devices)
        assert sharded.num_shards == rows
        assert np.diff(block_bounds(sharded.plan)).tolist() == [1] * rows
        np.testing.assert_array_equal(
            sharded.output_dense(), single_result("GCN", "CO").output_dense()
        )


class TestBitExactness:
    """The acceptance matrix: sharded output == single-device output."""

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("dataset", ("CO", "CI"))
    @pytest.mark.parametrize("model", ("GCN", "GIN"))
    def test_matrix(self, model, dataset, shards):
        program = compile_program(model, dataset)
        single = single_result(model, dataset)
        sharded = run_plan(program, shards)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    @pytest.mark.parametrize("strategy", ("S1", "S2", "Oracle"))
    def test_exact_under_every_strategy(self, gcn_co, strategy):
        single = single_result("GCN", "CO", strategy)
        sharded = run_plan(gcn_co, 2, strategy)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    def test_graphsage_accumulate_branch_is_exact(self):
        program = compile_program("GraphSAGE", "CO")
        single = run_strategy(program, "Dynamic")
        sharded = run_plan(program, 3)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )

    def test_single_shard_matches_single_device_latency(self, gcn_co):
        single = single_result("GCN", "CO")
        sharded = run_plan(gcn_co, 1)
        assert sharded.latency_s == single.latency_s  # one lane sums cycles
        assert sharded.halo_bytes == 0 and sharded.halo_s == 0.0

    @pytest.mark.parametrize("model", ("GCN", "GraphSAGE"))
    def test_single_device_is_the_one_lane_case(self, model):
        """One shard and one device are the same lane through the same
        driver: identical outputs and, kernel by kernel, identical
        makespans, exposed analysis, pair and task counts."""
        program = compile_program(model, "CO")
        single = run_strategy(program, "Dynamic")
        sharded = run_plan(program, 1)
        np.testing.assert_array_equal(
            sharded.output_dense(), single.output_dense()
        )
        assert len(sharded.layers) == len(single.layers)
        for layer, ks in zip(sharded.layers, single.kernel_stats):
            (sks,) = layer.lanes
            assert sks.kernel_id == ks.kernel_id
            assert sks.cycles == ks.cycles
            assert sks.exposed_cycles == ks.exposed_cycles
            assert sks.num_pairs == ks.num_pairs
            assert sks.num_tasks == ks.num_tasks
        assert sharded.runtime_overhead_seconds == single.runtime_overhead_seconds


class TestOneDeviceIsThePlanOfWidthOne:
    """An unsharded run is the one-shard plan: the sharded backend on a
    one-device pool returns the same run, number for number (the serve
    path replays it as the unsharded record: ``test_serve_path``)."""

    @pytest.mark.parametrize("model,dataset", (("GIN", "CI"), ("GraphSAGE", "CO")))
    def test_sharded_backend_on_one_device_is_the_unsharded_run(self, model, dataset):
        engine = Engine(u250_default(), pool_size=1)
        handle = engine.compile(model, dataset, seed=0)
        single = engine.infer(handle)
        one = engine.infer(handle, backend="sharded")
        assert one.num_shards == 1
        np.testing.assert_array_equal(one.output_dense(), single.output_dense())
        assert one.latency_s == single.latency_s
        assert one.total_cycles == single.total_cycles
        assert one.segments_s == single.segments_s
        assert one.load_balance() == single.load_balance()
        assert one.barrier_s == 0.0


class TestOneDriver:
    """Single-device and sharded runs go through the one kernel driver:
    a recorder substituted for its module-level task loop sees one call
    per kernel, carrying every lane of both."""

    def test_run_strategy_is_one_lane_per_kernel(self, gcn_co, kernel_calls):
        device = Accelerator(gcn_co.config)
        result = run_strategy(gcn_co, "Dynamic", device)
        assert kernel_calls == [
            (ks.kernel_id, [device], [ks.num_tasks]) for ks in result.kernel_stats
        ]

    def test_run_sharded_is_one_call_per_kernel_and_shard(self, gcn_co, kernel_calls):
        devices = AcceleratorPool(gcn_co.config, 3).devices
        result = run_plan(gcn_co, 3, devices=devices)
        assert kernel_calls == [
            (layer.kernel_id, devices, layer.lane("num_tasks").tolist())
            for layer in result.layers
        ]
        for kernel, layer in zip(gcn_co.graph.topo_order(), result.layers):
            assert layer.lane("num_tasks").sum() == kernel.exec_scheme.num_tasks


class TestModelledSchedule:
    def test_latency_is_the_sum_of_layer_barriers(self, gcn_co):
        res = run_plan(gcn_co, 2)
        assert res.latency_s == pytest.approx(
            sum(ks.barrier_s for ks in res.layers)
        )
        for ks in res.layers:
            assert ks.barrier_s == pytest.approx(float(ks.seconds.max()))

    def test_a_transfer_that_outlasts_compute_shows_its_excess(self):
        """The branch no ledger cell reaches: on a slow interconnect the
        halo is longer than the compute it streams under."""
        cfg = make_tiny_config(memory=MemoryConfig(pcie_gbps=0.05))
        res = run_plan(compile_program("GCN", "CO", cfg=cfg), 2)
        outlasted = 0
        for ks in res.layers:
            compute = cfg.cycles_to_seconds(
                ks.lane("cycles") + ks.lane("exposed_cycles")
            )
            if ks.ktype is not KernelType.AGGREGATE:
                assert not ks.exposed_halo_s.any()
                continue
            assert (ks.halo_s > compute).all()
            assert (ks.halo_chunks > 1).all()
            lead_in = ks.halo_s / ks.halo_chunks
            np.testing.assert_array_equal(
                ks.exposed_halo_s,
                lead_in + (ks.halo_s - compute),
            )
            np.testing.assert_array_equal(
                ks.seconds, ks.exposed_halo_s + compute
            )
            outlasted += 1
        assert outlasted == 2

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("dataset,scale", (("CO", SCALE), ("PU", 0.08)))
    @pytest.mark.parametrize("model", MODELS)
    def test_schedule_sits_between_its_oracles(self, model, dataset, scale,
                                               shards):
        """free halos <= perfect overlap <= the schedule <= no overlap,
        and the schedule is within one lead-in per layer of perfect; the
        two retired schedules are written out here from the per-shard
        arrays."""
        program = compile_program(model, dataset, scale=scale)
        res = run_plan(program, shards)
        perfect = serial = lead_in = 0.0
        for ks in res.layers:
            compute = program.config.cycles_to_seconds(
                ks.lane("cycles") + ks.lane("exposed_cycles")
            )
            perfect += float(np.max(np.maximum(ks.halo_s, compute)))
            serial += float(np.max(ks.halo_s + compute))
            lead_in += float(np.max(
                ks.halo_s / np.maximum(ks.halo_chunks, 1)
            ))
        ulps = 1 + 1e-12
        assert res.zero_halo_latency_s() <= perfect <= res.latency_s * ulps
        assert res.latency_s <= serial * ulps
        assert res.latency_s - perfect <= lead_in * ulps
        assert res.halo_exposed_s < res.halo_s

    @pytest.mark.parametrize("dataset", ("CO", "CI"))
    @pytest.mark.parametrize("model", ("GCN", "GIN"))
    def test_k2p_exposure_is_bit_for_bit_what_it_was(self, model, dataset):
        """The formula the halo now shares still gives K2P analysis the
        cycles its own statement of it did."""
        soft = Accelerator(make_tiny_config()).soft_processor
        to_cycles = soft.seconds_to_accel_cycles
        for ks in single_result(model, dataset).kernel_stats:
            a_cycles = to_cycles(ks.analysis_seconds)
            assert a_cycles > 0.0
            lead_in = a_cycles / max(ks.num_tasks, 1)
            assert ks.exposed_cycles == lead_in + max(0.0, a_cycles - ks.cycles)

    def test_halo_charged_on_aggregate_kernels_only(self, gcn_co):
        res = run_plan(gcn_co, 2)
        for ks in res.layers:
            if ks.ktype is KernelType.AGGREGATE:
                assert ks.halo_bytes.sum() > 0
                assert ks.halo_s.sum() > 0
            else:
                assert ks.halo_bytes.sum() == 0

    def test_halo_bytes_match_plan_boundaries(self, gcn_co):
        plan = plan_shards(gcn_co, 2)
        res = run_plan(gcn_co, 2, plan=plan)
        store = dict(gcn_co.store)
        for ks in res.layers:
            if ks.ktype is not KernelType.AGGREGATE:
                continue
            kernel = next(
                k for k in gcn_co.graph.topo_order()
                if k.kernel_id == ks.kernel_id
            )
            a = store[kernel.x_name].tocsr()
            for s in plan.shards:
                rows = halo_vertices(a, s.v0, s.v1)
                assert ks.halo_bytes[s.index] == (
                    rows * kernel.output_dim * 4
                )

    def test_booking_records_every_layer_on_the_pool(self):
        # the engine books a caller's sharded run as one booking on the
        # devices its lanes ran on, held to the chained layer barriers
        engine = Engine(make_tiny_config(), pool_size=2)
        handle = engine.compile("GCN", "CO", scale=SCALE, seed=3, shards=2)
        res = engine.infer(handle, backend="sharded")
        pool = engine.pool
        assert len(pool.events) == res.num_shards
        assert [e.device for e in pool.events] == list(range(res.num_shards))
        for lane in range(res.num_shards):
            assert pool.busy[lane] == sum(float(layer.seconds[lane]) for layer in res.layers)
        barriers = [layer.barrier_s for layer in res.layers]
        assert pool.makespan_s == list(itertools.accumulate(barriers))[-1]

    def test_pool_smaller_than_plan_rejected(self, gcn_co):
        pool = AcceleratorPool(gcn_co.config, 1)
        strategy = make_strategy("Dynamic", gcn_co.config)
        with pytest.raises(ValueError, match="grow the pool"):
            run_plan(gcn_co, 2, strategy, devices=pool.devices,
                     plan=plan_shards(gcn_co, 2))

    def test_report_and_dict_split_halo_into_hidden_and_exposed(self, gcn_co):
        res = run_plan(gcn_co, 2)
        assert "halo hidden/exposed ms" in res.format_report()
        summary = res.to_dict()
        for row, ks in zip(summary["kernels"], res.layers):
            assert row["halo_exposed_ms"] == (
                float(ks.exposed_halo_s.max()) * 1e3
            )
        assert 0.0 < res.halo_exposed_s < res.halo_s == summary["halo_s"]

    def test_load_balance_and_halo_fraction_in_unit_range(self, gcn_co):
        res = run_plan(gcn_co, 4)
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
        assert "sharded" in BACKENDS
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
        plain = engine.serve(self._workload(8, shards=1), max_batch_size=4)
        sharded = engine.serve(self._workload(8, shards=2), max_batch_size=4)
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
        with pytest.raises(ValueError, match="shards"):
            Engine(make_tiny_config(), pool_size=1).serve(self._workload(2, shards=2))

    def test_batch_key_separates_shard_widths(self):
        cfg = make_tiny_config()
        a = InferenceRequest(model="GCN", dataset="CO", scale=SCALE, shards=1)
        b = InferenceRequest(model="GCN", dataset="CO", scale=SCALE, shards=2)
        assert a.program_key(cfg) == b.program_key(cfg)
        assert a.batch_key(cfg) != b.batch_key(cfg)

    def test_estimate_service_covers_sharded_requests(self):
        engine = Engine(make_tiny_config(), pool_size=2)
        plain = estimate_service_s(
            engine, InferenceRequest(model="GCN", dataset="CO", scale=SCALE, seed=3)
        )
        sharded = estimate_service_s(
            engine, InferenceRequest(
                model="GCN", dataset="CO", scale=SCALE, seed=3, shards=2
            )
        )
        assert 0.0 < sharded < plain
