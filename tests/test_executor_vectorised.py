"""The task loop vs the per-task reference loop.

The whole-layer structure-of-arrays pass of
:mod:`repro.runtime.vectorized` is only admissible because it is
*bit-exact* against ``task_oracle.execute_kernel_tasks_reference``
(the per-task, per-pair loop it replaced): same outputs, CycleReport totals,
primitive counts, wave counts and timeline events.  These tests pin that
contract across models, strategies, datasets and sharding, plus the
supporting machinery (TaskBatch SoA, stripe block splitting), the
active-core accounting bugfix the vectorised rewrite surfaced and the
buffer-overflow error.  Whole-program oracle runs substitute the
reference loop for the kernel driver's module-level task loop; nothing
in ``src/`` selects between the two.
"""

import copy
import dataclasses
import re
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.compiler import Compiler
from repro.config import u250_default
from repro.datasets import load_dataset
from repro.datasets.catalog import DatasetSpec, GraphData
from repro.formats.dense import DTYPE
from repro.formats.partition import PartitionedMatrix
from repro.gnn import build_model, init_weights
import repro.runtime.executor as executor_mod
import repro.runtime.vectorized as vectorized_mod
from repro.hw import Accelerator
from repro.hw.buffers import BufferOverflowError
from repro.hw.report import GEMM_CODE, CycleReport
from repro.hw.spmm_unit import scp_cycles
from repro.ir.scheme import TaskBatch
from repro.runtime import CoreTimeline, execute_kernel_tasks, make_strategy
from repro.runtime.executor import KernelAssembly, Lane, run_kernels, run_strategy
from repro.runtime.strategies import Static2
from repro.shard import plan_shards

from conftest import make_tiny_config
from task_oracle import (
    batch_of, execute_kernel_lanes_reference, execute_kernel_tasks_reference, scheme_tasks,
    subset_of,
)
from unit_oracles import spmm_workloads_reference


def _dense(o):
    return o.toarray() if sp.issparse(o) else np.asarray(o)


def _events(result):
    return [
        (e.core, e.start, e.end, e.kernel_id, e.task_index)
        for e in result.timeline_events
    ]


def oracle_run(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the reference loop substituted for
    the driver's task loop — the whole-program oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            executor_mod, "execute_kernel_tasks", execute_kernel_lanes_reference
        )
        return fn(*args, **kwargs)


def assert_results_identical(rv, rr):
    """Bit-exact equality of two InferenceResults (no tolerances)."""
    np.testing.assert_array_equal(_dense(rv.output), _dense(rr.output))
    assert rv.accel_cycles == rr.accel_cycles
    assert rv.exposed_overhead_cycles == rr.exposed_overhead_cycles
    assert rv.runtime_overhead_seconds == rr.runtime_overhead_seconds
    assert _events(rv) == _events(rr)
    for kv, kr in zip(rv.kernel_stats, rr.kernel_stats):
        assert_kernel_stats_identical(kv, kr)


def assert_kernel_stats_identical(kv, kr):
    for f in (
        "cycles", "macs", "bytes_read", "bytes_written",
        "compute_cycles", "memory_cycles", "transform_cycles",
        "profile_cycles", "out_density", "analysis_seconds",
        "num_waves", "tasks_executed", "num_pairs", "exposed_cycles",
        "coo_writebacks",
    ):
        assert getattr(kv, f) == getattr(kr, f), (kv.kernel_id, f)
    assert kv.primitive_counts == kr.primitive_counts
    np.testing.assert_array_equal(kv.core_busy, kr.core_busy)


def zero_slab_data(num_vertices=64, num_features=24, seed=0, slab=(16, 48)):
    """A graph whose adjacency has an all-zero row slab (vertices 16..47)
    wider than the partition size, so whole output partitions of the
    Aggregate kernel carry no work and the runtime skips their tasks."""
    rng = np.random.default_rng(seed)
    a = sp.random(
        num_vertices, num_vertices, density=0.15, format="lil",
        dtype=np.float32, rng=rng,
    )
    a[slice(*slab), :] = 0
    a = a.tocsr()
    a.data = rng.uniform(0.5, 1.5, a.data.shape).astype(np.float32)
    a.eliminate_zeros()
    h0 = rng.uniform(-1, 1, size=(num_vertices, num_features)).astype(DTYPE)
    spec = DatasetSpec(
        "ZS", "ZeroSlab", num_vertices, int(a.nnz), num_features,
        4, 0.1, 1.0, 8, False,
    )
    return GraphData(name="ZS", a=a, h0=h0, spec=spec, scale=1.0, seed=seed)


@pytest.fixture(scope="module")
def co_programs():
    data = load_dataset("CO", scale=0.15, seed=3)
    cfg = make_tiny_config()
    out = {}
    for model_name in ("GCN", "GIN"):
        model = build_model(
            model_name, data.num_features, data.hidden_dim, data.num_classes
        )
        weights = init_weights(model, seed=5)
        out[model_name] = Compiler(cfg).compile(model, data, weights)
    return out


@pytest.fixture(scope="module")
def zero_slab_program():
    # GraphSAGE's mean aggregation (D^-1 A) adds no self-loops, so the
    # zero row slab survives preprocessing and produces skipped tasks
    data = zero_slab_data()
    cfg = make_tiny_config()
    model = build_model(
        "GraphSAGE", data.num_features, data.hidden_dim, data.num_classes
    )
    weights = init_weights(model, seed=7)
    return Compiler(cfg).compile(model, data, weights)


class TestBitExactness:
    @pytest.mark.parametrize("model_name", ["GCN", "GIN"])
    @pytest.mark.parametrize(
        "strategy", ["Dynamic", "S1", "S2", "Oracle", "Fixed-GEMM"]
    )
    def test_matches_reference(self, co_programs, model_name, strategy):
        program = co_programs[model_name]
        rv = run_strategy(program, strategy)
        rr = oracle_run(run_strategy, program, strategy)
        assert_results_identical(rv, rr)

    def test_matches_reference_with_skipped_tasks(self, zero_slab_program):
        rv = run_strategy(zero_slab_program, "Dynamic")
        rr = oracle_run(run_strategy, zero_slab_program, "Dynamic")
        assert_results_identical(rv, rr)
        # the slab really does knock out whole tasks
        assert any(
            ks.tasks_executed < ks.num_tasks for ks in rv.kernel_stats
        )

    def test_sharded_matches_reference(self, co_programs):
        program = co_programs["GCN"]
        plan = plan_shards(program, 2)
        strategy = make_strategy("Dynamic", program.config)
        rv = run_strategy(program, strategy, plan=plan)
        rr = oracle_run(run_strategy, program, strategy, plan=plan)
        np.testing.assert_array_equal(_dense(rv.output), _dense(rr.output))
        assert rv.latency_s == rr.latency_s
        for kv, kr in zip(rv.layers, rr.layers):
            np.testing.assert_array_equal(kv.lane("cycles"), kr.lane("cycles"))
            np.testing.assert_array_equal(kv.seconds, kr.seconds)


#: Dynamic latency (ms) of ``Engine().compile(model, dataset, seed=0)`` at
#: the last commit whose write-back left every output partition dense
DENSE_WRITEBACK_MS = {
    ("GCN", "CO"): 0.04337145103545103,
    ("GraphSAGE", "CO"): 0.42267868866268865,
    ("GIN", "CO"): 0.42147177957177967,
    ("SGC", "CO"): 1.1415275085995087,
    ("GCN", "CI"): 0.07176397051597051,
    ("GraphSAGE", "CI"): 0.9174404141804142,
    ("GIN", "CI"): 0.9068437388557387,
    ("SGC", "CI"): 2.530906388206388,
}


#: GIN and GraphSAGE with pruned weights under the paper's seven cores:
#: (model, dataset, scale, prune) cells where some output partitions leave
#: as COO under S1 and S2 as well as under Dynamic
WRITEBACK_CELLS = [
    ("GIN", "CO", 1.0, 0.9),
    ("GraphSAGE", "CO", 1.0, 0.99),
    ("GIN", "PU", 0.1, 0.99),
    ("GraphSAGE", "CI", 0.4, 0.99),
]


@pytest.fixture(scope="module")
def writeback_programs():
    engine = Engine(u250_default())
    out = {}
    for model, dataset, scale, prune in WRITEBACK_CELLS:
        out[model, dataset, scale, prune] = engine.compile(
            model, dataset, scale=scale, seed=0, prune=prune
        ).program
    return out


def lane_run(program, strategy_name, num_lanes):
    """One walk of ``program`` over ``num_lanes`` lanes: every kernel's
    per-lane stats, each lane's timeline events, the output."""
    if num_lanes == 1:
        lanes = [Lane(Accelerator(program.config))]
    else:
        lanes = [
            Lane(Accelerator(program.config), f"dev{s.index}", (s.v0, s.v1))
            for s in plan_shards(program, num_lanes).shards
        ]
    store: dict = {}
    strategy = make_strategy(strategy_name, program.config)
    stats = [ks for _, ks in run_kernels(program, strategy, lanes, store)]
    events = [
        [(e.core, e.start, e.end, e.kernel_id, e.task_index)
         for e in lane.timeline.events]
        for lane in lanes
    ]
    return stats, events, _dense(store[program.output_name])


class TestCooWriteBack:
    @pytest.mark.parametrize("num_lanes", [1, 2])
    @pytest.mark.parametrize("strategy", ["S1", "S2", "Dynamic"])
    @pytest.mark.parametrize("cell", WRITEBACK_CELLS)
    def test_matches_reference(self, writeback_programs, cell, strategy, num_lanes):
        program = writeback_programs[cell]
        sv, ev, ov = lane_run(program, strategy, num_lanes)
        sr, er, or_ = oracle_run(lane_run, program, strategy, num_lanes)
        np.testing.assert_array_equal(ov, or_)
        assert ev == er
        for lanes_v, lanes_r in zip(sv, sr):
            for kv, kr in zip(lanes_v, lanes_r):
                assert_kernel_stats_identical(kv, kr)
        if num_lanes == 1:  # the rule fires on these cells
            assert sum(ks.coo_writebacks for (ks,) in sv) > 0

    def test_latency_at_or_below_the_dense_write_back(self):
        for (model_name, dataset), before in DENSE_WRITEBACK_MS.items():
            engine = Engine()
            handle = engine.compile(model_name, dataset, seed=0)
            after = engine.infer(handle, strategy="Dynamic").latency_ms
            assert after <= before, (model_name, dataset)
            if (model_name, dataset) == ("GIN", "CI"):
                assert after <= 0.9 * before

    @pytest.mark.parametrize("model_name", ["GCN", "GraphSAGE", "GIN", "SGC"])
    def test_host_assembly_decides_no_write_back(self, model_name, monkeypatch):
        """How the host holds an output decides no modelled quantity: every
        field of every kernel's stats, on CO and a pruned PU cell under
        each strategy, is the same with every partition held dense
        (``SPARSE_HOLDING = 0``) or CSR (above 1) as at the default."""
        engine = Engine()
        handles = [engine.compile(model_name, "CO", seed=0),
                   engine.compile(model_name, "PU", scale=0.25, prune=0.9, seed=0)]

        def runs():
            return [engine.infer(h, strategy=s)
                    for h in handles for s in ("Dynamic", "S1", "S2")]

        default = runs()
        for rho, csr_held in ((0.0, False), (1.5, True)):
            monkeypatch.setattr(vectorized_mod, "SPARSE_HOLDING", rho)
            for held, base in zip(runs(), default):
                assert sp.issparse(held.output) == csr_held
                assert len(held.kernel_stats) == len(base.kernel_stats)
                for kh, kb in zip(held.kernel_stats, base.kernel_stats):
                    for f in dataclasses.fields(kh):
                        np.testing.assert_array_equal(
                            getattr(kh, f.name), getattr(kb, f.name),
                            err_msg=f"{kh.kernel_id}.{f.name} at rho={rho}",
                        )


def _bits(a) -> bytes:
    """Exact float32 bits (``NaN == NaN``, ``-0.0 != +0.0``)."""
    return np.ascontiguousarray(_dense(a), dtype=DTYPE).tobytes()


def assert_canonical_csr(blk):
    """Canonical int32 CSR that stores no zero: rows sorted, no duplicate."""
    assert blk.indptr.dtype == blk.indices.dtype == np.int32
    assert blk.data.dtype == DTYPE
    assert blk.indptr[-1] == blk.indices.size == blk.data.size
    in_row = np.ones(blk.indices.size, dtype=bool)
    in_row[blk.indptr[:-1][np.diff(blk.indptr) > 0]] = False  # row starts
    assert (np.diff(blk.indices)[in_row[1:]] > 0).all()
    assert (blk.data != 0).all()


def assert_same_blocks(blocks_v, blocks_r):
    """Two assemblies' CSR-held partitions, array for array and bit for bit."""
    assert blocks_v.keys() == blocks_r.keys()
    for key, bv in blocks_v.items():
        br = blocks_r[key]
        assert_canonical_csr(bv)
        np.testing.assert_array_equal(bv.indptr, br.indptr)
        np.testing.assert_array_equal(bv.indices, br.indices)
        assert bv.data.tobytes() == br.data.tobytes(), key


@pytest.fixture()
def merged_blocks(monkeypatch):
    """Every block a task merged from its held products, as returned."""
    merged = []
    merge = vectorized_mod._merge_csr_products

    def spy(m, d, products):
        merged.append(merge(m, d, products))
        return merged[-1]

    monkeypatch.setattr(vectorized_mod, "_merge_csr_products", spy)
    return merged


def assembled_run(program, strategy_name):
    """One lane's :func:`lane_run`, plus every kernel's finalized assembly."""
    assemblies = []
    finalize = KernelAssembly.finalize

    def recording(self):
        assemblies.append(self)
        return finalize(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KernelAssembly, "finalize", recording)
        return lane_run(program, strategy_name, 1), assemblies


#: cold cells whose first Aggregate (adjacency x input features, both CSR)
#: holds its tasks' products sparse
HELD_CELLS = [("GIN", "CI"), ("GIN", "CO")]


@pytest.fixture(scope="module")
def held_programs():
    engine = Engine()
    return {cell: engine.compile(*cell, seed=0).program for cell in HELD_CELLS}


class TestHeldSparseTasks:
    """A task whose live pairs all go entry by entry holds its products as
    CSR and writes them merged: outputs, the profiler's counts, every
    CSR-held block, stats and events equal the per-task oracle's."""

    @pytest.mark.parametrize("strategy", ["S1", "S2", "Dynamic"])
    @pytest.mark.parametrize("cell", HELD_CELLS)
    def test_matches_reference(self, held_programs, cell, strategy, merged_blocks):
        program = held_programs[cell]
        (sv, ev, ov), asm_v = assembled_run(program, strategy)
        assert any(b.nnz for b in merged_blocks), "no task held its products"
        (sr, er, or_), asm_r = oracle_run(assembled_run, program, strategy)
        assert _bits(ov) == _bits(or_)
        assert ev == er
        for (kv,), (kr,) in zip(sv, sr, strict=True):
            assert_kernel_stats_identical(kv, kr)
        for av, ar in zip(asm_v, asm_r, strict=True):
            np.testing.assert_array_equal(av.nnz_grid, ar.nnz_grid)
            assert_same_blocks(av.blocks, ar.blocks)
        # the merged blocks are the assembly's own, and were counted by indptr
        first = asm_v[0]
        held = [key for key, blk in first.blocks.items()
                if any(blk is b for b in merged_blocks)]
        assert len(held) == len(merged_blocks)
        for i, k in held:
            assert first.nnz_grid[i, k] == first.blocks[i, k].indptr[-1]

    @pytest.mark.parametrize("strategy", ["S1", "S2", "Dynamic"])
    @pytest.mark.parametrize("cell", HELD_CELLS)
    def test_a_csr_output_is_scipys_stack(self, held_programs, cell, strategy):
        """``finalize`` stacks a CSR output's blocks natively: the arrays
        SciPy's ``vstack`` of ``hstack``s builds, byte and dtype."""
        outputs = []
        finalize = KernelAssembly.finalize

        def recording(self):
            outputs.append((self, finalize(self)))
            return outputs[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KernelAssembly, "finalize", recording)
            run_strategy(held_programs[cell], strategy)
        stacked = [(asm, out) for asm, (out, _) in outputs if asm.block_rows is not None]
        assert stacked, "no kernel output was held as CSR"
        for asm, out in stacked:
            want = sp.vstack([sp.hstack(row, format="csr") for row in asm.block_rows],
                             format="csr")
            assert type(out) is type(want) and out.shape == want.shape
            for name in ("indptr", "indices", "data"):
                got, ref = getattr(out, name), getattr(want, name)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("cell, merges", [(("GIN", "CO"), 8), (("GIN", "CI"), 30)])
    def test_the_holding_rule_moves_no_merge(self, held_programs, cell, merges, merged_blocks):
        """A task holds only when its structural MACs stay below the bound:
        every task that merged before the rule still merges."""
        run_strategy(held_programs[cell], "Dynamic")
        assert len(merged_blocks) == merges

    def test_no_task_holds_products_it_would_spill(self, monkeypatch, merged_blocks):
        """GIN x PU@0.5's Aggregate tasks reach the bound: none holds a
        product (each one ``_csr_csr_product`` makes is added to a ``z``)."""
        program = Engine().compile("GIN", "PU", scale=0.5, seed=0).program
        calls = {"product": 0, "added": 0}
        product, add = vectorized_mod._csr_csr_product, vectorized_mod._add_csr_csr_product

        def counted(name, fn):
            return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)

        monkeypatch.setattr(vectorized_mod, "_csr_csr_product", counted("product", product))
        monkeypatch.setattr(vectorized_mod, "_add_csr_csr_product", counted("added", add))
        run_strategy(program, "Dynamic")
        assert calls["added"] > 0 and calls["product"] == calls["added"]
        assert merged_blocks == []


#: cells whose Dynamic inference sends pairs with CSR X blocks to SPMM
CENSUS_CELLS = [("GIN", "PU", 0.25), ("GraphSAGE", "PU", 0.25), ("SGC", "PU", 0.25),
                ("GIN", "CO", 1.0), ("GIN", "CI", 1.0)]


@pytest.fixture(scope="module")
def census_programs():
    engine = Engine()
    return {cell: engine.compile(cell[0], cell[1], scale=cell[2], seed=0).program
            for cell in CENSUS_CELLS}


class TestPairCensus:
    """The census (one per X block row of a kernel) bills every SPMM pair
    what the one-pair count bills, and the run is the oracle's."""

    @pytest.mark.parametrize("cell", CENSUS_CELLS, ids=lambda c: "{}-{}@{:g}".format(*c))
    def test_spmm_pairs_bill_the_one_pair_path(self, census_programs, cell, monkeypatch):
        program = census_programs[cell]
        taken = []
        census = vectorized_mod.spmm_census

        def spy(x_blocks, y_counts, y_at, d, psys):
            taken.append((x_blocks, y_counts, y_at, census(x_blocks, y_counts, y_at, d, psys)))
            return taken[-1][-1]

        monkeypatch.setattr(vectorized_mod, "spmm_census", spy)
        result = run_strategy(program, "Dynamic")
        cfg = program.config
        checked = 0
        for x_blocks, y_counts, y_at, (loads, macs, _) in taken:
            cycles = scp_cycles(loads, macs, cfg)
            for p, x in enumerate(x_blocks):
                # the pair's Y row counts, as the one-pair count takes them
                y_rows = y_counts[0, y_at[p] : y_at[p] + x.shape[1]]
                want_loads, want_macs = spmm_workloads_reference(x, None, cfg.psys, y_rows)
                assert loads[p].tolist() == want_loads.tolist() and macs[p] == want_macs
                want = int(want_loads.max()) + cfg.pipeline_depth if want_macs else 0
                assert cycles[p] == want
                checked += 1
        spmm = sum(n for ks in result.kernel_stats
                   for prim, n in ks.primitive_counts.items() if prim.name == "SPMM")
        assert 0 < spmm <= checked
        monkeypatch.undo()
        assert_results_identical(result, oracle_run(run_strategy, program, "Dynamic"))


def _csr(shape, entries) -> sp.csr_matrix:
    """A CSR operand from ``(row, col, value)`` triplets, zeros kept stored."""
    rows, cols, vals = zip(*entries)
    return sp.csr_matrix(
        (np.array(vals, dtype=DTYPE), (np.array(rows), np.array(cols))), shape=shape
    )


@pytest.fixture(scope="module")
def gin_tiny():
    """GIN on the 64-vertex graph under the tiny config: its first Aggregate
    multiplies 8 x 8 blocks, so a few stored entries reach the holding
    bound (6.4 of a partition's 64 cells)."""
    data = zero_slab_data()
    model = build_model("GIN", data.num_features, data.hidden_dim, data.num_classes)
    return Compiler(make_tiny_config()).compile(model, data, init_weights(model, seed=7))


def crafted_loops(program, x, y, tasks=None):
    """The first Aggregate of ``program`` over the CSR operands ``x`` and
    ``y`` under S2 (no pair transposed or skipped), its whole task grid
    or ``tasks``, through the task loop and the reference loop: per loop
    ``(output bits, nnz_grid, blocks, stats, events)``."""
    kernel = _aggregate_kernel(program)
    scheme = kernel.exec_scheme
    tasks = scheme.task_batch() if tasks is None else tasks
    runs = []
    for loop in (execute_kernel_tasks, execute_kernel_lanes_reference):
        xv = PartitionedMatrix(x, *scheme.x_blocking)
        yv = PartitionedMatrix(y, *scheme.y_blocking)
        acc = Accelerator(program.config)
        timeline = CoreTimeline(acc.num_cores)
        assembly = KernelAssembly.for_kernel(xv, yv, scheme)
        (stats,) = loop(
            kernel, xv, yv, True, True, make_strategy("S2", acc.config),
            tasks, [(acc, timeline, EVERY_ROW)], assembly, None, None,
        )
        out, _ = assembly.finalize()
        events = [(e.core, e.start, e.end, e.task_index) for e in timeline.events]
        runs.append((_bits(out), assembly.nnz_grid, assembly.blocks, stats, events))
    return runs


def assert_crafted_identical(program, x, y, tasks=None):
    """Both loops agree on everything; the task loop's ``nnz_grid`` and
    CSR-held blocks are returned."""
    (bv, gv, blv, sv, ev), (br, gr, blr, sr, er) = crafted_loops(program, x, y, tasks)
    assert bv == br
    np.testing.assert_array_equal(gv, gr)
    assert_same_blocks(blv, blr)
    assert sv.report == sr.report and sv.counts == sr.counts
    assert ev == er
    return gv, blv


#: operand shapes of ``gin_tiny``'s first Aggregate, and its 8 x 3 tasks
X_SHAPE, Y_SHAPE, TASKS = (64, 64), (64, 24), 24


class TestHeldSparseBuiltCases:
    """Hand-built operands for the cases the real cells may not reach.
    Task (0, 0) is output rows 0-7 by columns 0-7; its pair ``j`` is X's
    columns ``8j .. 8j+7`` against Y's rows ``8j .. 8j+7``.  S2 skips no
    pair, so every task runs and holds (most of them merge nothing)."""

    def test_two_products_cancel_to_zero(self, gin_tiny, merged_blocks):
        x = _csr(X_SHAPE, [(0, 0, 1.0), (0, 8, 1.0), (1, 16, 1.0),
                           (2, 0, 1.0), (2, 8, 1.0), (2, 16, 1.0)])
        y = _csr(Y_SHAPE, [(0, 0, 2.0), (8, 0, -2.0), (16, 0, 3.0)])
        grid, blocks = assert_crafted_identical(gin_tiny, x, y)
        # (0, 0) is 2 - 2: dropped; (2, 0) is (2 - 2) + 3
        assert len(merged_blocks) == TASKS and blocks[0, 0] is merged_blocks[0]
        assert blocks[0, 0].toarray()[:3, 0].tolist() == [0.0, 3.0, 3.0]
        assert grid[0, 0] == 2

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_x_on_the_entry_route(self, gin_tiny, merged_blocks):
        x = _csr(X_SHAPE, [(0, 0, np.inf), (0, 8, np.nan),
                           (1, 0, -np.inf), (1, 9, np.inf)])
        y = _csr(Y_SHAPE, [(0, 0, 1.0), (0, 1, -1.0), (8, 0, 1.0), (9, 0, 1.0)])
        grid, blocks = assert_crafted_identical(gin_tiny, x, y)
        out = blocks[0, 0].toarray()
        assert len(merged_blocks) == TASKS and blocks[0, 0] is merged_blocks[0]
        assert np.isnan(out[0, 0]) and np.isnan(out[1, 0])  # inf + NaN, -inf + inf
        assert out[0, 1] == -np.inf and out[1, 1] == np.inf
        assert grid[0, 0] == 4

    @pytest.mark.parametrize("held_pairs", [0, 3])
    def test_a_task_crossing_the_bound(self, gin_tiny, merged_blocks, held_pairs):
        """Six pairs, the first storing 7 cells (``held_pairs = 0``) or 2,
        each later one 2: the bound (6.4 of 64 cells) is reached by the
        pair after ``held_pairs``, and the last two land on cells already
        summed, in an order the float32 bits depend on."""
        first = 7 if held_pairs == 0 else 2  # cells the first pair stores
        x_entries, y_entries = [], []
        for j in range(6):
            for r in range(2 if j else first):
                x_entries.append((r, 8 * j + r % 8, (j + 1) / 3))
                y_entries.append((8 * j + r % 8, j % 4, 0.1 * (r + 1)))
        grid, blocks = assert_crafted_identical(
            gin_tiny, _csr(X_SHAPE, x_entries), _csr(Y_SHAPE, y_entries))
        # task (0, 0) alone went dense, and its output is held dense
        assert len(merged_blocks) == TASKS - 1 and (0, 0) not in blocks
        assert grid[0, 0] == (first + 6 if held_pairs == 0 else 8)

    def test_a_single_pair_task(self, gin_tiny, merged_blocks):
        """Task (1, 0) with its one pair ``j = 2``: one product, merged
        only to sort its columns."""
        x = _csr(X_SHAPE, [(8, 16, 2.0), (9, 17, -1.0)])
        y = _csr(Y_SHAPE, [(16, 5, 1.0), (16, 2, 0.5), (16, 0, 3.0), (17, 3, 0.25)])
        one = TaskBatch(*(np.array(a) for a in ([1], [0], [2], [0, 1])))
        grid, blocks = assert_crafted_identical(gin_tiny, x, y, one)
        assert [blocks[1, 0] is b for b in merged_blocks] == [True]
        np.testing.assert_array_equal(blocks[1, 0].indices, [0, 2, 5, 3])
        assert grid[1, 0] == 4

    def test_stored_negative_zero_in_both_operands(self, gin_tiny, merged_blocks):
        x = _csr(X_SHAPE, [(0, 0, -0.0), (0, 8, 1.0), (1, 0, -0.0)])
        y = _csr(Y_SHAPE, [(0, 0, -0.0), (0, 1, 2.0), (8, 0, -0.0), (8, 2, 1.0)])
        assert np.signbit(x.data).any() and np.signbit(y.data).any()
        grid, blocks = assert_crafted_identical(gin_tiny, x, y)
        assert len(merged_blocks) == TASKS and blocks[0, 0] is merged_blocks[0]
        out = blocks[0, 0].toarray()
        assert grid[0, 0] == 1 and out[0, 2] == 1.0
        assert not np.signbit(out).any()


#: a lane's block rows when it owns every task
EVERY_ROW = (0, sys.maxsize)
#: where the task loop's arguments hold the strategy, the lanes, the
#: assembly and the accumulate view
STRATEGY, LANES, ASSEMBLY, ACC_VIEW = 5, 7, 8, 9


def _loop_args(program, kernel, acc, tasks):
    """Plumbing for a direct execute_kernel_tasks call on one kernel, one
    lane on ``acc``; ``tasks`` is a TaskBatch or a Task list."""
    if not isinstance(tasks, TaskBatch):
        tasks = batch_of(tasks)
    scheme = kernel.exec_scheme
    xv = program.view(kernel.x_name, *scheme.x_blocking)
    yv = program.view(kernel.y_name, *scheme.y_blocking)
    assembly = KernelAssembly.for_kernel(xv, yv, scheme)
    timeline = CoreTimeline(acc.num_cores)
    return [
        kernel, xv, yv,
        program.stored_sparse[kernel.x_name],
        program.stored_sparse[kernel.y_name],
        make_strategy("Dynamic", acc.config), tasks,
        [(acc, timeline, EVERY_ROW)], assembly, None, None,
    ]


def _timeline(args):
    """The first lane's timeline of :func:`_loop_args`' arguments."""
    return args[LANES][0][1]


def _first_input_kernel(program):
    """The first kernel whose operands are both program inputs and that
    carries no accumulate view (so it can run standalone)."""
    for kernel in program.graph.topo_order():
        if kernel.accumulate_into:
            continue
        return kernel
    raise AssertionError("no standalone kernel in program")


def _aggregate_kernel(program):
    """The first Aggregate kernel (adjacency x input features)."""
    from repro.ir.kernel import KernelType

    for kernel in program.graph.topo_order():
        if kernel.ktype is KernelType.AGGREGATE and not kernel.accumulate_into:
            return kernel
    raise AssertionError("no standalone aggregate kernel in program")


class TestActiveCoreAccounting:
    """Skipped (all-zero) partitions must not inflate the DDR share.

    The reference loop historically set ``active_cores`` from
    ``len(tasks)``; with whole output partitions skipped, fewer tasks
    ever reach a core, so the per-core DDR bandwidth share was
    understated.  Both paths now count *dispatched* tasks.
    """

    @pytest.mark.parametrize("reference", [True, False])
    def test_active_cores_counts_dispatched_only(
        self, zero_slab_program, reference
    ):
        program = zero_slab_program
        kernel = _aggregate_kernel(program)
        acc = Accelerator(program.config)
        args = _loop_args(program, kernel, acc, kernel.exec_scheme.task_batch())
        loop = execute_kernel_lanes_reference if reference else execute_kernel_tasks
        (stats,) = loop(*args)
        assert stats.tasks_executed < kernel.exec_scheme.num_tasks
        expected = min(acc.num_cores, stats.tasks_executed)
        for core in acc.cores:
            assert core.active_cores == expected

    def test_single_dispatched_task_gets_full_bandwidth(
        self, zero_slab_program
    ):
        # slice the task grid down to one live task (plus the skipped
        # ones): with only one task dispatched, it must see the whole
        # DDR bandwidth even though len(tasks) > 1
        program = zero_slab_program
        kernel = _aggregate_kernel(program)
        scheme = kernel.exec_scheme
        acc = Accelerator(program.config)
        all_tasks = scheme_tasks(scheme)
        args = _loop_args(program, kernel, acc, all_tasks)
        execute_kernel_tasks(*args)
        dispatched_rows = {
            all_tasks[e.task_index].out_row
            for e in _timeline(args).events
        }
        live_row = min(dispatched_rows)
        skipped_row = next(
            t.out_row for t in all_tasks if t.out_row not in dispatched_rows
        )
        subset = [
            t for t in all_tasks if t.out_row in (live_row, skipped_row)
        ]
        subset = [t for t in subset if t.out_col == all_tasks[0].out_col]
        assert len(subset) == 2
        acc2 = Accelerator(program.config)
        args2 = _loop_args(program, kernel, acc2, subset)
        (stats2,) = execute_kernel_tasks(*args2)
        assert stats2.tasks_executed == 1
        for core in acc2.cores:
            assert core.active_cores == 1


class TestTaskBatch:
    def test_closed_form_matches_from_tasks(self, co_programs):
        for kernel in co_programs["GCN"].graph.topo_order():
            scheme = kernel.exec_scheme
            got = scheme.task_batch()
            want = batch_of(scheme_tasks(scheme))
            np.testing.assert_array_equal(got.rows, want.rows)
            np.testing.assert_array_equal(got.cols, want.cols)
            np.testing.assert_array_equal(got.js, want.js)
            np.testing.assert_array_equal(got.starts, want.starts)
            assert got is scheme.task_batch()  # cached

    def test_subset_matches_filtered_from_tasks(self, co_programs):
        scheme = co_programs["GCN"].graph.topo_order()[0].exec_scheme
        tasks = scheme_tasks(scheme)
        batch = scheme.task_batch()
        rng = np.random.default_rng(0)
        mask = rng.random(len(tasks)) < 0.5
        sub = subset_of(batch, mask)
        want = batch_of(
            [t for t, m in zip(tasks, mask) if m]
        )
        np.testing.assert_array_equal(sub.rows, want.rows)
        np.testing.assert_array_equal(sub.cols, want.cols)
        np.testing.assert_array_equal(sub.js, want.js)
        np.testing.assert_array_equal(sub.starts, want.starts)


class TestCsrBlocksForRow:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_bit_identical_to_block(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 57, 43
        mat = sp.random(m, n, density=0.2, format="csr", dtype=np.float32,
                        rng=rng)
        pm = PartitionedMatrix(mat, 16, 12)
        for i in range(pm.num_row_blocks):
            blocks = pm.csr_blocks_for_row(i)
            assert len(blocks) == pm.num_col_blocks
            for j, blk in enumerate(blocks):
                # SciPy's own slicing, not pm.block: both read one layout
                ref = mat[i * 16 : (i + 1) * 16, j * 12 : (j + 1) * 12]
                ref.sort_indices()
                assert pm.block(i, j) is blk
                assert blk.shape == ref.shape
                np.testing.assert_array_equal(blk.indptr, ref.indptr)
                np.testing.assert_array_equal(blk.indices, ref.indices)
                np.testing.assert_array_equal(blk.data, ref.data)

    def test_dense_storage_rejected(self):
        pm = PartitionedMatrix(np.ones((8, 8), dtype=DTYPE), 4, 4)
        with pytest.raises(TypeError, match="sparse storage"):
            pm.csr_blocks_for_row(0)

    def test_cache_invalidated_by_structural_delta(self):
        rng = np.random.default_rng(3)
        mat = sp.random(32, 32, density=0.2, format="csr",
                        dtype=np.float32, rng=rng)
        pm = PartitionedMatrix(mat, 8, 8)
        before = pm.csr_blocks_for_row(0)[0].toarray()
        new = mat.tolil()
        new[0, 0] = 2.5
        added = np.array([[0, 0]]) if mat[0, 0] == 0 else np.empty((0, 2))
        pm.apply_structural_delta(
            new.tocsr(),
            added_rows=added[:, 0].astype(np.int64),
            added_cols=added[:, 1].astype(np.int64),
            removed_rows=np.empty(0, dtype=np.int64),
            removed_cols=np.empty(0, dtype=np.int64),
        )
        after = pm.csr_blocks_for_row(0)[0].toarray()
        assert after[0, 0] == np.float32(2.5)
        assert not np.array_equal(before, after)


class TestDegenerateInputs:
    def test_empty_task_list(self, co_programs):
        program = co_programs["GCN"]
        kernel = _first_input_kernel(program)
        acc = Accelerator(program.config)
        args = _loop_args(program, kernel, acc, [])
        (stats,) = execute_kernel_tasks(*args)
        assert stats.tasks_executed == 0
        assert stats.waves == 0
        assert stats.num_pairs == 0
        assert _timeline(args).events == []

    def test_single_task(self, co_programs):
        program = co_programs["GCN"]
        kernel = _first_input_kernel(program)
        tasks = scheme_tasks(kernel.exec_scheme)[:1]
        accs = [Accelerator(program.config) for _ in range(2)]
        (sv,) = execute_kernel_tasks(
            *_loop_args(program, kernel, accs[0], tasks)
        )
        (sr,) = execute_kernel_lanes_reference(
            *_loop_args(program, kernel, accs[1], tasks)
        )
        assert sv.report == sr.report
        assert sv.counts == sr.counts
        assert sv.tasks_executed == sr.tasks_executed == 1

    def test_all_skip_kernel(self, zero_slab_program):
        # restrict to the zero slab's tasks: every pair SKIPs, nothing
        # dispatches, nothing is written
        program = zero_slab_program
        kernel = _aggregate_kernel(program)
        all_tasks = scheme_tasks(kernel.exec_scheme)
        acc = Accelerator(program.config)
        probe = _loop_args(program, kernel, acc, all_tasks)
        execute_kernel_tasks(*probe)
        dispatched_rows = {
            all_tasks[e.task_index].out_row for e in _timeline(probe).events
        }
        dead = [t for t in all_tasks if t.out_row not in dispatched_rows]
        assert dead, "zero slab produced no dead tasks"
        acc2 = Accelerator(program.config)
        args = _loop_args(program, kernel, acc2, dead)
        (stats,) = execute_kernel_tasks(*args)
        assert stats.tasks_executed == 0
        assert stats.report == CycleReport()
        assert _timeline(args).events == []

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_task_subsets_match(self, co_programs, seed):
        program = co_programs["GCN"]
        kernel = _first_input_kernel(program)
        all_tasks = scheme_tasks(kernel.exec_scheme)
        rng = np.random.default_rng(seed)
        mask = rng.random(len(all_tasks)) < rng.uniform(0.1, 0.9)
        subset = [t for t, m in zip(all_tasks, mask) if m]
        accs = [Accelerator(program.config) for _ in range(2)]
        av = _loop_args(program, kernel, accs[0], subset)
        ar = _loop_args(program, kernel, accs[1], subset)
        (sv,) = execute_kernel_tasks(*av)
        (sr,) = execute_kernel_lanes_reference(*ar)
        assert sv.report == sr.report
        assert sv.counts == sr.counts
        assert sv.waves == sr.waves
        evv = [(e.core, e.start, e.end, e.task_index) for e in _timeline(av).events]
        evr = [(e.core, e.start, e.end, e.task_index) for e in _timeline(ar).events]
        assert evv == evr


class TestBufferOverflow:
    """A pair that does not fit BufferU is a typed error raised before
    the loop touches any state — not a silent hand-off to the oracle."""

    def test_overflow_names_the_pair_and_leaves_state_untouched(
        self, co_programs
    ):
        program = co_programs["GCN"]
        kernel = _first_input_kernel(program)
        # same psys (all run_strategy checks), buffers far too small
        # for the partitions this program was compiled into
        small = program.config.replace(
            buffers=dataclasses.replace(
                program.config.buffers, words_per_buffer=8
            )
        )
        acc = Accelerator(small)
        args = _loop_args(program, kernel, acc, kernel.exec_scheme.task_batch())
        timeline, assembly = _timeline(args), args[ASSEMBLY]
        with pytest.raises(BufferOverflowError) as err:
            execute_kernel_tasks(*args)
        message = str(err.value)
        assert kernel.kernel_id in message
        assert re.search(r"X\[\d+,\d+\] @ Y\[\d+,\d+\]", message)
        needed, buffer, held = re.search(
            r"needs (\d+) words, (\w+) holds (\d+)", message
        ).groups()
        assert int(needed) > int(held) == acc.config.buffers.words_per_buffer
        # a dense operand overflowed, and dense operands sit in BufferO
        # (GEMM's X, SpDMM's dense side) or BufferP (GEMM's Y): BufferU
        # holds the COO operand this check never sizes
        assert buffer == "BufferO"
        assert timeline.events == []
        assert not timeline.busy.any()
        assert assembly.out_dense is None and assembly.blocks == {}
        assert assembly.total_out_nnz == 0
        assert acc.memory.ledger.bytes_read == 0
        assert acc.memory.ledger.bytes_written == 0
        assert all(core.active_cores is None for core in acc.cores)

    def test_overflow_surfaces_through_run_strategy(self, co_programs):
        program = co_programs["GCN"]
        small = program.config.replace(
            buffers=dataclasses.replace(
                program.config.buffers, words_per_buffer=8
            )
        )
        with pytest.raises(BufferOverflowError, match="needs"):
            run_strategy(program, "Dynamic", accelerator=Accelerator(small))


# -- one call per kernel, bit-exact per lane --------------------------------
@pytest.fixture(scope="module")
def lane_programs():
    """GCN, GIN and GraphSAGE (its seeded ``accumulate_into`` kernel) on a
    240-vertex graph with a zero slab, the tiny config with the paper's
    seven cores: a lane dispatching fewer tasks than that streams at a DDR
    share of its own."""
    data = zero_slab_data(240, 64, seed=4, slab=(64, 128))
    cfg = make_tiny_config(num_cores=7)
    out = {}
    for name in ("GCN", "GIN", "GraphSAGE"):
        model = build_model(name, data.num_features, data.hidden_dim, data.num_classes)
        out[name] = Compiler(cfg).compile(model, data, init_weights(model, seed=5))
    return out


def vertex_ranges(program, width):
    """Each lane's vertex range: a ``width``-way plan, or (``"empty"``) a
    middle lane that owns no block row of any kernel (what a plan of more
    shards than block rows leaves a kernel blocked wider)."""
    if width == "empty":
        v, cut = program.store["H0"].shape[0], 2 * program.n1
        return [(0, cut), (cut, cut), (cut, v)]
    return [(s.v0, s.v1) for s in plan_shards(program, width).shards]


def lane_state(acc, timeline):
    """What a lane's device carries out of a kernel."""
    return (
        [(e.core, e.start, e.end, e.kernel_id, e.task_index) for e in timeline.events],
        timeline.busy.tolist(), timeline.available.tolist(), timeline.now,
        [(core._last_primitive, core.active_cores) for core in acc.cores],
        (acc.memory.ledger.bytes_read, acc.memory.ledger.bytes_written),
    )


def assert_lanes_match_replay(program, strategy_name, ranges):
    """Walk ``program`` over lanes on ``ranges`` through the kernel driver;
    at every kernel, its one task-loop call must leave each lane what the
    per-task reference leaves a copy of the lane run on the lane's tasks
    alone: the loop's record, the device and timeline state, the output."""
    original = vectorized_mod.execute_kernel_tasks
    calls = []

    def checked(kernel, xv, yv, xs, ys, strategy, tasks, lanes, assembly, acc_view, act):
        devices = copy.deepcopy([(acc, tl) for acc, tl, _ in lanes])
        twin_assembly = copy.deepcopy(assembly)
        got = original(kernel, xv, yv, xs, ys, strategy, tasks, lanes, assembly, acc_view, act)
        want = [
            execute_kernel_tasks_reference(
                kernel, xv, yv, xs, ys, acc, strategy, tl,
                subset_of(tasks, (tasks.rows >= lo) & (tasks.rows < hi)),
                twin_assembly, acc_view, act)
            for (acc, tl), (*_, (lo, hi)) in zip(devices, lanes)
        ]
        assert got == want, kernel.kernel_id
        for (acc, tl, _), (acc_r, tl_r) in zip(lanes, devices):
            assert lane_state(acc, tl) == lane_state(acc_r, tl_r), kernel.kernel_id
        np.testing.assert_array_equal(assembly.nnz_grid, twin_assembly.nnz_grid)
        assert_same_blocks(assembly.blocks, twin_assembly.blocks)
        if assembly.out_dense is not None:
            assert _bits(assembly.out_dense) == _bits(twin_assembly.out_dense)
        calls.append([st.num_tasks for st in got])
        return got

    lanes = [Lane(Accelerator(program.config), f"dev{s}", rows)
             for s, rows in enumerate(ranges)]
    strategy = make_strategy(strategy_name, program.config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor_mod, "execute_kernel_tasks", checked)
        for _ in run_kernels(program, strategy, lanes, {}):
            pass
    assert len(calls) == program.num_kernels
    return calls


class TestOneCallPerKernel:
    """``execute_kernel_tasks`` takes a kernel's whole grid and every lane
    at once: phases 1-3 run over all pairs, each lane keeps its DDR share,
    its dispatch and its totals.  Every lane's record is the per-task
    oracle's on that lane's tasks alone, bit for bit.  Two traps: the
    Analyzer prices a lane that dispatches nothing at full bandwidth, the
    core at ``num_cores`` active (``ExternalMemory.per_core_bytes_per_cycle``
    reads 0 as all); and ``report.memory`` is a sequential scan that
    restarts at each lane's first task."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4, "empty"])
    @pytest.mark.parametrize("strategy", ["Dynamic", "S1", "S2"])
    @pytest.mark.parametrize("model_name", ["GCN", "GIN", "GraphSAGE"])
    def test_each_lane_is_the_reference_on_its_tasks(
            self, lane_programs, model_name, strategy, width):
        program = lane_programs[model_name]
        calls = assert_lanes_match_replay(program, strategy, vertex_ranges(program, width))
        if width == "empty":
            assert all(tasks[1] == 0 for tasks in calls)

    def test_a_lane_that_dispatches_nothing(self, zero_slab_program):
        """The zero slab's lane holds tasks whose every pair skips: no
        core of its device streams, its record bills nothing."""
        ranges = [(0, 16), (16, 48), (48, 64)]
        assert_lanes_match_replay(zero_slab_program, "Dynamic", ranges)
        lanes = [Lane(Accelerator(zero_slab_program.config), f"dev{s}", rows)
                 for s, rows in enumerate(ranges)]
        strategy = make_strategy("Dynamic", zero_slab_program.config)
        aggregate = _aggregate_kernel(zero_slab_program)
        stats = next(ks for kernel, ks in run_kernels(zero_slab_program, strategy, lanes, {})
                     if kernel is aggregate)
        slab = stats[1]
        assert slab.num_tasks > 0 and slab.tasks_executed == 0
        assert slab.modelled_cycles == {label: 0.0 for label in slab.modelled_cycles}
        assert stats[0].tasks_executed > 0

    def test_overflow_names_todays_pair_and_touches_no_lane(self, co_programs):
        """A pair that overflows in a later lane raises before any lane,
        the first included, is touched, naming the pair the lane-by-lane
        calls named."""
        program = co_programs["GIN"]
        kernel = _aggregate_kernel(program)  # A @ H0
        scheme = kernel.exec_scheme
        (n1, _), (_, n2) = scheme.x_blocking, scheme.y_blocking
        assert n1 > n2  # SpDMM's dense Y block fits where GEMM's X block does not
        small = program.config.replace(
            buffers=dataclasses.replace(program.config.buffers, words_per_buffer=n1 * n2))
        tasks = scheme.task_batch()
        xv = program.view(kernel.x_name, *scheme.x_blocking)
        yv = program.view(kernel.y_name, *scheme.y_blocking)
        owned = [(0, 2), (2, 4), (4, sys.maxsize)]
        # GEMM on the X blocks denser than any the first lane reads
        above = int(xv.nnz_grid[:2].max())
        assert (xv.nnz_grid[2:4] > above).any()

        class GemmWhereDense(Static2):
            name = "gemm-where-dense"

            def decide_batch(self, kernel, batch):
                codes, transposed, modelled = super().decide_batch(kernel, batch)
                return np.where(batch.x_nnz > above, GEMM_CODE, codes), transposed, modelled

        strategy = GemmWhereDense(small)

        def call(lanes_owned):
            devices = [(Accelerator(small), CoreTimeline(small.num_cores), rows)
                       for rows in lanes_owned]
            assembly = KernelAssembly.for_kernel(xv, yv, scheme)
            args = [kernel, xv, yv, program.stored_sparse[kernel.x_name],
                    program.stored_sparse[kernel.y_name], strategy, tasks, devices,
                    assembly, None, None]
            with pytest.raises(BufferOverflowError) as err:
                execute_kernel_tasks(*args)
            return str(err.value), devices, assembly

        # the lane-by-lane calls: the first lane runs, the second raises
        ran = []
        with pytest.raises(BufferOverflowError) as today:
            for rows in owned:
                lane_tasks = subset_of(tasks, (tasks.rows >= rows[0]) & (tasks.rows < rows[1]))
                execute_kernel_tasks(
                    kernel, xv, yv, program.stored_sparse[kernel.x_name],
                    program.stored_sparse[kernel.y_name], strategy, lane_tasks,
                    [(Accelerator(small), CoreTimeline(small.num_cores), EVERY_ROW)],
                    KernelAssembly.for_kernel(xv, yv, scheme), None, None)
                ran.append(rows)
        assert ran == owned[:1]
        message, devices, assembly = call(owned)
        assert message == str(today.value)
        for acc, timeline, _ in devices:
            assert timeline.events == [] and not timeline.busy.any()
            assert all(core.active_cores is None and core._last_primitive is None
                       for core in acc.cores)
            assert acc.memory.ledger.bytes_read == acc.memory.ledger.bytes_written == 0
        assert assembly.out_dense is None and assembly.blocks == {}
        assert assembly.total_out_nnz == 0

    def test_lanes_must_cover_the_grid(self, co_programs):
        program = co_programs["GCN"]
        kernel = _first_input_kernel(program)
        args = _loop_args(program, kernel, Accelerator(program.config),
                          kernel.exec_scheme.task_batch())
        acc, timeline, _ = args[LANES][0]
        for owned in ([(1, sys.maxsize)], [(0, 1)], [(0, 1), (2, sys.maxsize)]):
            args[LANES] = [(acc, timeline, rows) for rows in owned]
            with pytest.raises(ValueError, match="consecutive block rows"):
                execute_kernel_tasks(*args)
        assert timeline.events == []
