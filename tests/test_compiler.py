"""Tests for the compiler: parser, Algorithm 9 partitioner, profiling."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import make_tiny_config, random_sparse
from repro import Engine, GraphDelta, MutableGraph, ProgramPatcher, load_dataset
from repro.compiler import Compiler, choose_partition_sizes, parse_model
from repro.compiler.partitioner import tasks_per_kernel
from repro.compiler.sparsity import (
    choose_storage_format,
    profile_matrix,
)
from repro.formats.density import nnz_count
from repro.formats.partition import PartitionedMatrix, SPARSE_STORAGE_THRESHOLD
from repro.gnn import build_model, init_weights
from repro.gnn.layers import GraphMeta
from repro.ir.kernel import KernelType


class TestParser:
    def test_gcn_expansion(self):
        model = build_model("GCN", 32, 16, 4)
        g = parse_model(model, GraphMeta(100, 300))
        kinds = [(k.kernel_id, k.ktype) for k in g.topo_order()]
        assert kinds == [
            ("L1.update", KernelType.UPDATE),
            ("L1.agg", KernelType.AGGREGATE),
            ("L2.update", KernelType.UPDATE),
            ("L2.agg", KernelType.AGGREGATE),
        ]

    def test_sage_expansion_has_three_kernels_per_layer(self):
        model = build_model("GraphSAGE", 32, 16, 4)
        g = parse_model(model, GraphMeta(100, 300))
        assert len(g) == 6
        neigh = g.kernel("L1.update_neigh")
        assert neigh.accumulate_into == "h1_root"

    def test_gin_expansion_agg_then_mlp(self):
        model = build_model("GIN", 32, 16, 4)
        g = parse_model(model, GraphMeta(100, 300))
        order = [k.kernel_id for k in g.topo_order()]
        assert order[:3] == ["L1.agg", "L1.mlp1", "L1.mlp2"]

    def test_sgc_expansion_k_hops(self):
        model = build_model("SGC", 32, 16, 4, hops=3)
        g = parse_model(model, GraphMeta(100, 300))
        aggs = [k for k in g.kernels() if k.ktype is KernelType.AGGREGATE]
        assert len(aggs) == 3
        assert len(g) == 4

    def test_dependencies_follow_dataflow(self):
        model = build_model("GCN", 32, 16, 4)
        g = parse_model(model, GraphMeta(100, 300))
        assert g.successors("L1.update") == ["L1.agg"]
        assert g.predecessors("L2.update") == ["L1.agg"]


class TestPartitioner:
    def test_floor_and_cap_respected(self):
        cfg = make_tiny_config()
        model = build_model("GCN", 64, 16, 4)
        kernels = parse_model(model, GraphMeta(200, 600)).topo_order()
        n1, n2 = choose_partition_sizes(kernels, cfg)
        assert cfg.min_partition_dim <= n2 <= cfg.max_partition_dim
        assert n1 >= n2  # fibers contain whole subfibers
        assert n1 % cfg.psys == 0 and n2 % cfg.psys == 0

    def test_large_workload_meets_eta_constraint(self):
        cfg = make_tiny_config(min_partition_dim=8)
        model = build_model("GCN", 512, 128, 64)
        kernels = parse_model(model, GraphMeta(20_000, 100_000)).topo_order()
        n1, n2 = choose_partition_sizes(kernels, cfg)
        target = cfg.eta * cfg.num_cores
        for k in kernels:
            assert tasks_per_kernel(k, n1, n2) >= target

    def test_caps_at_gso(self):
        cfg = make_tiny_config(max_partition_dim=32)
        model = build_model("GCN", 8192, 512, 512)
        kernels = parse_model(model, GraphMeta(1_000_000, 5_000_000)).topo_order()
        n1, n2 = choose_partition_sizes(kernels, cfg)
        assert n1 <= 32 and n2 <= 32

    def test_empty_kernel_list_rejected(self):
        with pytest.raises(ValueError):
            choose_partition_sizes([], make_tiny_config())


class TestSparsityProfiling:
    def test_storage_threshold(self):
        assert choose_storage_format(0.0)
        assert choose_storage_format(SPARSE_STORAGE_THRESHOLD - 1e-9)
        assert not choose_storage_format(SPARSE_STORAGE_THRESHOLD)
        assert not choose_storage_format(1.0)

    def test_profile_matrix(self):
        mat = random_sparse(40, 30, 0.1, seed=1)
        p = profile_matrix("X", mat)
        assert p.nnz == mat.nnz
        assert p.stored_sparse
        assert p.stored_bytes == 12 * mat.nnz

    def test_profile_dense_matrix(self):
        p = profile_matrix("W", np.ones((10, 10), dtype=np.float32))
        assert not p.stored_sparse
        assert p.stored_bytes == 400


class TestCompiler:
    def test_compile_produces_schemes_and_store(self, tiny_dataset, tiny_config):
        data = tiny_dataset
        model = build_model("GCN", data.num_features, 8, data.num_classes)
        program = Compiler(tiny_config).compile(model, data)
        for k in program.graph.topo_order():
            assert k.exec_scheme is not None
        assert "A_norm" in program.store
        assert "H0" in program.store
        assert "W1" in program.store and "W2" in program.store

    def test_timings_measured(self, tiny_gcn_program):
        program, _, _ = tiny_gcn_program
        t = program.timings
        assert t.parse_s >= 0 and t.partition_s >= 0 and t.profile_s >= 0
        assert t.total_ms == pytest.approx(1e3 * t.total_s)

    def test_weight_validation(self, tiny_dataset, tiny_config):
        data = tiny_dataset
        model = build_model("GCN", data.num_features, 8, data.num_classes)
        w = init_weights(model)
        w["W1"] = w["W1"][:, :-1]  # corrupt the shape
        with pytest.raises(ValueError):
            Compiler(tiny_config).compile(model, data, w)

    def test_feature_dim_validation(self, tiny_dataset, tiny_config):
        model = build_model("GCN", 9999, 8, 3)
        with pytest.raises(ValueError):
            Compiler(tiny_config).compile(model, tiny_dataset)

    def test_view_cache_reuse(self, tiny_gcn_program):
        program, _, _ = tiny_gcn_program
        v1 = program.view("H0", 16, 16)
        v2 = program.view("H0", 16, 16)
        assert v1 is v2
        v3 = program.view("H0", 8, 16)
        assert v3 is not v1

    def test_input_bytes_positive(self, tiny_gcn_program):
        program, _, _ = tiny_gcn_program
        assert program.input_bytes() > 0

    def test_sage_adjacency_variant(self, tiny_dataset, tiny_config):
        data = tiny_dataset
        model = build_model("GraphSAGE", data.num_features, 8, data.num_classes)
        program = Compiler(tiny_config).compile(model, data)
        assert "A_mean" in program.store
        assert "A_norm" not in program.store

    def test_describe(self, tiny_gcn_program):
        program, _, _ = tiny_gcn_program
        text = program.describe()
        assert "GCN" in text and "N1=" in text


def kernel_reads(program):
    """Every ``(stored operand, blocking)`` key the program's kernels read."""
    return {
        (name, *blocking)
        for k in program.graph.topo_order()
        for name, blocking in ((k.x_name, k.exec_scheme.x_blocking),
                               (k.y_name, k.exec_scheme.y_blocking))
        if name in program.store
    }


@st.composite
def stored_operands(draw):
    """Dense / CSR / COO-with-duplicates / explicit-zero forms of a matrix."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dense = rng.integers(-2, 3, size=(m, n)).astype(np.float32)
    dense[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0
    form = draw(st.sampled_from(["dense", "csr", "coo-duplicates", "explicit-zeros"]))
    if form == "dense":
        return dense
    if form == "csr":
        return sp.csr_matrix(dense)
    rows, cols = np.nonzero(np.ones_like(dense))
    if form == "explicit-zeros":  # every cell stored, zeros included
        return sp.csr_matrix((dense.ravel(), (rows, cols)), shape=(m, n))
    # each cell stored twice: as (v + 1, -1), so a zero cell is a (+1, -1) pair
    return sp.coo_matrix(
        (np.concatenate((dense.ravel() + 1, -np.ones(m * n, np.float32))),
         (np.tile(rows, 2), np.tile(cols, 2))), shape=(m, n))


class TestCompileTimeCensus:
    """§III-B: the compiler counts nonzeros per partition, once; a compiled
    (or patched) program holds every view its kernels read."""

    @pytest.mark.parametrize("dataset", ["CO", "CI"])
    @pytest.mark.parametrize("model_name", ["GCN", "GraphSAGE", "GIN", "SGC"])
    def test_profile_is_the_census_total(self, model_name, dataset):
        data = load_dataset(dataset, scale=0.3, seed=1)
        model = build_model(model_name, data.num_features, data.hidden_dim,
                            data.num_classes)
        program = Compiler(make_tiny_config()).compile(model, data)
        assert set(program._views) == kernel_reads(program)
        assert set(program.profiles) == set(program.store)
        assert program.stored_sparse == {
            name: p.stored_sparse for name, p in program.profiles.items()}
        for name, *blocking in program._views:
            assert (program.profiles[name].nnz
                    == program.view(name, *blocking).nnz
                    == nnz_count(program.store[name]))
            assert program.profiles[name] == profile_matrix(name, program.store[name])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mat=stored_operands(), br=st.integers(1, 5), bc=st.integers(1, 5))
    def test_census_total_equals_the_global_count(self, mat, br, bc):
        assert PartitionedMatrix(mat, br, bc).nnz == nnz_count(mat)

    def test_infer_after_compile_scans_no_stored_operand(self, monkeypatch):
        import repro.formats.partition as partition_mod

        scanned = []
        original = partition_mod.block_nnz_grid
        monkeypatch.setattr(
            partition_mod, "block_nnz_grid",
            lambda mat, *blocking: scanned.append(mat) or original(mat, *blocking))
        engine = Engine()
        handle = engine.compile("GraphSAGE", "CO", scale=0.3)
        program = handle.program
        compiled = {key: view for key, view in program._views.items()}
        assert len(scanned) == len(compiled) > 0
        del scanned[:]
        engine.infer(handle)
        assert program._views == compiled
        stored = [view.matrix for view in compiled.values()]
        assert not any(mat is s for mat in scanned for s in stored)

    def test_patched_and_recompiled_programs_hold_the_same_views(self):
        graph = MutableGraph(load_dataset("CO", seed=4))
        snap = graph.snapshot()
        model = build_model("GIN", snap.num_features, snap.hidden_dim,
                            snap.num_classes)
        weights = init_weights(model, seed=0)
        compiler = Compiler(make_tiny_config())
        program = compiler.compile(model, snap, weights)
        applied = graph.apply(GraphDelta.edges(inserts=[(0, 5), (7, 3)],
                                               deletes=[]))
        patched, report = ProgramPatcher().patch(program, graph.snapshot(), applied)
        assert report.patched
        fresh = compiler.compile(model, graph.snapshot(), weights)
        assert set(patched._views) == set(fresh._views) == kernel_reads(fresh)
        for key, view in fresh._views.items():
            np.testing.assert_array_equal(patched._views[key].nnz_grid, view.nnz_grid)
        assert patched.profiles == fresh.profiles
        assert patched._runs == {} and patched._runs is not program._runs
