"""Tests for `repro.dyngraph`: mutation semantics, incremental
re-profiling exactness, program patching, and serve integration."""

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import formula_adjacency
from hypothesis import given, settings, strategies as st

from repro import Compiler, build_model, init_weights, load_dataset
from repro.compiler.compile import CompiledProgram
from repro.compiler.sparsity import profile_matrix, update_profile
from repro.runtime.executor import run_strategy
from repro.config import u250_default
from repro.datasets.catalog import DatasetSpec, GraphData
import repro.dyngraph.patcher as patcher_mod
from repro.dyngraph import (
    GraphDelta,
    MutableGraph,
    ProgramPatcher,
    random_delta,
    variant_structural_delta,
)
from repro.formats.dense import DTYPE
from repro.formats.partition import PartitionedMatrix
from repro.gnn.adjacency import ADJACENCY_BUILDERS
from repro.engine import Engine
from repro.engine.cache import ProgramCache
from repro.serve import (
    InferenceRequest,
    MutationRequest,
    churn_stream,
)

CFG = u250_default()


def tiny_graph(num_vertices=12, num_features=6, density=0.2, seed=0,
               sparse_features_=False):
    """A hand-built GraphData small enough for exhaustive checking."""
    rng = np.random.default_rng(seed)
    a = sp.random(
        num_vertices, num_vertices, density=density, random_state=rng,
        data_rvs=lambda n: rng.uniform(0.5, 2.0, n),
    ).tocsr().astype(DTYPE)
    a.setdiag(0)
    a.eliminate_zeros()
    h0 = rng.uniform(-1, 1, size=(num_vertices, num_features)).astype(DTYPE)
    h0[rng.random(h0.shape) < 0.4] = 0.0
    if sparse_features_:
        h0 = sp.csr_matrix(h0)
    spec = DatasetSpec("T", "Tiny", num_vertices, int(a.nnz), num_features,
                       3, 0.1, 0.5, 4, False)
    return GraphData(name="T", a=a, h0=h0, spec=spec, scale=1.0, seed=seed)


class TestGraphDelta:
    def test_validation(self):
        with pytest.raises(ValueError, match="align"):
            GraphDelta(insert_rows=np.array([1]), insert_cols=np.array([2, 3]),
                       insert_vals=np.array([1.0]))
        with pytest.raises(ValueError, match="positive"):
            GraphDelta.edges(inserts=[(0, 1, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            GraphDelta.edges(inserts=[(0, 1, -1.0)])
        with pytest.raises(ValueError, match="self-loop"):
            GraphDelta.edges(inserts=[(2, 2)])
        with pytest.raises(ValueError, match="negative"):
            GraphDelta.edges(deletes=[(-1, 0)])

    def test_sizes_and_fraction(self):
        d = GraphDelta.edges(inserts=[(0, 1), (1, 2)], deletes=[(3, 4)],
                             features=[(0, 0, 2.0)])
        assert d.num_edge_changes == 3
        assert d.num_feature_changes == 1
        assert not d.is_empty
        assert d.edge_fraction(30) == pytest.approx(0.1)
        assert GraphDelta().is_empty


class TestMutableGraph:
    def test_insert_delete_and_noop_filtering(self):
        g = MutableGraph(tiny_graph(), symmetric=False)
        a0 = g.snapshot().a
        rows, cols = a0.nonzero()
        present = (int(rows[0]), int(cols[0]))
        absent = next(
            (i, j) for i in range(12) for j in range(12)
            if i != j and a0[i, j] == 0
        )
        applied = g.apply(GraphDelta.edges(
            inserts=[absent], deletes=[present, (absent[1], absent[0])]
        ))
        # the absent-edge delete is filtered; insert and real delete land
        assert applied.a_added_rows.size == 1
        assert applied.a_removed_rows.size == 1
        assert applied.a_nnz_delta == 0
        assert g.version == 1
        a1 = g.snapshot().a
        assert a1[absent] == DTYPE(1.0)
        assert a1[present] == 0
        # snapshots are immutable: the old version still has its bytes
        assert a0[present] != 0 and a0[absent] == 0

    def test_insert_existing_edge_is_value_update(self):
        g = MutableGraph(tiny_graph(), symmetric=False)
        rows, cols = g.snapshot().a.nonzero()
        edge = (int(rows[0]), int(cols[0]))
        applied = g.apply(GraphDelta.edges(inserts=[(*edge, 9.0)]))
        assert applied.a_added_rows.size == 0
        assert applied.a_updated_rows.size == 1
        assert applied.a_nnz_delta == 0
        assert g.snapshot().a[edge] == DTYPE(9.0)

    def test_noop_delta_does_not_bump_version(self):
        g = MutableGraph(tiny_graph(), symmetric=False)
        a0 = g.snapshot().a
        i, j = (int(x[0]) for x in a0.nonzero())
        val = float(a0[i, j])
        applied = g.apply(GraphDelta.edges(
            inserts=[(i, j, val)], deletes=[(5, 6) if a0[5, 6] == 0 else (6, 7)]
        ))
        assert applied.version_from == applied.version_to == 0
        assert g.version == 0 and not g.log

    def test_symmetric_mirroring(self):
        data = tiny_graph()
        sym = (data.a + data.a.T).tocsr()
        g = MutableGraph(
            GraphData("S", sym, data.h0, data.spec, 1.0, 0), symmetric=True
        )
        absent = next(
            (i, j) for i in range(12) for j in range(i + 1, 12)
            if sym[i, j] == 0 and sym[j, i] == 0
        )
        applied = g.apply(GraphDelta.edges(inserts=[absent]))
        assert applied.a_added_rows.size == 2  # both directions
        a1 = g.snapshot().a
        assert a1[absent] == a1[absent[::-1]] == DTYPE(1.0)

    def test_symmetric_conflicting_directions_stay_symmetric(self):
        data = tiny_graph()
        sym = (data.a + data.a.T).tocsr()
        g = MutableGraph(
            GraphData("S", sym, data.h0, data.spec, 1.0, 0), symmetric=True
        )
        absent = next(
            (i, j) for i in range(12) for j in range(i + 1, 12)
            if sym[i, j] == 0 and sym[j, i] == 0
        )
        # (r, c) and (c, r) name the same undirected edge: last wins for
        # BOTH directions — the adjacency must stay symmetric
        g.apply(GraphDelta.edges(
            inserts=[(*absent, 2.0), (absent[1], absent[0], 3.0)]
        ))
        a1 = g.snapshot().a
        assert a1[absent] == a1[absent[::-1]] == DTYPE(3.0)
        assert (abs(a1 - a1.T)).nnz == 0

    @pytest.mark.parametrize("sparse_h", [False, True])
    def test_feature_updates(self, sparse_h):
        g = MutableGraph(tiny_graph(sparse_features_=sparse_h), symmetric=False)
        h0 = g.snapshot().h0
        dense0 = h0.toarray() if sp.issparse(h0) else np.array(h0)
        nz = tuple(int(x[0]) for x in np.nonzero(dense0))
        z = tuple(int(x[0]) for x in np.nonzero(dense0 == 0))
        applied = g.apply(GraphDelta.edges(features=[
            (*nz, 0.0),        # kill a stored nonzero
            (*z, 3.5),         # populate a zero
        ]))
        assert applied.h_nnz_delta == 0
        h1 = g.snapshot().h0
        dense1 = h1.toarray() if sp.issparse(h1) else np.asarray(h1)
        assert dense1[nz] == 0 and dense1[z] == DTYPE(3.5)
        # old snapshot untouched
        redense0 = h0.toarray() if sp.issparse(h0) else np.asarray(h0)
        np.testing.assert_array_equal(redense0, dense0)
        if sp.issparse(h1):
            assert np.all(h1.data != 0), "no explicit zeros after rebuild"

    def test_duplicate_coordinates_last_wins(self):
        g = MutableGraph(tiny_graph(), symmetric=False)
        absent = next(
            (i, j) for i in range(12) for j in range(12)
            if i != j and g.snapshot().a[i, j] == 0
        )
        applied = g.apply(GraphDelta.edges(
            inserts=[(*absent, 1.0), (*absent, 2.0)]
        ))
        assert applied.a_added_rows.size == 1
        assert g.snapshot().a[absent] == DTYPE(2.0)


@st.composite
def mutation_chains(draw):
    seed = draw(st.integers(0, 10_000))
    steps = draw(st.integers(1, 4))
    return seed, steps


class TestIncrementalReprofiling:
    """Property: incrementally-maintained nnz grids, densities and
    profiles are bit-identical to a from-scratch rebuild, for random
    mutation sequences."""

    @given(mutation_chains())
    @settings(max_examples=25, deadline=None)
    def test_grids_and_profiles_match_rebuild(self, chain):
        seed, steps = chain
        data = tiny_graph(num_vertices=16, num_features=5, seed=seed)
        g = MutableGraph(data, symmetric=False)
        views = {
            name: PartitionedMatrix(ADJACENCY_BUILDERS[name](g.snapshot().a),
                                    5, 3, name=name)
            for name in ("A_norm", "A_mean", "A_gin")
        }
        h_view = PartitionedMatrix(g.snapshot().h0, 4, 2, name="H0")
        profiles = {
            name: profile_matrix(name, views[name].matrix) for name in views
        }
        profiles["H0"] = profile_matrix("H0", g.snapshot().h0)

        for step in range(steps):
            delta = random_delta(
                g.num_vertices, 5, edge_inserts=4, edge_deletes=4,
                feature_updates=3, seed=seed + 17 * step,
            )
            applied = g.apply(delta)
            snap = g.snapshot()
            for name in views:
                patched = ADJACENCY_BUILDERS[name](snap.a)
                ar, ac, rr, rc = variant_structural_delta(name, applied)
                views[name], _ = PartitionedMatrix.from_patched(
                    views[name], patched, ar, ac, rr, rc
                )
                rebuilt = PartitionedMatrix(patched, 5, 3, name=name)
                np.testing.assert_array_equal(
                    views[name].nnz_grid, rebuilt.nnz_grid
                )
                np.testing.assert_array_equal(
                    views[name].density_grid, rebuilt.density_grid
                )
                profiles[name] = update_profile(
                    profiles[name], int(ar.size) - int(rr.size)
                )
                assert profiles[name] == profile_matrix(name, patched)
            h_view, _ = PartitionedMatrix.from_patched(
                h_view, snap.h0, *applied.h_structural()
            )
            h_rebuilt = PartitionedMatrix(snap.h0, 4, 2, name="H0")
            np.testing.assert_array_equal(h_view.nnz_grid, h_rebuilt.nnz_grid)
            profiles["H0"] = update_profile(profiles["H0"], applied.h_nnz_delta)
            assert profiles["H0"] == profile_matrix("H0", snap.h0)

    def test_variant_values_bit_identical(self):
        g = MutableGraph(load_dataset("CO", seed=2))
        for step in range(3):
            g.apply(random_delta(g.num_vertices, 4, edge_inserts=10,
                                 edge_deletes=10, seed=step))
            a = g.snapshot().a
            for name, builder in ADJACENCY_BUILDERS.items():
                fresh, patched = formula_adjacency(name, a), builder(a)
                np.testing.assert_array_equal(fresh.indptr, patched.indptr)
                np.testing.assert_array_equal(fresh.indices, patched.indices)
                np.testing.assert_array_equal(fresh.data, patched.data)


class TestPartitionedMatrixDelta:
    def test_shape_mismatch_rejected(self):
        pm = PartitionedMatrix(sp.eye(6, format="csr", dtype=DTYPE), 2, 2)
        with pytest.raises(ValueError, match="shape"):
            pm.apply_structural_delta(
                sp.eye(7, format="csr", dtype=DTYPE),
                *(np.empty(0, np.int64),) * 4,
            )

    def test_over_removal_rejected_without_torn_state(self):
        original = sp.eye(6, format="csr", dtype=DTYPE)
        pm = PartitionedMatrix(original, 2, 2)
        grid_before = pm.nnz_grid.copy()
        with pytest.raises(ValueError, match="negative"):
            # block (0, 1) holds no nonzeros: removing from it must fail
            pm.apply_structural_delta(
                sp.eye(6, format="csr", dtype=DTYPE) * 2,
                np.array([0]), np.array([1]),
                np.array([0]), np.array([2]),
            )
        # the failed delta must not leave the view half-patched
        assert pm.matrix is original
        np.testing.assert_array_equal(pm.nnz_grid, grid_before)

    def test_dirty_blocks_reported(self):
        pm = PartitionedMatrix(sp.eye(8, format="csr", dtype=DTYPE), 4, 4)
        new = sp.eye(8, format="csr", dtype=DTYPE).tolil()
        new[0, 7] = 1.0
        patched, dirty = PartitionedMatrix.from_patched(
            pm, new.tocsr(), np.array([0]), np.array([7]),
            np.empty(0, np.int64), np.empty(0, np.int64),
        )
        assert dirty.tolist() == [[0, 1]]
        assert patched.block_nnz(0, 1) == 1
        assert pm.block_nnz(0, 1) == 0  # original untouched


class TestUpdateProfile:
    def test_matches_reprofile_and_flips_format(self):
        mat = sp.random(10, 10, density=0.30, random_state=np.random.default_rng(0),
                        format="csr")
        prof = profile_matrix("X", mat)
        assert prof.stored_sparse
        # +40 nonzeros pushes density past the 1/3 dense threshold
        upd = update_profile(prof, 40)
        assert upd.nnz == prof.nnz + 40
        assert not upd.stored_sparse
        assert upd.stored_bytes == 4 * 100
        with pytest.raises(ValueError, match="out of range"):
            update_profile(prof, -(prof.nnz + 1))


class TestProgramPatcher:
    @pytest.mark.parametrize("model_name", ["GCN", "GraphSAGE", "GIN", "SGC"])
    def test_patched_inference_equals_fresh_compile(self, model_name):
        data = load_dataset("CO", seed=5)
        g = MutableGraph(data)
        snap = g.snapshot()
        model = build_model(model_name, snap.num_features, snap.hidden_dim,
                            snap.num_classes)
        weights = init_weights(model, seed=1)
        program = Compiler(CFG).compile(model, snap, weights)
        patcher = ProgramPatcher()
        for step in range(2):
            applied = g.apply(random_delta(
                g.num_vertices, snap.num_features, edge_inserts=12,
                edge_deletes=12, feature_updates=6, seed=100 + step,
            ))
            snap = g.snapshot()
            program, report = patcher.patch(program, snap, applied)
            assert report.patched, report.reason
            fresh = Compiler(CFG).compile(model, snap, weights)
            out_patched = run_strategy(program, "Dynamic").output_dense()
            out_fresh = run_strategy(fresh, "Dynamic").output_dense()
            np.testing.assert_array_equal(out_patched, out_fresh)

    def test_large_delta_falls_back_to_recompile(self, monkeypatch):
        monkeypatch.setattr(patcher_mod, "MAX_EDGE_FRACTION", 0.01)
        data = load_dataset("CO", seed=0)
        g = MutableGraph(data)
        model = build_model("GCN", g.snapshot().num_features,
                            g.snapshot().hidden_dim, g.snapshot().num_classes)
        weights = init_weights(model, seed=0)
        program = Compiler(CFG).compile(model, g.snapshot(), weights)
        n = max(40, int(0.05 * g.nnz))
        applied = g.apply(random_delta(g.num_vertices, 4, edge_inserts=n,
                                       edge_deletes=n, seed=3))
        fresh, report = ProgramPatcher().patch(
            program, g.snapshot(), applied
        )
        assert not report.patched and "churn" in report.reason
        out_fresh = run_strategy(fresh, "Dynamic").output_dense()
        ref = Compiler(CFG).compile(model, g.snapshot(), weights)
        np.testing.assert_array_equal(
            out_fresh, run_strategy(ref, "Dynamic").output_dense()
        )

    def test_report_counts_dirty_blocks(self):
        g = MutableGraph(load_dataset("CO", seed=1))
        snap = g.snapshot()
        model = build_model("GIN", snap.num_features, snap.hidden_dim,
                            snap.num_classes)
        program = Compiler(CFG).compile(model, snap, init_weights(model, seed=0))
        applied = g.apply(random_delta(g.num_vertices, snap.num_features,
                                       edge_inserts=10, edge_deletes=10, seed=9))
        _, report = ProgramPatcher().patch(program, g.snapshot(), applied)
        assert report.patched
        assert report.dirty_blocks > 0
        assert report.reanalyzed_pairs > 0
        assert report.wall_s > 0


class TestProgramCacheSatellites:
    def _filled(self):
        from types import SimpleNamespace

        cache = ProgramCache(capacity=8)
        for i in range(4):
            # stand-in with the one attribute the cache reads on a hit
            cache.put((i,), SimpleNamespace(
                name=f"prog{i}", timings=SimpleNamespace(total_s=1e-3)
            ))
        return cache

    def test_invalidate_predicate_and_counter(self):
        cache = self._filled()
        removed = cache.invalidate(lambda key, prog: key[0] % 2 == 0)
        assert removed == 2 and len(cache) == 2
        assert cache.stats().invalidations == 2
        assert cache.invalidate(lambda k, p: False) == 0

    def test_pop_does_not_touch_counters(self):
        cache = self._filled()
        assert cache.pop((1,)).name == "prog1"
        assert cache.pop((1,)) is None
        stats = cache.stats()
        assert stats.invalidations == 0 and stats.evictions == 0
        assert stats.hits == 0 and stats.misses == 0

    def test_clear_keeps_stats_reset_zeroes_them(self):
        cache = self._filled()
        cache.get((0,))
        cache.get(("missing",))
        cache.clear()
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 0
        cache.reset_stats()
        stats = cache.stats()
        assert stats.hits == stats.misses == stats.invalidations == 0
        assert len(cache) == 0


class TestServeChurn:
    def test_patch_and_evict_policies_agree_on_outputs(self):
        results = {}
        for policy in ("patch", "evict"):
            data = load_dataset("CO", scale=0.5, seed=4)
            graph = MutableGraph(data, graph_id="CO-churn")
            engine = Engine(CFG, pool_size=2)
            engine.register_graph(graph)
            stream = churn_stream(
                24, graph=graph, models=("GCN",), mutation_every=5,
                edge_fraction=0.01, feature_updates=4,
                rate_rps=5_000.0, seed=11,
            )
            report = engine.serve(stream, max_batch_size=4, return_outputs=True,
                                  mutation_policy=policy)
            infer_ids = [
                r.request_id for r in stream
                if isinstance(r, InferenceRequest)
            ]
            by_id = {r.request_id: r for r in report.responses}
            results[policy] = (report, [by_id[i].output for i in infer_ids])
        patch_report, patch_outs = results["patch"]
        evict_report, evict_outs = results["evict"]
        assert patch_report.num_mutations == evict_report.num_mutations > 0
        assert patch_report.num_patches > 0
        assert evict_report.mutation_evictions > 0
        assert patch_report.cache_misses < evict_report.cache_misses
        for po, eo in zip(patch_outs, evict_outs):
            np.testing.assert_array_equal(po, eo)

    def _admit(self, engine, graph, model="GCN"):
        """Compile and cache one program for a dynamic graph, returning
        its program key (what the serve loop does at admission)."""
        req = engine.resolve_request(
            InferenceRequest(model=model, dataset=graph.graph_id)
        )
        prog_key = req.program_key(engine.config)
        engine.cache.get_or_compile(
            prog_key, lambda: engine.compile_request(req))
        return prog_key

    def _patches(self, sweep):
        return sweep.metrics.counter("serve.patches").value

    def test_patched_program_waits_for_inflight_compile(self):
        from repro.sched import ContinuousScheduler

        graph = MutableGraph(load_dataset("CO", scale=0.3, seed=0),
                             graph_id="rt")
        engine = Engine(CFG)
        engine.register_graph(graph)
        prog_key = self._admit(engine, graph)
        # the miss that produced this program is still compiling at t=5.0
        sweep = ContinuousScheduler(engine, mutation_policy="patch")
        sweep._program(prog_key).ready_s = sweep._host_free_s = 5.0
        sweep._mutate(
            MutationRequest(graph_id="rt",
                            delta=GraphDelta.edges(inserts=[(0, 9)]),
                            arrival_s=1.0),
            1.0,
        )
        assert self._patches(sweep) == 1
        (new_key,) = engine.cache.keys()
        assert new_key != prog_key and new_key[1][0] == "rt"
        # compile + patch, not 1.0 + patch
        assert sweep._program(new_key).ready_s > 5.0

    def test_out_of_band_mutation_evicts_instead_of_patching(self):
        from repro.sched import ContinuousScheduler

        graph = MutableGraph(load_dataset("CO", scale=0.3, seed=1),
                             graph_id="oob")
        engine = Engine(CFG)
        engine.register_graph(graph)
        prog_key = self._admit(engine, graph)
        # mutate the graph directly, bypassing the engine
        graph.apply(GraphDelta.edges(inserts=[(0, 9)]))
        sweep = ContinuousScheduler(engine, mutation_policy="patch")
        sweep._mutate(
            MutationRequest(graph_id="oob",
                            delta=GraphDelta.edges(inserts=[(1, 8)]),
                            arrival_s=0.0),
            0.0,
        )
        # the cached program's lineage is broken: evicted, never patched
        assert self._patches(sweep) == 0
        assert sweep.mutation_evictions == 1
        assert engine.cache.peek(prog_key) is None
        assert engine.cache.keys() == []

    def test_mutation_for_unregistered_graph_raises(self):
        with pytest.raises(KeyError, match="unregistered"):
            Engine(CFG).serve([MutationRequest(
                graph_id="ghost", delta=GraphDelta.edges(inserts=[(0, 1)])
            )])

    def test_register_graph_rejects_id_collision(self):
        engine = Engine(CFG)
        g1 = MutableGraph(tiny_graph(), graph_id="g", symmetric=False)
        g2 = MutableGraph(tiny_graph(seed=1), graph_id="g", symmetric=False)
        engine.register_graph(g1)
        engine.register_graph(g1)  # idempotent
        with pytest.raises(ValueError, match="already registered"):
            engine.register_graph(g2)

    def test_churn_stream_is_deterministic_and_mixed(self):
        g = MutableGraph(tiny_graph(), graph_id="det", symmetric=False)
        s1 = churn_stream(20, graph=g, mutation_every=4, seed=3)
        s2 = churn_stream(20, graph=g, mutation_every=4, seed=3)
        kinds1 = [type(r).__name__ for r in s1]
        assert kinds1 == [type(r).__name__ for r in s2]
        assert kinds1.count("MutationRequest") == 5
        for a, b in zip(s1, s2):
            assert a.arrival_s == b.arrival_s
            if isinstance(a, MutationRequest):
                np.testing.assert_array_equal(
                    a.delta.insert_rows, b.delta.insert_rows
                )


class TestLineageTable:
    """A patch lineage computes its graph-independent kernels once: the
    serve path's runs fill and read ``CompiledProgram._lineage``, bill
    every task anew and skip only the functional pass."""

    REQUESTS, MUTATE_EVERY = 100, 8  # 12 mutations, as the churn ledger cell

    def _serve(self, model, monkeypatch, *, feature_updates=0,
               strategies=("Dynamic",), pinned=False):
        """Serve one churn stream on a fresh engine whose first program
        was inferred, as ``serve_churn`` does (pinning every host second
        the sweep charges when ``pinned``): the report, the served
        runs as ``(program, run)``, each program's snapshot, every task loop
        call as ``(kernel id, computed)`` and the engine with its handle."""
        import repro.runtime.executor as executor_mod
        from test_serve_golden import numbered, pinned_host_clock

        graph = MutableGraph(load_dataset("CO", scale=0.3, seed=2), graph_id="lin")
        engine = Engine(CFG, pool_size=2)
        handle = engine.compile(model, graph)
        engine.infer(handle)  # the cell's warm-up: the stream replays this run
        snapshots = {id(handle.program): graph.snapshot()}
        served, loops = [], []
        patch, execute = ProgramPatcher.patch, Engine.execute
        task_loop = executor_mod.execute_kernel_tasks

        def recording_patch(self, program, new_data, applied):
            patched, report = patch(self, program, new_data, applied)
            snapshots[id(patched)] = new_data
            return patched, report

        def recording_execute(self, program, *args, ready_s=None, **kw):
            run = execute(self, program, *args, ready_s=ready_s, **kw)
            if ready_s is not None:
                served.append((program, run))
            return run

        def recording_loop(kernel, *args):
            loops.append((kernel.kernel_id, args[7].carried is None))
            return task_loop(kernel, *args)

        monkeypatch.setattr(ProgramPatcher, "patch", recording_patch)
        monkeypatch.setattr(Engine, "execute", recording_execute)
        monkeypatch.setattr(executor_mod, "execute_kernel_tasks", recording_loop)
        stream = numbered(churn_stream(
            self.REQUESTS, graph=graph, models=(model,), strategies=strategies,
            mutation_every=self.MUTATE_EVERY, feature_updates=feature_updates,
            rate_rps=1e5, seed=3,
        ))
        with pinned_host_clock() if pinned else contextlib.nullcontext():
            report = engine.serve(stream)
        return report, served, snapshots, loops, (engine, handle)

    @pytest.mark.parametrize("model", ["GCN", "GraphSAGE"])
    def test_served_churn_answers_what_a_fresh_compile_infers(self, model, monkeypatch):
        report, served, snapshots, _, _ = self._serve(
            model, monkeypatch, strategies=("Dynamic", "S1"))
        assert report.num_patches == 12
        expected, outputs = {}, set()
        for program, run in served:
            key = (id(program), run.strategy_name)
            if key not in expected:
                fresh = Engine(CFG)
                expected[key] = fresh.infer(
                    fresh.compile(model, snapshots[id(program)]),
                    strategy=run.strategy_name,
                ).output_dense()
            np.testing.assert_array_equal(run.output_dense(), expected[key])
            outputs.add(expected[key].tobytes())
        assert len(expected) > 12  # both strategies on most patched programs
        for response in report.responses:
            assert response.output.tobytes() in outputs

    @pytest.mark.parametrize("model", ["GCN", "GraphSAGE"])
    def test_report_is_that_of_a_table_that_never_hits(self, model, monkeypatch):
        from test_serve_golden import sweep_payload

        payloads = []
        for hits in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not hits:
                    mp.setattr(CompiledProgram, "graph_independent", lambda self: set())
                report, *_ = self._serve(model, mp, pinned=True,
                                         strategies=("Dynamic", "S1"))
            payloads.append(sweep_payload("churn/pinned", report))
        assert payloads[0] == payloads[1]

    def test_functional_pass_runs_once_per_lineage(self, monkeypatch):
        _, served, _, loops, _ = self._serve("GCN", monkeypatch)
        # the warmed program's replayed run, then 12 patched programs' first
        assert len({id(program) for program, _ in served}) == 13
        update = [computed for kid, computed in loops if kid == "L1.update"]
        assert len(update) == 12 and sum(update) == 1
        # every other kernel computes in all 12 post-patch executions
        for kid in ("L1.agg", "L2.update", "L2.agg"):
            assert [c for k, c in loops if k == kid] == [True] * 12

    def test_a_table_that_never_hits_computes_every_patched_program(self, monkeypatch):
        monkeypatch.setattr(CompiledProgram, "graph_independent", lambda self: set())
        _, _, _, loops, _ = self._serve("GCN", monkeypatch)
        assert [c for k, c in loops if k == "L1.update"] == [True] * 12

    def test_a_feature_delta_and_engine_infer_compute_anew(self, monkeypatch):
        _, _, _, loops, (engine, handle) = self._serve(
            "GCN", monkeypatch, feature_updates=3)
        assert [c for k, c in loops if k == "L1.update"] == [True] * 12
        program = engine.compile("GCN", handle.graph_id).program
        assert program._lineage  # the last patched program's own product
        del loops[:]
        engine.infer(engine.compile("GCN", handle.graph_id))
        assert ("L1.update", True) in loops

    def test_a_graph_that_cannot_mutate_fills_no_table(self):
        engine = Engine(CFG)
        engine.serve([InferenceRequest(model="GCN", dataset="CO", scale=0.3)])
        (key,) = engine.cache.keys()
        assert engine.cache.peek(key)._runs and not engine.cache.peek(key)._lineage

    def test_a_carried_output_is_read_only(self, monkeypatch):
        _, served, _, _, _ = self._serve("GCN", monkeypatch)
        program = served[-1][0]
        (assembly,) = program._lineage.values()
        out, _ = assembly.finalize()
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            assembly.nnz_grid[0, 0] = 0


class TestDensityRegressions:
    """Satellite: explicit zeros and duplicate COO entries (summed before
    counting) must not inflate nnz/density."""

    def test_nnz_ignores_explicit_zeros(self):
        from repro.formats.density import density, nnz_count

        mat = sp.csr_matrix(
            (np.array([1.0, 0.0, 2.0]), (np.array([0, 1, 2]),
                                         np.array([0, 1, 2]))),
            shape=(3, 3),
        )
        assert mat.nnz == 3
        assert nnz_count(mat) == 2
        assert density(mat) == pytest.approx(2 / 9)

    def test_nnz_sums_duplicate_coo_entries(self):
        from repro.formats.density import density, nnz_count

        # (+1, -1) at (0, 0) cancels; (2, 3) at (1, 1) sums to 5
        mat = sp.coo_matrix(
            (np.array([1.0, -1.0, 2.0, 3.0]),
             (np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1]))),
            shape=(2, 2),
        )
        assert mat.nnz == 4
        assert nnz_count(mat) == 1
        assert density(mat) == pytest.approx(0.25)
        # the caller's matrix must not be canonicalised in place
        assert mat.nnz == 4

    def test_block_grid_sums_duplicates(self):
        from repro.formats.partition import block_nnz_grid

        mat = sp.coo_matrix(
            (np.array([1.0, -1.0, 4.0]),
             (np.array([0, 0, 3]), np.array([0, 0, 3]))),
            shape=(4, 4),
        )
        grid = block_nnz_grid(mat, 2, 2)
        assert grid.tolist() == [[0, 0], [0, 1]]
