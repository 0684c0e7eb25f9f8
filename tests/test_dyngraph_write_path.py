"""The write path against the code it replaced.

``_csr_find``, ``_rebuild_csr``, ``_scaled_like`` and the patcher's
re-decision count were rewritten in place (every query bisecting its own
row in step, a merge instead of the COO constructor's sort, no row ids,
one ``decide_batch``).  The statements they replaced live on
here, as the oracle; the adjacency builders a patch and a compile share
are held to their literal formulas on a mutated graph.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import formula_adjacency, make_tiny_config
from k2p_oracle import decide
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.compile import Compiler
from repro.datasets import load_dataset
from repro.dyngraph import GraphDelta, MutableGraph, ProgramPatcher
import repro.dyngraph.patcher as patcher_mod
from repro.dyngraph.mutable import _csr_find, _rebuild_csr
from repro.formats.dense import DTYPE
from repro.gnn import build_adjacency_variants, build_model, init_weights
from repro.gnn.adjacency import _scaled_like
from repro.runtime.perf_model import PairBatch


# -- the replaced statements ------------------------------------------------
def csr_find_loop(mat, rows, cols):
    indptr, indices = mat.indptr, mat.indices
    out = np.full(rows.size, -1, dtype=np.int64)
    for k in range(rows.size):
        lo, hi = int(indptr[rows[k]]), int(indptr[rows[k] + 1])
        pos = lo + int(np.searchsorted(indices[lo:hi], cols[k]))
        if pos < hi and indices[pos] == cols[k]:
            out[k] = pos
    return out


def rebuild_csr_through_coo(mat, data, keep, add_rows, add_cols, add_vals):
    old_rows = np.repeat(
        np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr)
    )
    rows = np.concatenate((old_rows[keep], add_rows))
    cols = np.concatenate((mat.indices[keep].astype(np.int64), add_cols))
    vals = np.concatenate((data[keep], add_vals.astype(DTYPE)))
    return sp.csr_matrix((vals, (rows, cols)), shape=mat.shape, dtype=DTYPE)


def scaled_like_with_row_ids(source, scale_left, scale_right):
    rows = np.repeat(
        np.arange(source.shape[0], dtype=np.intp), np.diff(source.indptr)
    )
    vals = scale_left[rows] * source.data
    if scale_right is not None:
        vals = vals * scale_right[source.indices]
    return sp.csr_matrix(
        (vals.astype(DTYPE, copy=False), source.indices, source.indptr),
        shape=source.shape,
    )


def reanalyze_pair_by_pair(program, kernels, views, profiles, dirty_by_view):
    reanalyzed = flips = 0
    for kernel in kernels:
        scheme = kernel.exec_scheme
        xkey = (kernel.x_name, *scheme.x_blocking)
        dirty = dirty_by_view.get(xkey)
        if dirty is None or not len(dirty):
            continue
        old_x = program._views[xkey]
        new_x = views[xkey]
        y_view = views.get((kernel.y_name, *scheme.y_blocking))
        if y_view is None:
            continue

        def primitive(x_view, i, j, k):
            m, n = x_view.block_shape(i, j)
            codes, _ = decide(PairBatch(
                m=np.array([m]), n=np.array([n]),
                d=np.array([y_view.block_shape(j, k)[1]]),
                x_nnz=np.array([x_view.block_nnz(i, j)]),
                y_nnz=np.array([y_view.block_nnz(j, k)]),
                x_stored_sparse=profiles[kernel.x_name].stored_sparse,
                y_stored_sparse=profiles[kernel.y_name].stored_sparse,
                task=np.zeros(1, dtype=np.int64),
                num_tasks=scheme.num_tasks, seeded=True,
            ), program.config)
            return codes[0]

        for i, j in dirty:
            for k in range(y_view.num_col_blocks):
                reanalyzed += 1
                flips += primitive(old_x, i, j, k) != primitive(new_x, i, j, k)
    return reanalyzed, flips


def canonical(rng, m, n, density, index_dtype=np.int32) -> sp.csr_matrix:
    mat = sp.random(m, n, density=density, format="csr", dtype=DTYPE, rng=rng)
    mat.indices = mat.indices.astype(index_dtype)
    mat.indptr = mat.indptr.astype(index_dtype)
    return mat


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


# -- _csr_find ----------------------------------------------------------------
class TestCsrFind:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 30), n=st.integers(1, 30),
        density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        queries=st.integers(0, 60), seed=st.integers(0, 2**16),
        index_dtype=st.sampled_from([np.int32, np.int64]),
    )
    def test_matches_the_per_edge_loop(self, m, n, density, queries, seed, index_dtype):
        rng = np.random.default_rng(seed)
        mat = canonical(rng, m, n, density, index_dtype)
        # present and absent pairs, duplicates among them
        rows = rng.integers(0, m, queries)
        cols = rng.integers(0, n, queries)
        found = _csr_find(mat, rows, cols)
        assert found.dtype == np.int64
        np.testing.assert_array_equal(found, csr_find_loop(mat, rows, cols))

    def test_named_corners(self):
        mat = sp.csr_matrix(np.array(
            [[0, 2, 0, 0], [0, 0, 0, 0], [1, 0, 0, 3], [0, 0, 0, 0]], dtype=DTYPE))
        rows = np.array([0, 0, 1, 2, 2, 2, 3, 3, 2])
        cols = np.array([1, 0, 2, 0, 3, 1, 0, 3, 3])
        want = [0, -1, -1, 1, 2, -1, -1, -1, 2]
        # (3, 3) sorts past the last stored entry; (2, 3) is asked twice;
        # rows 1 and 3 are empty
        assert _csr_find(mat, rows, cols).tolist() == want
        assert csr_find_loop(mat, rows, cols).tolist() == want

    def test_empty_matrix_and_empty_query(self):
        empty = sp.csr_matrix((5, 7), dtype=DTYPE)
        q = np.array([0, 4]), np.array([0, 6])
        assert _csr_find(empty, *q).tolist() == [-1, -1]
        mat = canonical(np.random.default_rng(0), 5, 7, 0.5)
        none = np.empty(0, np.int64)
        assert _csr_find(mat, none, none).shape == (0,)
        assert _csr_find(empty, none, none).shape == (0,)

    def test_rows_times_width_passes_2_to_the_31_with_int32_indices(self):
        n = 70_000  # n * n = 4.9e9: no int32 arithmetic on coordinates
        rows = np.array([0, 46_341, 46_341, n - 1, n - 1])
        cols = np.array([n - 1, 0, 46_340, 0, n - 1])
        mat = sp.csr_matrix((np.arange(1, 6, dtype=DTYPE), (rows, cols)), shape=(n, n))
        assert mat.indices.dtype == np.int32
        np.testing.assert_array_equal(_csr_find(mat, rows, cols), np.arange(5))
        absent = _csr_find(mat, np.array([46_341, n - 1]), np.array([1, n - 2]))
        assert absent.tolist() == [-1, -1]


# -- _rebuild_csr ---------------------------------------------------------------
class TestRebuildCsr:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 30), n=st.integers(1, 30),
        density=st.sampled_from([0.0, 0.1, 0.5]),
        drop=st.floats(0.0, 1.0), additions=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        index_dtype=st.sampled_from([np.int32, np.int64]),
    )
    def test_matches_the_coo_constructor(
        self, m, n, density, drop, additions, seed, index_dtype
    ):
        rng = np.random.default_rng(seed)
        mat = canonical(rng, m, n, density, index_dtype)
        data = (mat.data * 2).astype(DTYPE)
        keep = rng.random(mat.nnz) >= drop
        # additions: distinct coordinates absent from what is kept (a
        # dropped coordinate may come back), in no particular order
        kept = set(zip(*(arr[keep].tolist() for arr in mat.tocoo().coords)))
        free = [(r, c) for r in range(m) for c in range(n) if (r, c) not in kept]
        pick = rng.permutation(len(free))[:additions]
        add_rows = np.array([free[k][0] for k in pick], dtype=np.int64)
        add_cols = np.array([free[k][1] for k in pick], dtype=np.int64)
        add_vals = rng.random(pick.size).astype(DTYPE) + 1
        got = _rebuild_csr(mat, data, keep, add_rows, add_cols, add_vals)
        want = rebuild_csr_through_coo(mat, data, keep, add_rows, add_cols, add_vals)
        assert_same_csr(got, want)
        assert got.has_canonical_format and got.has_sorted_indices

    def test_empty_matrix_takes_additions(self):
        empty = sp.csr_matrix((4, 4), dtype=DTYPE)
        args = (np.empty(0, DTYPE), np.empty(0, bool),
                np.array([3, 0]), np.array([1, 2]), np.array([5, 6], DTYPE))
        assert_same_csr(_rebuild_csr(empty, *args),
                        rebuild_csr_through_coo(empty, *args))


# -- patched variants -------------------------------------------------------------
def mutated_graph(extra_edge=None):
    """CO with 25 edges deleted and 30 inserted (``extra_edge`` too)."""
    data = load_dataset("CO", seed=2)
    graph = MutableGraph(data)
    rng = np.random.default_rng(9)
    a = graph.snapshot().a.tocoo()
    gone = rng.choice(a.nnz, size=25, replace=False)
    ins = rng.integers(0, graph.num_vertices, size=(2, 30))
    if extra_edge is not None:
        ins = np.concatenate((ins, np.array(extra_edge)[:, None]), axis=1)
    applied = graph.apply(GraphDelta(
        insert_rows=ins[0], insert_cols=ins[1],
        insert_vals=np.ones(ins.shape[1], DTYPE),
        delete_rows=a.row[gone], delete_cols=a.col[gone],
    ))
    return data, graph, applied


class TestPatchedVariants:
    @pytest.mark.parametrize("name", ["A_norm", "A_mean", "A_gin"])
    def test_patch_variant_equals_the_builder_on_the_mutated_graph(self, name):
        _, graph, applied = mutated_graph()
        assert applied.a_added_rows.size and applied.a_removed_rows.size
        a = graph.snapshot().a
        assert_same_csr(build_adjacency_variants(a, {name})[name],
                        formula_adjacency(name, a))

    @pytest.mark.parametrize("right", [True, False])
    def test_scaled_like_equals_the_row_id_gather(self, right):
        rng = np.random.default_rng(3)
        source = canonical(rng, 40, 40, 0.2).tolil()
        source[7, :] = 0  # an empty row
        source = source.tocsr()
        left = rng.random(40).astype(DTYPE)
        scale_right = rng.random(40).astype(DTYPE) if right else None
        got = _scaled_like(source, left, scale_right)
        assert_same_csr(got, scaled_like_with_row_ids(source, left, scale_right))
        assert np.shares_memory(got.indices, source.indices)
        assert np.shares_memory(got.indptr, source.indptr)


# -- the patcher's re-decision count ----------------------------------------------
def test_reanalyze_counts_equal_the_pair_by_pair_loop(monkeypatch):
    """``reanalyzed_pairs`` / ``decision_flips`` from one ``decide_batch``
    over the dirty blocks equal the Analyzer's rule, one pair at a time in
    plain Python, applied twice per dirty block x k, against the
    compiler's census of the right operand (GIN aggregates first, so its
    right operand is the stored ``H0``)."""
    data = load_dataset("CO", seed=2)
    model = build_model("GIN", data.num_features, data.hidden_dim, data.num_classes)
    program = Compiler(make_tiny_config()).compile(
        model, data, init_weights(model, seed=0))
    (a_view,) = (v for k, v in program._views.items() if k[0] == "A_gin")
    # an edge into a block that holds none: its pairs leave SKIP
    bi, bj = np.argwhere(a_view.nnz_grid == 0)[0]
    _, graph, applied = mutated_graph(
        extra_edge=(bi * a_view.block_rows, bj * a_view.block_cols))
    seen = []
    batch = ProgramPatcher._reanalyze

    def both(self, *args):
        got = batch(self, *args)
        seen.append((got, reanalyze_pair_by_pair(*args)))
        return got

    monkeypatch.setattr(ProgramPatcher, "_reanalyze", both)
    _, report = ProgramPatcher().patch(program, graph.snapshot(), applied)
    assert report.patched and report.reanalyzed_pairs > 0
    ((got, want),) = seen
    assert got == want
    assert got[0] > 0 and got[1] > 0


def test_reanalyze_when_the_last_dirty_block_was_emptied(monkeypatch):
    """More dirty pairs than the kernel has tasks, the trailing ones dead:
    with every off-diagonal edge of the last block row deleted the last
    dirty block is empty, so the highest-numbered pairs are skipped; the
    count still equals the pair-by-pair loop, and the report is a plain
    picklable record."""
    data = load_dataset("CO", seed=2)
    model = build_model("GIN", data.num_features, data.hidden_dim, data.num_classes)
    program = Compiler(make_tiny_config()).compile(
        model, data, init_weights(model, seed=0))
    key, a_view = next(kv for kv in program._views.items() if kv[0][0] == "A_gin")
    graph = MutableGraph(data)
    a = graph.snapshot().a.tocoo()
    last = a_view.num_row_blocks - 1
    gone = (a.row // a_view.block_rows == last) & (a.col // a_view.block_cols != last)
    applied = graph.apply(GraphDelta(delete_rows=a.row[gone], delete_cols=a.col[gone]))
    monkeypatch.setattr(patcher_mod, "MAX_EDGE_FRACTION", 1.0)
    patched, report = ProgramPatcher().patch(
        program, graph.snapshot(), applied)
    dirty = np.argwhere(patched._views[key].nnz_grid != a_view.nnz_grid)
    assert patched._views[key].nnz_grid[tuple(dirty[-1])] == 0
    kernels = patched.graph.topo_order()
    assert 2 * len(dirty) > min(
        k.exec_scheme.num_tasks for k in kernels if k.x_name == "A_gin")
    assert report.patched
    assert (report.reanalyzed_pairs, report.decision_flips) == reanalyze_pair_by_pair(
        program, kernels, patched._views, patched.profiles, {key: dirty})
    assert pickle.loads(pickle.dumps(report)) == report
