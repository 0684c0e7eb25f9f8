"""Tests for adjacency normalisations, activations, reference inference
and pruning."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import formula_adjacency, random_sparse
from repro.gnn.activations import activation_fn, apply_activation, prelu, relu
from repro.gnn.adjacency import (
    ADJACENCY_BUILDERS,
    build_adjacency_variants,
    gcn_norm,
    gin_adj,
    mean_norm,
)
from repro.gnn.functional import layerwise_feature_densities, reference_inference
from repro.gnn.models import build_gcn, build_model, init_weights
from repro.gnn.pruning import prune_to_sparsity, prune_weights, weight_density
from repro.ir.kernel import Activation


def _graph(seed=5, n=24, density=0.15) -> sp.csr_matrix:
    a = random_sparse(n, n, density, seed=seed)
    a.setdiag(0)
    a.eliminate_zeros()
    a.data[:] = 1.0
    return a


def _unsorted_indices():
    a = _graph()
    a.indices = a.indices.copy()
    for lo, hi in zip(a.indptr[:-1], a.indptr[1:]):
        a.indices[lo:hi] = a.indices[lo:hi][::-1]
    a.data = np.arange(1, a.nnz + 1, dtype=np.float32)  # values travel with indices
    a.has_sorted_indices = False
    return a


def _duplicate_coordinates():
    coo = _graph().tocoo()
    return sp.coo_matrix(
        (np.concatenate((coo.data, 2 * coo.data[:9])),
         (np.concatenate((coo.row, coo.row[:9])),
          np.concatenate((coo.col, coo.col[:9])))), shape=coo.shape)


def _explicit_zeros():
    a = _graph()
    a.data[[2, 3, 11]] = 0.0
    return a


def _isolated_vertex():
    a = _graph().tolil()
    a[4, :] = 0
    a[:, 4] = 0
    return a.tocsr()


def _stored_diagonal():
    a = _graph()
    a.setdiag(3.0)
    return a.tocsr()


#: what a caller may hand a builder, by name
ADJACENCY_INPUTS = {
    "canonical-csr": _graph,
    "zero-edge": lambda: sp.csr_matrix((6, 6), dtype=np.float32),
    "isolated-vertex": _isolated_vertex,
    "coo-duplicates": _duplicate_coordinates,
    "float64-values": lambda: _graph().astype(np.float64) * (1 / 3),
    "weighted-edges": lambda: random_sparse(24, 24, 0.15, seed=6),
    "stored-diagonal": _stored_diagonal,
    "dense-ndarray": lambda: _graph().toarray(),
    "unsorted-indices": _unsorted_indices,
    "explicit-zeros": _explicit_zeros,
}


class TestAdjacency:
    @pytest.mark.parametrize("case", ADJACENCY_INPUTS)
    @pytest.mark.parametrize("name", ADJACENCY_BUILDERS)
    def test_builder_equals_its_formula(self, name, case):
        """Whatever form the adjacency arrives in, a builder returns the
        literal formula's bits in canonical CSR, and leaves its input be."""
        a = ADJACENCY_INPUTS[case]()
        before = a.copy()
        got = ADJACENCY_BUILDERS[name](a)
        dense = a.toarray() if sp.issparse(a) else a
        want = formula_adjacency(name, sp.csr_matrix(dense.astype(np.float32)))
        assert got.dtype == np.float32 and got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
        # the flags say what the arrays are
        assert got.has_sorted_indices and got.has_canonical_format
        check = sp.csr_matrix((got.data, got.indices, got.indptr), shape=got.shape)
        assert check.has_sorted_indices and check.has_canonical_format
        assert got.data.all()
        if sp.issparse(a):
            assert a.format == before.format
            for part in ("data", "indices", "indptr", "row", "col"):
                if hasattr(a, part):
                    np.testing.assert_array_equal(getattr(a, part), getattr(before, part))
        else:
            np.testing.assert_array_equal(a, before)

    def test_gcn_norm_symmetric_and_selfloops(self):
        a = random_sparse(20, 20, 0.1, seed=1)
        a = ((a + a.T) > 0).astype(np.float32)
        a.setdiag(0)
        a.eliminate_zeros()
        ah = gcn_norm(a)
        assert ah.diagonal().min() > 0  # self loops present
        diff = np.abs((ah - ah.T)).max()
        assert diff < 1e-6  # symmetric normalisation of symmetric input

    def test_gcn_norm_row_isolated_vertex(self):
        a = sp.csr_matrix((3, 3), dtype=np.float32)
        ah = gcn_norm(a)
        # isolated vertices keep exactly their self loop, normalised to 1
        np.testing.assert_allclose(ah.toarray(), np.eye(3), rtol=1e-6)

    def test_mean_norm_rows_sum_to_one(self):
        a = random_sparse(15, 15, 0.2, seed=2, zero_rows=True)
        am = mean_norm(a)
        sums = np.asarray(am.sum(axis=1)).ravel()
        nz_rows = np.diff(a.indptr) > 0
        np.testing.assert_allclose(sums[nz_rows], 1.0, rtol=1e-5)
        assert np.all(sums[~nz_rows] == 0)

    def test_gin_adj_self_weight(self):
        a = sp.csr_matrix((2, 2), dtype=np.float32)
        g = gin_adj(a, eps=0.5)
        np.testing.assert_allclose(g.toarray(), 1.5 * np.eye(2))

    def test_variant_builder(self):
        a = random_sparse(10, 10, 0.2, seed=3)
        out = build_adjacency_variants(a, {"A_norm", "A_gin"})
        assert set(out) == {"A_norm", "A_gin"}
        with pytest.raises(KeyError):
            build_adjacency_variants(a, {"A_bogus"})


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [0, 0, 2])

    def test_prelu(self):
        x = np.array([-2.0, 4.0], dtype=np.float32)
        np.testing.assert_allclose(prelu(x, 0.1), [-0.2, 4.0], rtol=1e-6)

    def test_dispatch(self):
        assert activation_fn(Activation.NONE) is None
        assert activation_fn(Activation.RELU) is relu
        x = np.array([-1.0], dtype=np.float32)
        assert apply_activation(Activation.PRELU, x, 0.5)[0] == pytest.approx(-0.5)
        np.testing.assert_array_equal(apply_activation(Activation.NONE, x), x)


class TestReferenceInference:
    def test_gcn_formula_direct(self, tiny_graph):
        """reference_inference(GCN) == the literal Kipf formula."""
        a, h0 = tiny_graph
        model = build_gcn(h0.shape[1], 8, 3)
        w = init_weights(model, seed=4)
        out = reference_inference(model, a, h0, w)
        ah = gcn_norm(a)
        expect = ah @ np.maximum(ah @ (h0.toarray() @ w["W1"]), 0) @ w["W2"]
        np.testing.assert_allclose(out, np.asarray(expect), rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("name", ["GCN", "GraphSAGE", "GIN", "SGC"])
    def test_shapes_and_dtype(self, tiny_graph, name):
        a, h0 = tiny_graph
        model = build_model(name, h0.shape[1], 8, 5)
        out = reference_inference(model, a, h0, init_weights(model))
        assert out.shape == (a.shape[0], 5)
        assert out.dtype == np.float32

    def test_layerwise_densities_fig2_stages(self, tiny_graph):
        a, h0 = tiny_graph
        model = build_gcn(h0.shape[1], 8, 3)
        stages = layerwise_feature_densities(model, a, h0, init_weights(model))
        assert len(stages) == 5  # input + 2 per layer
        assert stages[0][0] == "input"
        for _, d in stages:
            assert 0.0 <= d <= 1.0
        # the Update densifies the sparse input features
        assert stages[1][1] > stages[0][1]

    def test_layerwise_densities_gcn_only(self, tiny_graph):
        a, h0 = tiny_graph
        model = build_model("GIN", h0.shape[1], 8, 3)
        with pytest.raises(ValueError):
            layerwise_feature_densities(model, a, h0, init_weights(model))


class TestPruning:
    def test_exact_sparsity(self):
        w = np.random.default_rng(0).normal(size=(40, 25)).astype(np.float32)
        for s in [0.0, 0.3, 0.77, 1.0]:
            pruned = prune_to_sparsity(w, s)
            zeros = pruned.size - np.count_nonzero(pruned)
            assert zeros == int(round(s * w.size))

    def test_magnitude_order_preserved(self):
        w = np.array([[0.1, -5.0], [2.0, -0.01]], dtype=np.float32)
        pruned = prune_to_sparsity(w, 0.5)
        # the two smallest magnitudes die
        np.testing.assert_array_equal(
            pruned, np.array([[0.0, -5.0], [2.0, 0.0]], dtype=np.float32)
        )

    def test_input_not_mutated(self):
        w = np.ones((4, 4), dtype=np.float32)
        prune_to_sparsity(w, 0.5)
        assert np.count_nonzero(w) == 16

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            prune_to_sparsity(np.ones((2, 2)), 1.5)

    def test_prune_weights_dict(self):
        model = build_gcn(30, 20, 10)
        w = init_weights(model, seed=1)
        pruned = prune_weights(w, 0.9)
        assert weight_density(pruned) == pytest.approx(0.1, abs=0.01)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_density_complement_property(self, sparsity):
        w = np.random.default_rng(3).normal(size=(20, 20)).astype(np.float32)
        pruned = prune_to_sparsity(w, sparsity)
        density = np.count_nonzero(pruned) / pruned.size
        assert density == pytest.approx(1.0 - sparsity, abs=1.5 / pruned.size)
