"""Tests for density profiling and the Fig. 5 partitioning."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_sparse, reassemble_from_blocks
from repro.formats.density import SparsityProfiler, density, nnz_count
from repro.formats.partition import (
    PartitionedMatrix,
    block_nnz_grid,
    grid_dims,
)


class TestDensity:
    def test_ndarray(self):
        assert density(np.array([[1, 0], [0, 1]])) == pytest.approx(0.5)

    def test_scipy(self):
        mat = sp.eye(10, format="csr")
        assert density(mat) == pytest.approx(0.1)

    def test_scipy_with_stored_zeros(self):
        mat = sp.csr_matrix((np.array([0.0, 1.0]), ([0, 1], [0, 1])), shape=(2, 2))
        assert nnz_count(mat) == 1  # explicit zero not counted

    def test_empty(self):
        assert density(np.zeros((0, 3))) == 0.0


class TestSparsityProfiler:
    def test_zero_elements(self):
        assert SparsityProfiler(width=8).cycles_for(0) == 0

    def test_bad_width(self):
        with pytest.raises(ValueError):
            SparsityProfiler(width=6)


class TestGridHelpers:
    def test_grid_dims(self):
        assert grid_dims((10, 7), 4, 3) == (3, 3)
        assert grid_dims((8, 8), 4, 4) == (2, 2)
        assert grid_dims((0, 5), 4, 4) == (0, 2)

    def test_block_nnz_grid_dense(self):
        mat = np.zeros((4, 4), dtype=np.float32)
        mat[0, 0] = 1
        mat[3, 3] = 2
        grid = block_nnz_grid(mat, 2, 2)
        np.testing.assert_array_equal(grid, [[1, 0], [0, 1]])

    def test_block_nnz_grid_sparse_matches_dense(self):
        mat = random_sparse(23, 17, 0.2, seed=4)
        g1 = block_nnz_grid(mat, 5, 4)
        g2 = block_nnz_grid(mat.toarray(), 5, 4)
        np.testing.assert_array_equal(g1, g2)

    def test_total_nnz_conserved(self):
        mat = random_sparse(31, 29, 0.1, seed=5)
        grid = block_nnz_grid(mat, 7, 6)
        assert grid.sum() == mat.nnz


class TestPartitionedMatrix:
    def test_block_extraction_sparse(self):
        mat = random_sparse(20, 16, 0.3, seed=6)
        pm = PartitionedMatrix(mat, 8, 8)
        assert pm.num_row_blocks == 3
        assert pm.num_col_blocks == 2
        blk = pm.dense_block(1, 1)
        np.testing.assert_array_equal(blk, mat.toarray()[8:16, 8:16])

    def test_ragged_edge_blocks(self):
        mat = np.arange(15, dtype=np.float32).reshape(5, 3)
        pm = PartitionedMatrix(mat, 4, 2)
        assert pm.block_shape(1, 1) == (1, 1)
        np.testing.assert_array_equal(pm.dense_block(1, 0), mat[4:5, 0:2])

    def test_reassembly_roundtrip(self):
        mat = random_sparse(17, 23, 0.25, seed=9)
        pm = PartitionedMatrix(mat, 5, 7)
        np.testing.assert_allclose(reassemble_from_blocks(pm), mat.toarray())

    def test_block_density_and_nnz(self):
        mat = np.zeros((4, 4), dtype=np.float32)
        mat[:2, :2] = 1.0
        pm = PartitionedMatrix(mat, 2, 2)
        assert pm.block_nnz(0, 0) == 4
        assert pm.density_grid[0, 0] == pytest.approx(1.0)
        assert pm.density_grid[1, 1] == 0.0

    def test_density_grid_matches_scalar_queries(self):
        mat = random_sparse(19, 13, 0.2, seed=10)
        pm = PartitionedMatrix(mat, 6, 5)
        grid = pm.density_grid
        for i in range(pm.num_row_blocks):
            for j in range(pm.num_col_blocks):
                r, c = pm.block_shape(i, j)
                assert grid[i, j] == pytest.approx(pm.block_nnz(i, j) / (r * c))

    def test_block_sizes(self):
        pm = PartitionedMatrix(np.zeros((10, 7), dtype=np.float32), 4, 3)
        np.testing.assert_array_equal(pm.row_block_sizes, [4, 4, 2])
        np.testing.assert_array_equal(pm.col_block_sizes, [3, 3, 1])

    def test_out_of_range_block(self):
        pm = PartitionedMatrix(np.zeros((4, 4), dtype=np.float32), 2, 2)
        with pytest.raises(IndexError):
            pm.block(2, 0)

    def test_invalid_block_dims(self):
        with pytest.raises(ValueError):
            PartitionedMatrix(np.zeros((4, 4)), 0, 2)

    def test_stripe_cache_consistency(self):
        mat = random_sparse(40, 40, 0.1, seed=11)
        pm = PartitionedMatrix(mat, 8, 8)
        # access twice: second hit comes from the stripe cache
        b1 = pm.dense_block(2, 3)
        b2 = pm.dense_block(2, 3)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(b1, mat.toarray()[16:24, 24:32])


class TestFig5Partitioners:
    def test_adjacency_blocks_square(self):
        a = random_sparse(30, 30, 0.1, seed=12)
        pm = PartitionedMatrix(a, 8, 8, name="A")
        assert (pm.block_rows, pm.block_cols) == (8, 8)
        assert pm.name == "A"

    def test_feature_fibers_and_subfibers(self):
        h = np.ones((30, 12), dtype=np.float32)
        fibers = PartitionedMatrix(h, 8, 4)
        assert (fibers.block_rows, fibers.block_cols) == (8, 4)
        subfibers = PartitionedMatrix(h, 4, 4)
        assert (subfibers.block_rows, subfibers.block_cols) == (4, 4)

    def test_weight_blocks(self):
        w = np.ones((12, 8), dtype=np.float32)
        pm = PartitionedMatrix(w, 4, 4)
        assert (pm.block_rows, pm.block_cols) == (4, 4)
        assert pm.num_blocks == 6

    def test_fiber_and_subfiber_views_share_bytes(self):
        """The same H can be viewed as fibers or subfibers without copy."""
        h = random_sparse(16, 8, 0.5, seed=13)
        fibers = PartitionedMatrix(h, 8, 4)
        subs = PartitionedMatrix(h, 4, 4)
        # subfiber (2,1) and (3,1) concatenated == fiber (1,1)
        top = subs.dense_block(2, 1)
        bot = subs.dense_block(3, 1)
        np.testing.assert_array_equal(
            np.vstack([top, bot]), fibers.dense_block(1, 1)
        )
