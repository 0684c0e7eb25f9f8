"""Property-based tests (hypothesis) on the format substrate invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats.convert import DenseToSparseModule
from repro.formats.csr import sorted_unique
from repro.formats.partition import PartitionedMatrix, block_nnz_grid

from conftest import reassemble_from_blocks
from unit_oracles import block_nnz_grid_reference


@st.composite
def small_dense(draw, max_dim=12):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    flat = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 7.0]),
            min_size=m * n, max_size=m * n,
        )
    )
    return np.array(flat, dtype=np.float32).reshape(m, n)


class TestConverterProperties:
    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0, -4.0]), min_size=1, max_size=16),
        st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_staged_pipeline_equals_direct_compaction(self, vals, width):
        vals = np.array(vals[:width], dtype=np.float32)
        d2s = DenseToSparseModule(width=width)
        out_val, out_idx, _ = d2s.compact_staged(vals)
        expect = np.nonzero(vals)[0]
        np.testing.assert_array_equal(out_idx, expect)
        np.testing.assert_array_equal(out_val, vals[expect])

    @given(st.integers(0, 10_000), st.sampled_from([4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_d2s_cycles_monotone(self, elements, width):
        d2s = DenseToSparseModule(width=width)
        assert d2s.cycles_for(elements) <= d2s.cycles_for(elements + width)


class TestPartitionProperties:
    @given(small_dense(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_reassembly_identity(self, dense, br, bc):
        pm = PartitionedMatrix(dense, br, bc)
        np.testing.assert_array_equal(reassemble_from_blocks(pm), dense)

    @given(small_dense(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_nnz_grid_partitions_total(self, dense, br, bc):
        grid = block_nnz_grid(dense, br, bc)
        assert grid.sum() == int(np.count_nonzero(dense))

    @given(small_dense(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_block_sizes_sum_to_shape(self, dense, br, bc):
        pm = PartitionedMatrix(dense, br, bc)
        assert int(pm.row_block_sizes.sum()) == dense.shape[0]
        assert int(pm.col_block_sizes.sum()) == dense.shape[1]

    @given(small_dense(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_densities_in_unit_interval(self, dense, br, bc):
        pm = PartitionedMatrix(dense, br, bc)
        grid = pm.density_grid
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0)


@st.composite
def dense_operand(draw):
    """A dense census input: ragged or empty shape, any of the dtypes the
    pipeline and its callers hand over, ``-0.0`` and ``NaN`` among the
    values, in one of four memory layouts."""
    m = draw(st.integers(0, 24))
    n = draw(st.integers(0, 24))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.bool_, np.int32]))
    pool = [0.0, 0.0, -0.0, 1.0, -2.5, 7.0]
    if np.issubdtype(dtype, np.floating):
        pool.append(float("nan"))
    flat = draw(st.lists(st.sampled_from(pool), min_size=m * n, max_size=m * n))
    mat = np.array(flat, dtype=np.float64).reshape(m, n).astype(dtype)
    layout = draw(st.sampled_from(["C", "F", "strided view", "transpose"]))
    if layout == "F":
        mat = np.asfortranarray(mat)
    elif layout == "strided view":
        mat = mat[::2, ::-1]
    elif layout == "transpose":
        mat = mat.T
    return mat


class TestDenseCensusProperties:
    # block sizes past 255 and 65535 change the width of the per-row
    # intermediate; blocks larger than the matrix leave one ragged block
    @given(
        dense_operand(),
        st.sampled_from([1, 2, 3, 7, 64, 300, 70_000]),
        st.sampled_from([1, 2, 5, 16, 255, 256, 70_000]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_reference(self, mat, br, bc):
        grid = block_nnz_grid(mat, br, bc)
        np.testing.assert_array_equal(grid, block_nnz_grid_reference(mat, br, bc))
        assert grid.dtype == np.int64
        assert grid.flags.c_contiguous

    @pytest.mark.parametrize("shape, br, bc", [
        ((1, 700), 1, 300), ((700, 1), 300, 1), ((3, 66_000), 2, 65_536),
    ])
    def test_wide_blocks_do_not_wrap(self, shape, br, bc):
        """All-nonzero rows: a per-row count equals the block width, the
        largest value the narrow intermediate must hold."""
        mat = np.ones(shape, dtype=np.float32)
        np.testing.assert_array_equal(
            block_nnz_grid(mat, br, bc), block_nnz_grid_reference(mat, br, bc)
        )


class TestSortedUnique:
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_equals_numpy_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        got = sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
