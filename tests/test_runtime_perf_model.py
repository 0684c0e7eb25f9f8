"""Tests for the Table IV performance model and §VI-A region analysis."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_tiny_config, random_sparse
from k2p_oracle import ideal_hardware
from repro.config import BufferConfig, u250_default
from repro.formats.partition import PartitionedMatrix
from repro.hw.report import CANDIDATES, GEMM_CODE, SPDMM_CODE, SPMM_CODE
from repro.runtime.perf_model import (
    PairBatch,
    candidate_cycles,
    model_cycles_batch,
    region_primitive_batch,
    region_thresholds,
)

CFG = u250_default()


def table_iv(m, n, d, ax, ay, config=CFG):
    """Table IV of one pair: (GEMM, SpDMM, SPMM) cycles."""
    return model_cycles_batch(m, n, d, ax, ay, config).tolist()


def region(ax, ay, config=CFG):
    return int(region_primitive_batch(ax, ay, config))


class TestTableIV:
    def test_gemm_formula(self):
        assert table_iv(32, 64, 16, 1, 1)[0] == pytest.approx(32 * 64 * 16 / 256)

    def test_spdmm_formula_uses_alpha_min(self):
        c = table_iv(10, 10, 10, 0.2, 0.8)[1]
        assert c == pytest.approx(0.2 * 2 * 1000 / 256)
        # symmetric in the operands
        assert c == table_iv(10, 10, 10, 0.8, 0.2)[1]

    def test_spmm_formula_uses_product(self):
        assert table_iv(10, 10, 10, 0.1, 0.3)[2] == pytest.approx(
            0.1 * 0.3 * 1000 / 16)

    def test_skip_is_free(self):
        """An empty operand leaves the sparse modes nothing to do."""
        assert table_iv(10, 10, 10, 0, 1)[1:] == [0.0, 0.0]

    def test_density_bounds_validated(self):
        with pytest.raises(ValueError):
            table_iv(4, 4, 4, -0.1, 0.5)
        with pytest.raises(ValueError):
            table_iv(4, 4, 4, 0.5, 1.1)


class TestRegionRule:
    def test_dense_region_gemm(self):
        assert region(0.9, 0.7) == GEMM_CODE
        assert region(0.5, 0.5) == GEMM_CODE  # boundary

    def test_mixed_region_spdmm(self):
        assert region(0.01, 0.9) == SPDMM_CODE
        assert region(0.3, 0.2) == SPDMM_CODE

    def test_sparse_region_spmm(self):
        thr = 2.0 / CFG.psys
        assert region(thr / 2, thr / 2) == SPMM_CODE
        assert region(0.001, 0.01) == SPMM_CODE

    def test_boundary_spdmm_threshold(self):
        thr = 2.0 / CFG.psys
        assert region(0.01, thr) == SPDMM_CODE
        assert region(0.01, thr - 1e-9) == SPMM_CODE

    def test_region_thresholds(self):
        assert region_thresholds(CFG) == (0.5, pytest.approx(0.125))

    @given(
        st.floats(0.001, 1.0, allow_nan=False),
        st.floats(0.001, 1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_region_rule_equals_model_argmin(self, ax, ay):
        """§VI-A's closed-form regions must coincide with the argmin of the
        Table IV model (volume cancels, so any m,n,d works), ties to the
        first.  The degenerate alpha_min = 0 case is handled by Algorithm
        7's skip short-cut before the region rule applies."""
        costs = table_iv(64, 64, 64, ax, ay)
        assert region(ax, ay) == costs.index(min(costs))

    @given(
        st.integers(1, 64).map(lambda k: k * 16),
        st.integers(1, 64).map(lambda k: k * 16),
        st.integers(1, 64).map(lambda k: k * 16),
        st.integers(1, 255),
        st.integers(1, 255),
        st.sampled_from([4, 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_argmin_of_the_stage_cost_reduces_to_the_region_rule(
        self, m, n, d, x_share, y_share, psys
    ):
        """With both operands in the format every mode wants (no AHM
        pass), unbounded bandwidth and buffers, a fully occupied systolic
        array and balanced rows, ``max(compute, load, transform)`` is Table IV and
        its argmin is the region rule, both boundary ties included
        (densities in 256ths reach 1/2 and 2/psys exactly)."""
        cfg = dataclasses.replace(
            CFG, psys=psys,
            memory=dataclasses.replace(CFG.memory, bandwidth_gbps=float("inf")),
            buffers=BufferConfig(words_per_buffer=2**40),
        )
        batch = PairBatch(
            m=np.array([m]), n=np.array([n]), d=np.array([d]),
            x_nnz=np.array([m * n * x_share // 256]),
            y_nnz=np.array([n * d * y_share // 256]),
            x_stored_sparse=True, y_stored_sparse=False,
            task=np.zeros(1, dtype=np.int64), num_tasks=1,
        )
        with ideal_hardware():
            cost = candidate_cycles(batch, cfg, np.ones(1, dtype=bool))[:, 0]
        ax, ay = batch.x_nnz[0] / (m * n), batch.y_nnz[0] / (n * d)
        assert cost.tolist() == pytest.approx(
            [m * n * d / psys**2, ax * 2 * m * n * d / psys**2,
             ay * 2 * m * n * d / psys**2, ax * ay * m * n * d / psys])
        _, code, transposed = CANDIDATES[int(np.argmin(cost))]
        assert code == region(ax, ay, cfg)
        assert transposed == (code == SPDMM_CODE and ay < ax)

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_regions_tile_domain(self, ax, ay):
        """Every density pair maps to exactly one of the three modes."""
        assert region(ax, ay) in (GEMM_CODE, SPDMM_CODE, SPMM_CODE)

    def test_region_depends_on_psys(self):
        small = make_tiny_config()  # psys=4 -> threshold 0.5
        assert region(0.05, 0.4, small) == SPMM_CODE
        assert region(0.05, 0.4, CFG) == SPDMM_CODE


class TestScpSkew:
    """The per-block busiest-pipeline share the SPMM estimate is scaled by."""

    @staticmethod
    def brute_force(pm: PartitionedMatrix, psys: int) -> np.ndarray:
        grid = np.ones((pm.num_row_blocks, pm.num_col_blocks))
        for i in range(pm.num_row_blocks):
            for j in range(pm.num_col_blocks):
                block = pm.block(i, j).tocoo()
                if block.nnz:
                    loads = np.bincount(block.row % psys, minlength=psys)
                    grid[i, j] = loads.max() * psys / block.nnz
        return grid

    @pytest.mark.parametrize("blocking", [(16, 16), (24, 60), (7, 5)])
    @pytest.mark.parametrize("psys", [4, 16])
    def test_equals_a_per_block_count_before_and_after_a_delta(self, blocking, psys):
        mat = random_sparse(60, 60, 0.08, seed=11, zero_rows=True)
        pm = PartitionedMatrix(mat, *blocking)
        skew = pm.scp_skew_grid(psys)
        np.testing.assert_array_equal(skew, self.brute_force(pm, psys))
        assert skew.min() >= 1.0 and skew.max() <= psys
        assert pm.scp_skew_grid(psys) is skew  # counted once

        # move row 3's entries to row 3 + psys' pipeline neighbour
        new = mat.tolil()
        cols = mat[3].indices
        new[3, cols] = 0
        new[4, cols] = 1.0
        new = new.tocsr()
        was, now = mat[3:5].toarray() != 0, new[3:5].toarray() != 0
        added, removed = np.nonzero(now & ~was), np.nonzero(was & ~now)
        pm.apply_structural_delta(
            new, added[0] + 3, added[1], removed[0] + 3, removed[1])
        np.testing.assert_array_equal(
            pm.scp_skew_grid(psys), self.brute_force(pm, psys))

    @pytest.mark.parametrize("blocking", [(16, 16), (24, 60), (7, 5), (60, 7)])
    @pytest.mark.parametrize("psys", [4, 16])
    def test_unchanged_by_laying_the_view_out(self, blocking, psys):
        """The skew is counted from the stored CSR, whether or not a block
        read has split the view: asked before a split, after it, or only
        after it, it is the same grid."""
        mat = random_sparse(60, 60, 0.08, seed=5, zero_rows=True)
        before = PartitionedMatrix(mat, *blocking)
        skew = before.scp_skew_grid(psys)
        split_first = PartitionedMatrix(mat, *blocking)
        for pm in (before, split_first):
            for i in range(pm.num_row_blocks):
                pm.csr_blocks_for_row(i)
            assert pm.is_laid_out
        assert before.scp_skew_grid(psys) is skew
        np.testing.assert_array_equal(split_first.scp_skew_grid(psys), skew)
        np.testing.assert_array_equal(skew, self.brute_force(before, psys))

    def test_a_dense_held_operand_counts_as_balanced(self):
        pm = PartitionedMatrix(random_sparse(40, 40, 0.2, seed=3).toarray(), 16, 16)
        np.testing.assert_array_equal(pm.scp_skew_grid(16), np.ones((3, 3)))
