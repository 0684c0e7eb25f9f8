"""Tests for the three execution-mode units (GEMM / SpDMM / SPMM).

Each unit is validated three ways: the product the core computes
(``formats.csr.matmul``) against NumPy, the billed cycle formula against
Table IV's idealisation, and — crucially — both against the faithful
element-level simulation of the paper's algorithm (``unit_oracles``).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse import _sparsetools

from conftest import make_tiny_config, random_sparse
from repro.formats.csr import matmul
from repro.formats.partition import block_nnz_grid
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.report import exposed_stream
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.spmm_unit import (
    row_counts, scp_cycles, spmm_census, spmm_compute_cycles, spmm_workloads,
)
from unit_oracles import (
    run_gemm_faithful,
    run_spdmm_faithful,
    run_spmm_faithful,
    spmm_workloads_reference,
)

CFG = make_tiny_config()


class TestGEMM:
    def test_numerics(self):
        rng = np.random.default_rng(0)
        x = rng.random((9, 7)).astype(np.float32)
        y = rng.random((7, 5)).astype(np.float32)
        z_faith, cycles = run_gemm_faithful(x, y, CFG)
        np.testing.assert_allclose(matmul(x, y), x @ y, rtol=1e-5)
        np.testing.assert_allclose(z_faith, x @ y, rtol=1e-5)
        assert cycles == gemm_compute_cycles(9, 7, 5, CFG)

    def test_cycles_tile_exact(self):
        # 9x7 @ 7x5 with psys=4: 3x2 tiles, each 7+8 cycles
        assert gemm_compute_cycles(9, 7, 5, CFG) == 6 * (7 + 8)

    def test_cycles_ge_table_iv_ideal(self):
        for m, n, d in [(4, 4, 4), (16, 32, 8), (100, 3, 17)]:
            ideal = m * n * d / CFG.psys**2
            assert gemm_compute_cycles(m, n, d, CFG) >= ideal

    def test_cycles_converge_to_ideal_for_large_aligned(self):
        m = n = d = 64 * CFG.psys
        exact = gemm_compute_cycles(m, n, d, CFG)
        ideal = m * n * d / CFG.psys**2
        assert exact / ideal < 1.1

    def test_empty_dims(self):
        assert gemm_compute_cycles(0, 4, 4, CFG) == 0

    def test_faithful_matches_fast(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, (6, 5)).astype(np.float32)
        y = rng.integers(0, 3, (5, 7)).astype(np.float32)
        z_faith, cycles = run_gemm_faithful(x, y, CFG)
        np.testing.assert_allclose(z_faith, matmul(x, y), rtol=1e-6)
        assert cycles == gemm_compute_cycles(6, 5, 7, CFG)

    def test_gemm_ignores_sparsity(self):
        """GEMM cycles are identical for dense and all-zero inputs."""
        z0 = gemm_compute_cycles(8, 8, 8, CFG)
        x = np.zeros((8, 8), dtype=np.float32)
        _, cycles = run_gemm_faithful(x, x, CFG)
        assert cycles == z0


class TestSpDMM:
    def test_numerics(self):
        x = random_sparse(10, 8, 0.3, seed=2)
        y = np.random.default_rng(3).random((8, 6)).astype(np.float32)
        z_faith, _ = run_spdmm_faithful(x, y, CFG)
        np.testing.assert_allclose(matmul(x, y), x.toarray() @ y, rtol=1e-5)
        np.testing.assert_allclose(z_faith, x.toarray() @ y, rtol=1e-5)

    def test_cycles_scale_with_nnz(self):
        c1 = spdmm_compute_cycles(100, 16, CFG)
        c2 = spdmm_compute_cycles(200, 16, CFG)
        assert c2 > c1

    def test_zero_nnz_free(self):
        assert spdmm_compute_cycles(0, 16, CFG) == 0

    def test_fetch_bound_thin_rows(self):
        # d=1: MAC bound is nnz/8 but fetch bound nnz/2 dominates (psys=4)
        cycles = spdmm_compute_cycles(100, 1, CFG)
        assert cycles == int(np.ceil(100 / 2)) + CFG.pipeline_depth

    def test_mac_bound_wide_rows(self):
        # d large: MAC throughput p^2/2 dominates
        cycles = spdmm_compute_cycles(10, 64, CFG)
        assert cycles == int(np.ceil(10 * 64 / 8)) + CFG.pipeline_depth

    def test_stored_zeros_skipped(self):
        x = sp.csr_matrix(
            (np.array([0.0, 2.0], dtype=np.float32), ([0, 1], [0, 1])),
            shape=(2, 2),
        )
        y = np.eye(2, dtype=np.float32)
        # the census the bill reads counts only the true nonzero ...
        assert block_nnz_grid(x, 2, 2).tolist() == [[1]]
        # ... and Algorithm 5 streams only it
        clean = x.copy()
        clean.eliminate_zeros()
        assert run_spdmm_faithful(x, y, CFG)[1] == run_spdmm_faithful(clean, y, CFG)[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_faithful_numerics_and_cycle_bound(self, seed):
        x = random_sparse(12, 10, 0.25, seed=seed)
        y = np.random.default_rng(seed + 100).random((10, 5)).astype(np.float32)
        billed = spdmm_compute_cycles(x.nnz, 5, CFG)
        z_faith, cycles = run_spdmm_faithful(x, y, CFG)
        np.testing.assert_allclose(z_faith, matmul(x, y), rtol=1e-4, atol=1e-5)
        # faithful (with bank/unit conflicts) can never beat conflict-free
        assert cycles >= billed
        # and congestion on random traffic stays bounded
        assert cycles <= 6 * billed + 10 * CFG.pipeline_depth


# ``CFG``: psys 4, so GEMM tiles are 4 x 4 with an 8-cycle fill/drain, and
# SpDMM retires 8 MACs and fetches 2 nonzeros a cycle behind a 16-deep pipe.
GEMM_CYCLES = [
    # m, n, d, cycles
    (0, 4, 4, 0), (4, 0, 4, 0), (4, 4, 0, 0),          # a zero dimension
    (1, 1, 1, 9), (4, 7, 4, 15),                       # one tile
    (5, 7, 4, 30), (4, 7, 5, 30), (5, 7, 5, 60),       # one past a tile
    (9, 7, 5, 90),
]
SPDMM_CYCLES = [
    # nnz, dense columns, cycles
    (0, 16, 0), (10, 0, 0),                            # a zero dimension
    (1, 1, 17),
    (10, 64, 96), (9, 5, 22),                          # MAC-bound: d > psys
    (7, 4, 20),                                        # d == psys: both bounds 4
    (100, 1, 66), (9, 3, 21),                          # fetch-bound: d < psys
]


@pytest.mark.parametrize("formula, table", [
    pytest.param(gemm_compute_cycles, GEMM_CYCLES, id="gemm"),
    pytest.param(spdmm_compute_cycles, SPDMM_CYCLES, id="spdmm"),
])
def test_compute_cycles_truth_table(formula, table):
    """One body answers an ``int`` question and an ``int64`` array of them."""
    *columns, cycles = (list(col) for col in zip(*table))
    for *dims, want in table:
        got = formula(*dims, CFG)
        assert type(got) is int and got == want
        one = formula(*(np.array([v], dtype=np.int64) for v in dims), CFG)
        assert one.dtype == np.int64 and one.tolist() == [want]
    for k in range(0, len(table) - 2, 3):
        three = formula(
            *(np.array(col[k:k + 3], dtype=np.int64) for col in columns), CFG)
        assert three.dtype == np.int64 and three.tolist() == cycles[k:k + 3]


def test_exposed_stream_truth_table():
    """The one pipelining formula, in dyadic numbers: as a scalar (K2P
    analysis under one kernel, cycles) and as an array (halo DMA under
    every shard's compute, seconds)."""
    table = [
        # stream, chunks, consumer, exposed
        (0.0, 0, 5.0, 0.0), (0.0, 4, 0.0, 0.0),    # nothing to move
        (8.0, 4, 16.0, 2.0), (8.0, 4, 8.0, 2.0),   # hidden: the lead-in
        (8.0, 4, 6.0, 4.0),                        # outlasts its consumer by 2
        (8.0, 0, 16.0, 8.0), (8.0, 1, 16.0, 8.0),  # one piece: nothing overlaps
    ]
    for stream, chunks, consumer, want in table:
        assert float(exposed_stream(stream, chunks, consumer)) == want
    stream, chunks, consumer, want = (np.array(col) for col in zip(*table))
    assert exposed_stream(stream, chunks, consumer).tolist() == want.tolist()


class TestSPMM:
    def test_numerics(self):
        x = random_sparse(9, 11, 0.2, seed=4)
        y = random_sparse(11, 6, 0.3, seed=5)
        z_faith, _ = run_spmm_faithful(x, y, CFG)
        np.testing.assert_allclose(matmul(x, y), (x @ y).toarray(), rtol=1e-5)
        np.testing.assert_allclose(z_faith, (x @ y).toarray(), rtol=1e-5)

    def test_exact_mac_count(self):
        x = random_sparse(9, 11, 0.2, seed=6)
        y = random_sparse(11, 6, 0.3, seed=7)
        _, macs = spmm_compute_cycles(x, y, CFG)
        # independent computation of sum over X nonzeros of nnz(Y[col])
        y_rows = np.diff(y.indptr)
        expect = sum(
            int(y_rows[j]) for i in range(9)
            for j in x.indices[x.indptr[i] : x.indptr[i + 1]]
        )
        assert macs == expect

    def test_latency_is_busiest_scp(self):
        # all work lands on output row 0 -> SCP 0 serialises everything
        x = sp.csr_matrix(np.array([[1, 1, 1, 1]] + [[0] * 4] * 7, dtype=np.float32))
        y = sp.csr_matrix(np.ones((4, 4), dtype=np.float32))
        loads, macs = spmm_workloads(x, y, CFG.psys)
        assert macs == 16
        assert loads[0] == 16
        assert loads[1:].sum() == 0
        cycles, _ = spmm_compute_cycles(x, y, CFG)
        assert cycles == 16 + CFG.pipeline_depth

    def test_zero_inputs_free(self):
        x = sp.csr_matrix((4, 4), dtype=np.float32)
        y = sp.csr_matrix((4, 4), dtype=np.float32)
        cycles, macs = spmm_compute_cycles(x, y, CFG)
        assert cycles == 0 and macs == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_faithful_matches_fast(self, seed):
        x = random_sparse(8, 9, 0.3, seed=seed + 20)
        y = random_sparse(9, 7, 0.25, seed=seed + 40)
        billed, macs = spmm_compute_cycles(x, y, CFG)
        z_faith, cycles = run_spmm_faithful(x, y, CFG)
        np.testing.assert_allclose(z_faith, matmul(x, y), rtol=1e-4, atol=1e-5)
        # a product with no multiply bills nothing, not a pipeline fill
        assert cycles == billed or macs == billed == 0

    def test_table_iv_expectation_on_uniform(self):
        """On uniform random operands the exact count tracks the
        alpha_x * alpha_y * m*n*d expectation within 3x."""
        m, n, d = 64, 64, 64
        x = random_sparse(m, n, 0.1, seed=60)
        y = random_sparse(n, d, 0.1, seed=61)
        _, macs = spmm_compute_cycles(x, y, CFG)
        ax = x.nnz / (m * n)
        ay = y.nnz / (n * d)
        expect = ax * ay * m * n * d
        assert expect / 3 <= macs <= expect * 3


#: what a block stores: zeros of both signs, NaN, ordinary values
CENSUS_VALUES = st.sampled_from([0.0, -0.0, np.nan, 1.0, -2.5, 3.0])


@st.composite
def census_blocks(draw, rows, cols, dense):
    """A block with drawn structure: empty rows, empty blocks, stored
    zeros and ``NaN``; CSR (int32, stored as drawn) or dense."""
    keep = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    mask = np.array(draw(st.lists(
        st.floats(0, 1), min_size=rows * cols, max_size=rows * cols))) < keep
    mask = mask.reshape(rows, cols)
    vals = np.array(draw(st.lists(
        CENSUS_VALUES, min_size=int(mask.sum()), max_size=int(mask.sum()))), dtype=np.float32)
    if dense:
        out = np.zeros((rows, cols), dtype=np.float32)
        out[mask] = vals
        return out
    blk = sp.csr_matrix((rows, cols), dtype=np.float32)
    blk.data, blk.indices = vals, np.nonzero(mask)[1].astype(np.int32)
    blk.indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(np.int32)
    return blk


@st.composite
def census_batches(draw):
    """``(x_blocks, y_blocks, y_of, psys)``: up to six pairs, some sharing
    a Y block, X blocks of 1-13 rows (mostly not a multiple of psys)."""
    n = draw(st.integers(1, 9))
    y_blocks = [
        draw(census_blocks(n, draw(st.integers(1, 9)), dense=draw(st.booleans())))
        for _ in range(draw(st.integers(1, 3)))
    ]
    pairs = draw(st.integers(1, 6))
    x_blocks = [draw(census_blocks(draw(st.integers(1, 13)), n, dense=False))
                for _ in range(pairs)]
    y_of = np.array([draw(st.integers(0, len(y_blocks) - 1)) for _ in range(pairs)])
    return x_blocks, y_blocks, y_of, draw(st.sampled_from([1, 3, 4, 16]))


def census_of(x_blocks, y_blocks, y_of, psys):
    """The census of pairs ``(x_blocks[p], y_blocks[y_of[p]])``, each Y
    block counted once, as the task loop hands them over."""
    counts = [row_counts(b) for b in y_blocks]
    starts = np.cumsum([0] + [c.shape[1] for c in counts])
    widths = [y_blocks[k].shape[1] for k in y_of]
    return spmm_census(
        x_blocks, np.concatenate(counts, axis=1), starts[np.asarray(y_of)], widths, psys)


class TestSpmmCensus:
    """The kernel-wide census against the per-pair count it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(census_batches())
    def test_matches_the_per_pair_count(self, batch):
        x_blocks, y_blocks, y_of, psys = batch
        loads, macs, structural = census_of(x_blocks, y_blocks, y_of, psys)
        assert loads.dtype == macs.dtype == structural.dtype == np.int64
        assert loads.shape == (len(x_blocks), psys)
        cycles = scp_cycles(loads, macs, CFG)
        for p, (x, y) in enumerate(zip(x_blocks, (y_blocks[k] for k in y_of))):
            want_loads, want_macs = spmm_workloads_reference(x, y, psys)
            np.testing.assert_array_equal(loads[p], want_loads)
            assert macs[p] == want_macs
            assert cycles[p] == (int(want_loads.max()) + CFG.pipeline_depth if want_macs else 0)
            # the one-pair path is the census of one pair
            ref = spmm_workloads_reference(x, y, CFG.psys)
            want = (int(ref[0].max()) + CFG.pipeline_depth, ref[1]) if ref[1] else (0, 0)
            assert spmm_compute_cycles(x, y, CFG) == want
            if sp.issparse(y):  # every stored entry against its stored Y row
                m, d = x.shape[0], y.shape[1]
                per_row = [np.diff(y.indptr)[x.indices[x.indptr[r]:x.indptr[r + 1]]].sum()
                           for r in range(m)]
                assert structural[p] == sum(min(int(c), d) for c in per_row)
                maxnnz = _sparsetools.csr_matmat_maxnnz(
                    m, d, x.indptr, x.indices, y.indptr, y.indices)
                assert structural[p] >= maxnnz

    def test_counts_past_int32(self):
        """Two pairs sharing a Y row of 40,000 entries: 2.8e9 multiplies
        each, past 2^31, folded over a ragged 70,000-row block."""
        m, d = 70_000, 40_000
        x = sp.csr_matrix(np.ones((m, 1), dtype=np.float32))
        y = sp.csr_matrix(np.ones((1, d), dtype=np.float32))
        loads, macs, structural = census_of([x, x], [y], [0, 0], 3)
        assert macs.tolist() == structural.tolist() == [m * d] * 2
        assert loads.tolist() == [[23_334 * d, 23_333 * d, 23_333 * d]] * 2
