"""Property-based tests on the hardware units' core invariants."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import make_tiny_config
from repro.formats.csr import matmul
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.spmm_unit import spmm_compute_cycles
from repro.runtime.perf_model import model_cycles_batch
from unit_oracles import run_gemm_faithful, run_spdmm_faithful, run_spmm_faithful

CFG = make_tiny_config()


@st.composite
def sparse_pair(draw, max_dim=10):
    m = draw(st.integers(2, max_dim))
    n = draw(st.integers(2, max_dim))
    d = draw(st.integers(2, max_dim))
    seed_x = draw(st.integers(0, 2**16))
    seed_y = draw(st.integers(0, 2**16))
    dens_x = draw(st.sampled_from([0.1, 0.3, 0.7]))
    dens_y = draw(st.sampled_from([0.1, 0.3, 0.7]))
    rng_x = np.random.default_rng(seed_x)
    rng_y = np.random.default_rng(seed_y)
    x = sp.random(m, n, density=dens_x, format="csr", dtype=np.float32, rng=rng_x)
    y = sp.random(n, d, density=dens_y, format="csr", dtype=np.float32, rng=rng_y)
    return x, y


class TestModeEquivalence:
    @given(sparse_pair())
    @settings(max_examples=40, deadline=None)
    def test_all_three_modes_compute_same_product(self, pair):
        """§III-A: the primitives differ only in which zeros they skip, so
        the one product the core computes (``matmul``, whichever side is
        held dense) is each mode's."""
        x, y = pair
        z = matmul(x, y)
        for xx, yy in ((x.toarray(), y.toarray()), (x, y.toarray()), (x.toarray(), y)):
            np.testing.assert_allclose(matmul(xx, yy), z, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(
            z, x.toarray().astype(np.float64) @ y.toarray(), rtol=1e-4, atol=1e-5
        )

    @given(sparse_pair(max_dim=8))
    @settings(max_examples=20, deadline=None)
    def test_faithful_simulators_agree(self, pair):
        """Each mode's Algorithm, run entry by entry, computes ``matmul``'s
        product and takes the cycles its formula bills (SpDMM's at least:
        the faithful one serialises bank and unit conflicts)."""
        x, y = pair
        (m, n), d = x.shape, y.shape[1]
        z_ref = matmul(x, y)
        z_gemm, gemm = run_gemm_faithful(x, y, CFG)
        z_spdmm, spdmm = run_spdmm_faithful(x, y.toarray(), CFG)
        z_spmm, spmm = run_spmm_faithful(x, y, CFG)
        for z in (z_gemm, z_spdmm, z_spmm):
            np.testing.assert_allclose(z, z_ref, rtol=1e-3, atol=1e-4)
        assert gemm == gemm_compute_cycles(m, n, d, CFG)
        assert spdmm >= spdmm_compute_cycles(x.nnz, d, CFG)
        billed, macs = spmm_compute_cycles(x, y, CFG)
        assert spmm == billed or macs == billed == 0


class TestCycleInvariants:
    @given(sparse_pair())
    @settings(max_examples=40, deadline=None)
    def test_sparse_modes_never_exceed_their_model_bound_shape(self, pair):
        """Simulated SpDMM cycles scale with nnz exactly as Table IV says
        (modulo fetch bound and pipeline fill)."""
        x, y = pair
        d = y.shape[1]
        cycles = spdmm_compute_cycles(x.nnz, d, CFG)
        if x.nnz == 0:
            assert cycles == 0
            return
        mac_bound = np.ceil(x.nnz * d / (CFG.psys**2 / 2))
        fetch_bound = np.ceil(x.nnz / (CFG.psys / 2))
        assert cycles == max(mac_bound, fetch_bound) + CFG.pipeline_depth

    @given(
        st.integers(2, 64), st.integers(2, 64), st.integers(2, 64),
        st.floats(0.01, 1.0), st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_model_monotone_in_density(self, m, n, d, ax, ay):
        """Table IV: more density never makes a sparse mode cheaper."""
        gemm, spdmm, spmm = model_cycles_batch(
            m, n, d, np.array([ax, min(1.0, ax + 0.1)]), ay, CFG)
        assert spdmm[1] >= spdmm[0]
        assert spmm[1] >= spmm[0]
        # GEMM is density-independent
        assert gemm[1] == gemm[0]

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_gemm_cycles_superadditive_in_tiles(self, m, n, d):
        """Exact tiled GEMM cycles are at least the Table IV ideal and at
        most ideal * (ceil inflation) * fill factor."""
        import math

        exact = gemm_compute_cycles(m, n, d, CFG)
        p = CFG.psys
        ideal = m * n * d / p**2
        assert exact >= ideal
        tiles = math.ceil(m / p) * math.ceil(d / p)
        assert exact <= tiles * (n + 2 * p)
