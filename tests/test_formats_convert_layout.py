"""Tests for the D2S/S2D units (Fig. 8), the LTU and the layout merger:
Fig. 8's staged pipeline and the streaming-pass cycles every unit bills."""

import numpy as np
import pytest

from repro.formats.convert import DenseToSparseModule, SparseToDenseModule
from repro.formats.density import SparsityProfiler
from repro.formats.layout import LayoutMerger, LayoutTransformationUnit


class TestD2SStagedPipeline:
    """The faithful prefix-sum shifting pipeline of Fig. 8."""

    def test_paper_example(self):
        # Fig. 8's running example: [7 8 0 6 0 0 1 ...] compacts to [7 8 6 1]
        d2s = DenseToSparseModule(width=8)
        values = np.array([7, 8, 0, 6, 0, 0, 1, 0], dtype=np.float32)
        out_val, out_idx, snapshots = d2s.compact_staged(values)
        assert list(out_val) == [7.0, 8.0, 6.0, 1.0]
        assert list(out_idx) == [0, 1, 3, 6]
        # the pipeline the D2S unit bills is log2(8) stages deep
        assert len(snapshots) == d2s.pipeline_stages == 3

    def test_all_zero_chunk(self):
        d2s = DenseToSparseModule(width=4)
        out_val, out_idx, _ = d2s.compact_staged(np.zeros(4, dtype=np.float32))
        assert out_val.size == 0
        assert out_idx.size == 0

    def test_all_nonzero_chunk(self):
        d2s = DenseToSparseModule(width=4)
        vals = np.array([1, 2, 3, 4], dtype=np.float32)
        out_val, out_idx, _ = d2s.compact_staged(vals)
        np.testing.assert_array_equal(out_val, vals)
        np.testing.assert_array_equal(out_idx, [0, 1, 2, 3])

    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_compaction(self, width, seed):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 3, size=width).astype(np.float32)
        d2s = DenseToSparseModule(width=width)
        out_val, out_idx, _ = d2s.compact_staged(vals)
        expect_idx = np.nonzero(vals)[0]
        np.testing.assert_array_equal(out_idx, expect_idx)
        np.testing.assert_array_equal(out_val, vals[expect_idx])

    def test_chunk_too_large_rejected(self):
        with pytest.raises(ValueError):
            DenseToSparseModule(width=4).compact_staged(np.ones(5))

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            DenseToSparseModule(width=3)


class TestD2SFastPath:
    """What the D2S unit bills a pass: ``ceil(E / width) + log2(width)``."""

    def test_cycle_model(self):
        d2s = DenseToSparseModule(width=16)
        assert d2s.cycles_for(0) == 0
        assert d2s.cycles_for(16) == 1 + 4
        assert d2s.cycles_for(17) == 2 + 4
        assert d2s.cycles_for(1600) == 100 + 4

    def test_throughput_is_width_per_cycle(self):
        d2s = DenseToSparseModule(width=8)
        # streaming cycles grow linearly at 1/width slope
        c1 = d2s.cycles_for(8_000)
        c2 = d2s.cycles_for(16_000)
        assert c2 - c1 == 1000


class TestS2D:
    def test_cycles_bounded_by_dense_size(self):
        s2d = SparseToDenseModule(width=16)
        assert s2d.cycles_for(160) == 10 + 4


class TestLayoutTransformationUnit:
    def test_zero_elements_free(self):
        assert LayoutTransformationUnit(width=8).cycles_for(0) == 0


# One streaming pass, ``ceil(E / width) + fill`` and zero for ``E = 0``, has
# one body (``StreamingUnit.cycles_for``); every unit states its own fill.
# E: nothing, one element, one short of a pass, a pass, one over, ragged.
STREAMING = [
    pytest.param(DenseToSparseModule(16), [0, 1, 15, 16, 17, 1000],
                 [0, 5, 5, 5, 6, 67], id="d2s-w16-fill4"),
    pytest.param(SparseToDenseModule(16), [0, 1, 15, 16, 17, 1000],
                 [0, 5, 5, 5, 6, 67], id="s2d-w16-fill4"),
    pytest.param(SparsityProfiler(16), [0, 1, 15, 16, 17, 1000],
                 [0, 5, 5, 5, 6, 67], id="profiler-w16-fill4"),
    pytest.param(SparsityProfiler(1), [0, 1, 2, 3, 7, 1000],
                 [0, 2, 3, 4, 8, 1001], id="profiler-w1-fill1"),
    pytest.param(LayoutTransformationUnit(16), [0, 1, 15, 16, 17, 1000],
                 [0, 11, 11, 11, 12, 73], id="ltu-w16-fill10"),
    pytest.param(LayoutTransformationUnit(8), [0, 1, 7, 8, 9, 1000],
                 [0, 7, 7, 7, 8, 131], id="ltu-w8-fill6"),
    pytest.param(LayoutMerger(16), [0, 1, 15, 16, 17, 1000],
                 [0, 1, 1, 1, 2, 63], id="merger-w16-fill0"),
    pytest.param(LayoutMerger(4), [0, 1, 3, 4, 5, 1000],
                 [0, 1, 1, 1, 2, 250], id="merger-w4-fill0"),
]


@pytest.mark.parametrize("unit, sizes, cycles", STREAMING)
def test_streaming_cycles_truth_table(unit, sizes, cycles):
    for size, want in zip(sizes, cycles):
        got = unit.cycles_for(size)
        assert type(got) is int and got == want
        one = unit.cycles_for(np.array([size], dtype=np.int64))
        assert one.dtype == np.int64 and one.tolist() == [want]
    for k in (0, 3):
        three = unit.cycles_for(np.array(sizes[k:k + 3], dtype=np.int64))
        assert three.dtype == np.int64 and three.tolist() == cycles[k:k + 3]

