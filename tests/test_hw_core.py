"""Tests for the Computation Core: pair/task execution + AHM accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_tiny_config, random_sparse
from repro.formats.csr import as_dense
from repro.hw.accelerator import Accelerator
from repro.hw.buffers import BufferOverflowError
from repro.hw.core import (
    ComputationCore,
    OperandSpec,
    PairDecision,
    batch_task_writeback,
    writeback_stream,
)
from repro.hw.memory import ExternalMemory
from repro.hw.report import CycleReport, Primitive

CFG = make_tiny_config()


def spec_from(mat, stored_sparse=False):
    dense = as_dense(mat)
    nnz = int(np.count_nonzero(dense))
    return OperandSpec(
        data=mat,
        nbytes=12 * nnz if stored_sparse else 4 * dense.size,
        nnz=nnz,
        stored_sparse=stored_sparse,
        shape=dense.shape,
    )


def fresh_core():
    return ComputationCore(CFG, ExternalMemory(CFG))


class TestExecutePair:
    @pytest.mark.parametrize("prim", [Primitive.GEMM, Primitive.SPDMM, Primitive.SPMM])
    def test_all_primitives_same_product(self, prim):
        x = random_sparse(8, 6, 0.4, seed=1)
        y = random_sparse(6, 5, 0.5, seed=2)
        core = fresh_core()
        z, ex = core.execute_pair(
            spec_from(x, True), spec_from(y, True), PairDecision(prim)
        )
        np.testing.assert_allclose(z, (x @ y).toarray(), rtol=1e-5)
        assert ex.primitive is prim
        assert ex.report.compute > 0

    def test_skip_pair_costs_nothing(self):
        core = fresh_core()
        x = spec_from(np.zeros((4, 4), dtype=np.float32))
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        z, ex = core.execute_pair(x, y, PairDecision(Primitive.SKIP))
        assert z is None
        assert ex.report.compute == 0
        assert ex.report.memory == 0
        assert ex.report.bytes_read == 0

    def test_transposed_spdmm_same_product(self):
        x = np.random.default_rng(3).random((6, 5)).astype(np.float32)
        y = random_sparse(5, 7, 0.2, seed=4)
        core = fresh_core()
        z, ex = core.execute_pair(
            spec_from(x), spec_from(y, True),
            PairDecision(Primitive.SPDMM, transposed=True),
        )
        np.testing.assert_allclose(z, x @ y.toarray(), rtol=1e-5)
        assert ex.transposed
        # cycles follow the transposed orientation: nnz(Y) vs m rows
        assert ex.report.macs == spec_from(y, True).nnz * 6

    def test_gemm_charges_ltu_for_column_major_operand(self):
        core = fresh_core()
        x = spec_from(np.ones((4, 4), dtype=np.float32))
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        _, ex = core.execute_pair(x, y, PairDecision(Primitive.GEMM))
        assert ex.report.transform > 0  # the LTU pass for Y

    def test_spdmm_charges_d2s_when_sparse_operand_stored_dense(self):
        core = fresh_core()
        x = spec_from(np.eye(4, dtype=np.float32), stored_sparse=False)
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        _, ex = core.execute_pair(x, y, PairDecision(Primitive.SPDMM))
        assert ex.report.transform > 0

    def test_spdmm_no_transform_when_formats_match(self):
        core = fresh_core()
        x = spec_from(random_sparse(4, 4, 0.5, seed=5), stored_sparse=True)
        y = spec_from(np.ones((4, 4), dtype=np.float32), stored_sparse=False)
        _, ex = core.execute_pair(x, y, PairDecision(Primitive.SPDMM))
        assert ex.report.transform == 0

    def test_memory_bytes_reflect_storage_format(self):
        core = fresh_core()
        xs = random_sparse(8, 8, 0.25, seed=6)
        x_sparse = spec_from(xs, stored_sparse=True)
        x_dense = spec_from(xs, stored_sparse=False)
        y = spec_from(np.ones((8, 4), dtype=np.float32))
        _, ex1 = core.execute_pair(x_sparse, y, PairDecision(Primitive.SPDMM))
        core2 = fresh_core()
        _, ex2 = core2.execute_pair(x_dense, y, PairDecision(Primitive.SPDMM))
        assert ex1.report.bytes_read == 12 * xs.nnz + 4 * 32
        assert ex2.report.bytes_read == 4 * 64 + 4 * 32

    def test_mode_switch_counted(self):
        core = fresh_core()
        x = spec_from(np.ones((4, 4), dtype=np.float32))
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        _, ex1 = core.execute_pair(x, y, PairDecision(Primitive.GEMM))
        _, ex2 = core.execute_pair(x, y, PairDecision(Primitive.SPDMM))
        _, ex3 = core.execute_pair(x, y, PairDecision(Primitive.SPDMM))
        assert ex1.report.mode_switches == 0
        assert ex2.report.mode_switches == 1
        assert ex3.report.mode_switches == 0

    def test_buffer_overflow_detected(self):
        big = np.ones((400, 400), dtype=np.float32)  # 160k words > 64k
        core = fresh_core()
        with pytest.raises(BufferOverflowError):
            core.execute_pair(
                spec_from(big), spec_from(big), PairDecision(Primitive.GEMM)
            )


class TestExecuteTask:
    def test_accumulates_k_pairs(self):
        rng = np.random.default_rng(7)
        xs = [rng.random((4, 3)).astype(np.float32) for _ in range(3)]
        ys = [rng.random((3, 5)).astype(np.float32) for _ in range(3)]
        pairs = [
            (spec_from(x), spec_from(y), PairDecision(Primitive.GEMM))
            for x, y in zip(xs, ys)
        ]
        core = fresh_core()
        result = core.execute_task(pairs, (4, 5))
        expect = sum(x @ y for x, y in zip(xs, ys))
        np.testing.assert_allclose(result.z, expect, rtol=1e-5)
        assert result.primitive_counts[Primitive.GEMM] == 3

    def test_accumulate_init(self):
        init = np.full((2, 2), 10.0, dtype=np.float32)
        x = np.eye(2, dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        result = fresh_core().execute_task(pairs, (2, 2), accumulate_init=init)
        np.testing.assert_allclose(result.z, init + np.eye(2))

    def test_activation_applied_after_accumulation(self):
        x = -np.eye(2, dtype=np.float32)
        pairs = [(spec_from(x), spec_from(np.eye(2, dtype=np.float32)),
                  PairDecision(Primitive.GEMM))]
        result = fresh_core().execute_task(
            pairs, (2, 2), activation=lambda z: np.maximum(z, 0)
        )
        np.testing.assert_array_equal(result.z, np.zeros((2, 2)))

    def test_transposed_partials_merged(self):
        x = np.random.default_rng(8).random((4, 4)).astype(np.float32)
        ys = random_sparse(4, 4, 0.4, seed=9)
        pairs = [
            (spec_from(x), spec_from(ys, True),
             PairDecision(Primitive.SPDMM, transposed=True)),
            (spec_from(x), spec_from(x), PairDecision(Primitive.GEMM)),
        ]
        core = fresh_core()
        result = core.execute_task(pairs, (4, 4))
        np.testing.assert_allclose(
            result.z, x @ ys.toarray() + x @ x, rtol=1e-5
        )
        # the row-major accumulator plus the column-major one, in float32,
        # and one layout-merger pass over Z on top of the pairs' own passes
        col, col_ex = fresh_core().execute_pair(*pairs[0])
        row, row_ex = fresh_core().execute_pair(*pairs[1])
        np.testing.assert_array_equal(result.z, row + col)
        assert result.z.dtype == np.float32
        merger = core.merger.cycles_for(16)
        _, d2s, _ = writeback_stream(core, 16, result.output_nnz)
        assert result.report.transform == (
            col_ex.report.transform + row_ex.report.transform + merger + d2s
        )

    @given(
        m=st.integers(1, 48), d=st.integers(1, 48),
        fill=st.floats(0.0, 1.0), active=st.integers(1, 8),
        psys=st.sampled_from([2, 4, 16, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_write_sparse_bytes(self, m, d, fill, active, psys):
        # the write-back bills the cheaper of the dense stream and COO
        # plus the D2S pass, and both task loops bill it alike
        cfg = make_tiny_config(psys=psys, num_cores=8)
        size, nnz = m * d, int(fill * m * d)
        z = np.zeros(size, dtype=np.float32)
        z[:nnz] = 1.0
        core = ComputationCore(cfg, ExternalMemory(cfg))
        core.active_cores = active
        r = core.execute_task([], (m, d), accumulate_init=z.reshape(m, d))
        b = cfg.memory.bytes_per_cycle(cfg.freq_hz) / active
        d2s = -(size // -psys) + int(np.log2(psys))
        dense, coo = 4 * size / b, 12 * nnz / b + d2s
        rep = r.report
        assert rep.memory + rep.transform == pytest.approx(min(dense, coo), rel=1e-12)
        assert rep.bytes_written == (12 * nnz if r.coo_writeback else 4 * size)
        if not np.isclose(dense, coo, rtol=1e-9, atol=0):
            assert r.coo_writeback == (coo < dense)
        profile, transform, write_bytes, wrote_coo = batch_task_writeback(
            core, [size], [nnz], [False]
        )
        assert (profile[0], transform[0], write_bytes[0], wrote_coo[0]) == (
            rep.profile, rep.transform, rep.bytes_written, r.coo_writeback
        )
        assert rep.memory == write_bytes[0] / b

    def test_write_back_tie_goes_dense(self):
        # 7 cores share 308 B a cycle: 44 B each, exactly.  256 elements
        # holding 12 nonzeros save 880 B as COO, 20 cycles at 44 B, and
        # the psys=16 D2S pass over 256 elements takes 16 + 4 = 20
        cfg = make_tiny_config(psys=16, num_cores=7)
        core = ComputationCore(cfg, ExternalMemory(cfg))
        core.active_cores = 7
        for nnz, coo in ((12, False), (11, True)):
            z = np.zeros(256, dtype=np.float32)
            z[:nnz] = 1.0
            r = core.execute_task([], (16, 16), accumulate_init=z.reshape(16, 16))
            assert r.coo_writeback is coo
            assert r.report.bytes_written == (12 * nnz if coo else 4 * 256)

    def test_latency_double_buffering_is_max(self):
        x = np.ones((4, 4), dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        result = fresh_core().execute_task(pairs, (4, 4))
        r = result.report
        expect = max(r.compute, r.memory + r.transform) + r.mode_switches
        assert result.latency == pytest.approx(expect)

    def test_latency_without_double_buffering_is_sum(self):
        cfg = make_tiny_config()
        cfg = cfg.replace(buffers=cfg.buffers.__class__(
            words_per_buffer=64 * 1024, double_buffering=False
        ))
        core = ComputationCore(cfg, ExternalMemory(cfg))
        x = np.ones((4, 4), dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        result = core.execute_task(pairs, (4, 4))
        r = result.report
        assert result.latency == pytest.approx(
            r.compute + r.memory + r.transform + r.profile + r.mode_switches
        )

    def test_profile_cycles_charged(self):
        x = np.ones((4, 4), dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        core = fresh_core()
        result = core.execute_task(pairs, (4, 4))
        # Z leaves the Result Buffer dense: the profiler streams every element
        assert result.report.profile == core.profiler.cycles_for(16) > 0
        assert result.output_nnz == 16

    def test_empty_task_with_init_keeps_init(self):
        init = np.full((3, 3), 2.0, dtype=np.float32)
        result = fresh_core().execute_task([], (3, 3), accumulate_init=init)
        np.testing.assert_array_equal(result.z, init)

    def test_bad_init_shape(self):
        with pytest.raises(ValueError):
            fresh_core().execute_task(
                [], (3, 3), accumulate_init=np.zeros((2, 2), dtype=np.float32)
            )


class TestCycleReport:
    def test_merge(self):
        a = CycleReport(compute=10, memory=5, macs=100, bytes_read=40)
        b = CycleReport(compute=1, transform=2, profile=3, mode_switches=1)
        a.merge(b)
        assert a.compute == 11 and a.transform == 2 and a.macs == 100

    def test_copy_independent(self):
        a = CycleReport(compute=1)
        b = a.copy()
        b.compute = 99
        assert a.compute == 1


class TestAccelerator:
    def test_construction(self):
        acc = Accelerator(CFG)
        assert acc.num_cores == CFG.num_cores
        assert all(c.memory is acc.memory for c in acc.cores)

    def test_reset_clears_stats(self):
        acc = Accelerator(CFG)
        acc.memory.read_cycles(100)
        acc.soft_processor.k2p_decision_seconds(10)
        acc.reset()
        assert acc.memory.ledger.total == 0
        assert acc.soft_processor.stats.seconds == 0.0
