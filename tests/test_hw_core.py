"""Tests for the Computation Core: its bills held against the per-pair,
per-task oracle (``task_oracle``), plus AHM and write-back accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_tiny_config, random_sparse
from repro.formats.csr import as_dense
from repro.hw.accelerator import Accelerator
from repro.hw.buffers import BufferOverflowError
from repro.hw.core import (
    ComputationCore,
    batch_pair_cycles,
    batch_task_writeback,
    writeback_stream,
)
from repro.hw.memory import ExternalMemory
from repro.hw.report import PRIMITIVE_CODES, CycleReport, Primitive, stage_cycles
from task_oracle import (
    OperandSpec,
    PairDecision,
    copy_report,
    execute_pair,
    execute_task,
    merge_reports,
)

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
    @pytest.mark.parametrize("prim, transposed, x_sparse, y_sparse", [
        pytest.param(
            prim, transposed, x_sparse, y_sparse,
            id="-".join(
                [str(prim)] + ["transposed"] * transposed
                + ([] if x_sparse and y_sparse else
                   [f"x{'coo' if x_sparse else 'dense'}",
                    f"y{'coo' if y_sparse else 'dense'}"])
            ),
        )
        for prim, transposed in (
            (Primitive.GEMM, False), (Primitive.SPDMM, False),
            (Primitive.SPDMM, True), (Primitive.SPMM, False),
        )
        for x_sparse in (True, False)
        for y_sparse in (True, False)
    ])
    def test_all_primitives_same_product(self, prim, transposed, x_sparse, y_sparse):
        x = random_sparse(8, 6, 0.4, seed=1)
        y = random_sparse(6, 5, 0.5, seed=2)
        xs, ys = spec_from(x, x_sparse), spec_from(y, y_sparse)
        core = fresh_core()
        z, ex = execute_pair(core, xs, ys, PairDecision(prim, transposed))
        np.testing.assert_allclose(z, (x @ y).toarray(), rtol=1e-5)
        assert ex.primitive is prim
        assert ex.report.compute > 0
        # the bill of that pair is the oracle's, pair by pair; SPMM's
        # compute and MACs are data-dependent and billed in the
        # functional pass, so the batched bill leaves them zero
        compute, transform, macs = (int(v[0]) for v in batch_pair_cycles(
            core, np.array([PRIMITIVE_CODES[prim]]), np.array([transposed]),
            *(np.array([v]) for v in (8, 6, 5, xs.nnz, ys.nnz)),
            x_sparse, y_sparse,
        ))
        assert transform == ex.report.transform
        if prim is Primitive.SPMM:
            assert compute == macs == 0
        else:
            assert (compute, macs) == (ex.report.compute, ex.report.macs)

    def test_skip_pair_costs_nothing(self):
        core = fresh_core()
        x = spec_from(np.zeros((4, 4), dtype=np.float32))
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        z, ex = execute_pair(core, x, y, PairDecision(Primitive.SKIP))
        assert z is None
        assert ex.report.compute == 0
        assert ex.report.memory == 0
        assert ex.report.bytes_read == 0

    def test_transposed_spdmm_same_product(self):
        x = np.random.default_rng(3).random((6, 5)).astype(np.float32)
        y = random_sparse(5, 7, 0.2, seed=4)
        core = fresh_core()
        z, ex = execute_pair(
            core, spec_from(x), spec_from(y, True),
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
        _, ex = execute_pair(core, x, y, PairDecision(Primitive.GEMM))
        assert ex.report.transform > 0  # the LTU pass for Y

    def test_spdmm_charges_d2s_when_sparse_operand_stored_dense(self):
        core = fresh_core()
        x = spec_from(np.eye(4, dtype=np.float32), stored_sparse=False)
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        _, ex = execute_pair(core, x, y, PairDecision(Primitive.SPDMM))
        assert ex.report.transform > 0

    def test_spdmm_no_transform_when_formats_match(self):
        core = fresh_core()
        x = spec_from(random_sparse(4, 4, 0.5, seed=5), stored_sparse=True)
        y = spec_from(np.ones((4, 4), dtype=np.float32), stored_sparse=False)
        _, ex = execute_pair(core, x, y, PairDecision(Primitive.SPDMM))
        assert ex.report.transform == 0

    def test_memory_bytes_reflect_storage_format(self):
        core = fresh_core()
        xs = random_sparse(8, 8, 0.25, seed=6)
        x_sparse = spec_from(xs, stored_sparse=True)
        x_dense = spec_from(xs, stored_sparse=False)
        y = spec_from(np.ones((8, 4), dtype=np.float32))
        _, ex1 = execute_pair(core, x_sparse, y, PairDecision(Primitive.SPDMM))
        core2 = fresh_core()
        _, ex2 = execute_pair(core2, x_dense, y, PairDecision(Primitive.SPDMM))
        assert ex1.report.bytes_read == 12 * xs.nnz + 4 * 32
        assert ex2.report.bytes_read == 4 * 64 + 4 * 32

    def test_mode_switch_counted(self):
        core = fresh_core()
        x = spec_from(np.ones((4, 4), dtype=np.float32))
        y = spec_from(np.ones((4, 4), dtype=np.float32))
        _, ex1 = execute_pair(core, x, y, PairDecision(Primitive.GEMM))
        _, ex2 = execute_pair(core, x, y, PairDecision(Primitive.SPDMM))
        _, ex3 = execute_pair(core, x, y, PairDecision(Primitive.SPDMM))
        assert ex1.report.mode_switches == 0
        assert ex2.report.mode_switches == 1
        assert ex3.report.mode_switches == 0

    def test_buffer_overflow_detected(self):
        big = np.ones((400, 400), dtype=np.float32)  # 160k words > 64k
        core = fresh_core()
        with pytest.raises(BufferOverflowError):
            execute_pair(
                core, spec_from(big), spec_from(big), PairDecision(Primitive.GEMM)
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
        result = execute_task(core, pairs, (4, 5))
        expect = sum(x @ y for x, y in zip(xs, ys))
        np.testing.assert_allclose(result.z, expect, rtol=1e-5)
        assert result.primitive_counts[Primitive.GEMM] == 3

    def test_accumulate_init(self):
        init = np.full((2, 2), 10.0, dtype=np.float32)
        x = np.eye(2, dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        result = execute_task(fresh_core(), pairs, (2, 2), accumulate_init=init)
        np.testing.assert_allclose(result.z, init + np.eye(2))

    def test_activation_applied_after_accumulation(self):
        x = -np.eye(2, dtype=np.float32)
        pairs = [(spec_from(x), spec_from(np.eye(2, dtype=np.float32)),
                  PairDecision(Primitive.GEMM))]
        result = execute_task(
            fresh_core(), pairs, (2, 2), activation=lambda z: np.maximum(z, 0)
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
        result = execute_task(core, pairs, (4, 4))
        np.testing.assert_allclose(
            result.z, x @ ys.toarray() + x @ x, rtol=1e-5
        )
        # the row-major accumulator plus the column-major one, in float32,
        # and one layout-merger pass over Z on top of the pairs' own passes
        col, col_ex = execute_pair(fresh_core(), *pairs[0])
        row, row_ex = execute_pair(fresh_core(), *pairs[1])
        np.testing.assert_array_equal(result.z, row + col)
        assert result.z.dtype == np.float32
        merger = core.merger.cycles_for(16)
        reads = col_ex.report.transform + row_ex.report.transform + merger
        _, d2s, _ = writeback_stream(
            core, 16, result.output_nnz,
            0.0 + col_ex.report.memory + row_ex.report.memory, reads,
        )
        assert result.report.transform == reads + d2s

    @given(
        m=st.integers(1, 48), d=st.integers(1, 48),
        fill=st.floats(0.0, 1.0), active=st.integers(1, 8),
        psys=st.sampled_from([2, 4, 16, 64]),
        read=st.floats(0.0, 2000.0), reads_transform=st.integers(0, 2000),
    )
    @settings(max_examples=300, deadline=None)
    def test_write_sparse_bytes(self, m, d, fill, active, psys, read, reads_transform):
        # the write-back bills whichever of the dense stream and COO plus
        # the D2S pass leaves its task's stream shorter, and both task
        # loops bill it alike
        cfg = make_tiny_config(psys=psys, num_cores=8)
        size, nnz = m * d, int(fill * m * d)
        core = ComputationCore(cfg, ExternalMemory(cfg))
        core.active_cores = active
        b = cfg.memory.bytes_per_cycle(cfg.freq_hz) / active
        d2s = -(size // -psys) + int(np.log2(psys))
        dense = max(read + 4 * size / b, reads_transform)
        coo = max(read + 12 * nnz / b, reads_transform + d2s)
        wrote_coo, billed_d2s, out_bytes = writeback_stream(
            core, size, nnz, read, reads_transform
        )
        assert wrote_coo == (coo < dense)
        assert (billed_d2s, out_bytes) == ((d2s, 12 * nnz) if wrote_coo else (0, 4 * size))
        profile, transform, write_bytes, batch_coo = batch_task_writeback(
            core, *(np.array([v]) for v in (size, nnz, False, read, reads_transform))
        )
        assert (transform[0], write_bytes[0], batch_coo[0]) == (
            billed_d2s, out_bytes, wrote_coo
        )
        # a task that read nothing: the core bills the shorter stream
        z = np.zeros(size, dtype=np.float32)
        z[:nnz] = 1.0
        r = execute_task(core, [], (m, d), accumulate_init=z.reshape(m, d))
        rep = r.report
        empty = writeback_stream(core, size, nnz, 0.0, 0)
        assert (r.coo_writeback, rep.transform, rep.bytes_written) == tuple(
            int(v) for v in empty
        )
        assert r.coo_writeback == (max(12 * nnz / b, d2s) < 4 * size / b)
        assert max(rep.memory, rep.transform) == min(4 * size / b, max(12 * nnz / b, d2s))
        assert rep.memory == rep.bytes_written / b
        assert rep.profile == profile[0]

    def test_write_back_tie_goes_dense(self):
        # 14 cores share 308 B a cycle: 22 B each, exactly.  A 12 x 22
        # partition streams dense in 4 * 264 / 22 = 48 cycles, and its
        # psys=16 D2S pass takes 17 + 4 = 21 beside the transfer
        cfg = make_tiny_config(psys=16, num_cores=14)
        core = ComputationCore(cfg, ExternalMemory(cfg))
        core.active_cores = 14
        # a task that read nothing: 88 nonzeros stream in 48 cycles too
        for nnz, coo in ((88, False), (87, True)):
            z = np.zeros(264, dtype=np.float32)
            z[:nnz] = 1.0
            r = execute_task(core, [], (12, 22), accumulate_init=z.reshape(12, 22))
            assert r.coo_writeback is coo
            assert r.report.bytes_written == (12 * nnz if coo else 4 * 264)
        # after reads whose AHM passes took 27 cycles, 11 nonzeros stream in
        # 6 and the D2S pass ends at 48; after 0.3 DDR cycles, 88 stream in
        # the dense 48 again
        for memory, transform, nnz, coo in (
            (0.0, 27, 11, False), (0.0, 26, 11, True), (0.3, 0, 88, False), (0.3, 0, 87, True)
        ):
            assert bool(writeback_stream(core, 264, nnz, memory, transform)[0]) is coo
        # serialised, 7 cores at 44 B each: 256 elements holding 12 nonzeros
        # save 880 B as COO, 20 cycles, and the D2S pass takes 16 + 4 = 20,
        # whatever the task read first (0.3 + 144/44 + 19 + 20 rounds below
        # 0.3 + 1024/44 + 19)
        cfg = make_tiny_config(psys=16, num_cores=7)
        cfg = cfg.replace(buffers=dataclasses.replace(cfg.buffers, double_buffering=False))
        core = ComputationCore(cfg, ExternalMemory(cfg))
        core.active_cores = 7
        for memory, transform in ((0.0, 0), (0.3, 19), (2 / 3, 3)):
            for nnz, coo in ((12, False), (11, True)):
                assert bool(writeback_stream(core, 256, nnz, memory, transform)[0]) is coo

    @given(
        size=st.integers(1, 4096), fill=st.floats(0.0, 1.0),
        compute=st.floats(0.0, 5000.0), memory=st.floats(0.0, 5000.0),
        transform=st.integers(0, 5000), active=st.integers(1, 8),
        psys=st.sampled_from([2, 4, 16, 64]), double_buffering=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_write_back_never_lengthens_the_task(
        self, size, fill, compute, memory, transform, active, psys, double_buffering
    ):
        # the chosen write-back's task is no longer than either fixed
        # choice's, each of which is no longer than the summed load stream
        # billed it
        cfg = make_tiny_config(psys=psys, num_cores=8)
        cfg = cfg.replace(buffers=dataclasses.replace(
            cfg.buffers, double_buffering=double_buffering
        ))
        core = ComputationCore(cfg, ExternalMemory(cfg))
        core.active_cores = active
        nnz = int(fill * size)
        b = core.memory.per_core_bytes_per_cycle(active)

        def task(out_bytes, d2s):
            return stage_cycles(
                memory + out_bytes / b, transform + d2s, compute,
                double_buffering=double_buffering,
            )

        _, d2s, out_bytes = writeback_stream(core, size, nnz, memory, transform)
        chosen = task(out_bytes, d2s)
        for fixed_bytes, fixed_d2s in ((4 * size, 0), (12 * nnz, core.d2s.cycles_for(size))):
            fixed = task(fixed_bytes, fixed_d2s)
            assert chosen <= fixed
            if double_buffering:
                assert fixed <= max(compute, memory + fixed_bytes / b + transform + fixed_d2s)

    def test_latency_double_buffering_is_max(self):
        x = np.ones((4, 4), dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        result = execute_task(fresh_core(), pairs, (4, 4))
        r = result.report
        expect = max(r.compute, r.memory, r.transform) + r.mode_switches
        assert result.latency == pytest.approx(expect)

    def test_latency_without_double_buffering_is_sum(self):
        cfg = make_tiny_config()
        cfg = cfg.replace(buffers=cfg.buffers.__class__(
            words_per_buffer=64 * 1024, double_buffering=False
        ))
        core = ComputationCore(cfg, ExternalMemory(cfg))
        x = np.ones((4, 4), dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        result = execute_task(core, pairs, (4, 4))
        r = result.report
        assert result.latency == pytest.approx(
            r.compute + r.memory + r.transform + r.profile + r.mode_switches
        )

    def test_profile_cycles_charged(self):
        x = np.ones((4, 4), dtype=np.float32)
        pairs = [(spec_from(x), spec_from(x), PairDecision(Primitive.GEMM))]
        core = fresh_core()
        result = execute_task(core, pairs, (4, 4))
        # Z leaves the Result Buffer dense: the profiler streams every element
        assert result.report.profile == core.profiler.cycles_for(16) > 0
        assert result.output_nnz == 16

    def test_empty_task_with_init_keeps_init(self):
        init = np.full((3, 3), 2.0, dtype=np.float32)
        result = execute_task(fresh_core(), [], (3, 3), accumulate_init=init)
        np.testing.assert_array_equal(result.z, init)

    def test_bad_init_shape(self):
        with pytest.raises(ValueError):
            execute_task(
                fresh_core(), [], (3, 3), accumulate_init=np.zeros((2, 2), dtype=np.float32)
            )


class TestCycleReport:
    def test_merge(self):
        a = CycleReport(compute=10, memory=5, macs=100, bytes_read=40)
        b = CycleReport(compute=1, transform=2, profile=3, mode_switches=1)
        merge_reports(a, b)
        assert a.compute == 11 and a.transform == 2 and a.macs == 100

    def test_copy_independent(self):
        a = CycleReport(compute=1)
        b = copy_report(a)
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
