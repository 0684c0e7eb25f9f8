"""The Computation Core: Agile Computation Module + Auxiliary Hardware Module.

A core executes one *task* (Algorithm 4) at a time: ``K`` partition-pair
multiplications accumulated into one output partition ``Z_ij`` held in the
Result Buffer, followed by write-back to DDR.  For every pair the runtime
has already chosen a primitive (Algorithm 7); the core

1. loads the operands (charging DDR cycles in their off-chip format),
2. runs the Auxiliary Hardware Module as needed — D2S/S2D when the stored
   format differs from what the mode requires (Table III), the layout
   transformation unit when the mode needs a column-major operand,
3. executes the mode (GEMM / SpDMM / SPMM) on the ALU array,
4. accumulates into the Result Buffer (partials from "transposed" pairs
   land column-major and are merged by the layout merger on write-back),
5. streams ``Z`` back to DDR through the Sparsity Profiler, dense or, when
   the profiled count makes the task shorter, through D2S as COO
   (:func:`writeback_stream`).

With double buffering (§V-B3) the memory/transform streams overlap
compute and the AHM passes run beside the transfers they convert, so a
task takes ``max(compute, memory, transform)``
(:func:`repro.hw.report.stage_cycles`), the cost the Analyzer minimises
per pair (:func:`repro.runtime.perf_model.candidate_cycles`), its
transform term from the body this module bills from
(:func:`candidate_transform_cycles`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.convert import DenseToSparseModule, SparseToDenseModule
from repro.formats.csr import MatrixLike, matmul
from repro.formats.dense import DTYPE
from repro.formats.density import SparsityProfiler
from repro.formats.layout import LayoutMerger, LayoutTransformationUnit
from repro.hw.buffers import BufferOverflowError
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.memory import ExternalMemory
from repro.hw.report import (
    GEMM_CODE,
    SKIP_CODE,
    SPDMM_CODE,
    SPMM_CODE,
    CycleReport,
    PairExecution,
    Primitive,
)
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.spmm_unit import spmm_compute_cycles


@dataclass
class OperandSpec:
    """One partition as the runtime hands it to a core.

    ``data`` is the functional content (CSR or ndarray); the remaining
    fields describe the off-chip storage so the core can charge the right
    DDR traffic and format conversions.
    """

    data: MatrixLike
    nbytes: int
    nnz: int
    stored_sparse: bool
    shape: tuple[int, int]

    @property
    def num_elements(self) -> int:
        return self.shape[0] * self.shape[1]


@dataclass
class PairDecision:
    """The Analyzer's verdict for one (Xit, Ytj) pair (Algorithm 7)."""

    primitive: Primitive
    #: when True the sparser *right* operand is placed in BufferU and the
    #: product is executed in the transposed orientation (SpDMM only)
    transposed: bool = False


@dataclass
class TaskResult:
    """Output of one task execution on a core."""

    z: np.ndarray
    report: CycleReport
    latency: float
    primitive_counts: Counter
    output_nnz: int
    #: whether ``z`` left the core as COO (see :func:`writeback_stream`)
    coo_writeback: bool


class ComputationCore:
    """Functional + cycle-level model of one Computation Core."""

    def __init__(
        self,
        config: AcceleratorConfig,
        memory: ExternalMemory,
        core_id: int = 0,
    ) -> None:
        self.config = config
        self.memory = memory
        self.core_id = core_id
        width = config.psys
        self.ltu = LayoutTransformationUnit(width)
        self.merger = LayoutMerger(width)
        self.d2s = DenseToSparseModule(width)
        self.s2d = SparseToDenseModule(width)
        self.profiler = SparsityProfiler(width)
        self._last_primitive: Optional[Primitive] = None
        #: how many cores are concurrently streaming from DDR (set by the
        #: scheduler per kernel; bounds this core's bandwidth share)
        self.active_cores: Optional[int] = None

    # -- capacity ----------------------------------------------------------
    def check_capacity(self, op: OperandSpec, *, as_coo: bool) -> None:
        """Verify the operand fits the buffer in its *on-chip* format:
        COO (3 words/nonzero) in BufferU, dense elsewhere."""
        words = 3 * op.nnz if as_coo else op.num_elements
        held = self.config.buffers.words_per_buffer
        if words > held:
            raise BufferOverflowError(
                f"core {self.core_id}: operand needs {words} words, "
                f"buffers hold {held}"
            )

    def coo_fits(self, nnz: int) -> bool:
        """Whether a COO operand with ``nnz`` nonzeros fits BufferU."""
        return 3 * nnz <= self.config.buffers.words_per_buffer

    # -- pair execution -------------------------------------------------------
    def execute_pair(
        self, x: OperandSpec, y: OperandSpec, decision: PairDecision
    ) -> tuple[Optional[np.ndarray], PairExecution]:
        """Multiply one partition pair according to the Analyzer's decision.

        Returns ``(partial Z or None when skipped, PairExecution)``.
        """
        prim = decision.primitive
        report = CycleReport()
        if prim is Primitive.SKIP:
            # Algorithm 7 line 6-7: empty operand, no load, no compute.
            return None, PairExecution(prim, report)

        # Capacity: dense partitions fit by construction (g(So)).  The
        # SpDMM sparse operand *streams* through BufferU in batches
        # (Algorithm 5 consumes nonzeros in order), so only SPMM's right
        # operand — randomly accessed as Y[i] during the row-wise product
        # — must be fully resident in COO form.
        if prim is Primitive.GEMM:
            self.check_capacity(x, as_coo=False)
            self.check_capacity(y, as_coo=False)
        elif prim is Primitive.SPDMM:
            dense_side = x if decision.transposed else y
            self.check_capacity(dense_side, as_coo=False)
        else:
            self.check_capacity(y, as_coo=True)

        # -- operand loads (off-chip format bytes) --
        report.memory += self.memory.read_cycles(
            x.nbytes + y.nbytes, active_cores=self.active_cores
        )
        report.bytes_read += x.nbytes + y.nbytes

        # The three modes compute the *same* product Z = X @ Y — they
        # differ only in which zeros they skip, i.e. in cycles and MACs
        # (paper §III-A).  The simulator therefore always computes the
        # functional result through the cheapest sparse-aware host path
        # and charges cycles from the mode's exact count; the mode-level
        # unit modules (run_gemm/run_spdmm/run_spmm) remain the reference
        # implementations the tests validate this equivalence against.
        m, n = x.shape
        d = y.shape[1]
        if prim is Primitive.GEMM:
            # Table III: X dense row-major (BufferO), Y dense col-major
            # (BufferP).  DDR data is row-major, so Y takes an LTU pass;
            # operands stored sparse off-chip take an S2D pass.
            if x.stored_sparse:
                report.transform += self.s2d.cycles_for(x.num_elements)
            if y.stored_sparse:
                report.transform += self.s2d.cycles_for(y.num_elements)
            report.transform += self.ltu.cycles_for(y.num_elements)
            comp = CycleReport(
                compute=gemm_compute_cycles(m, n, d, self.config),
                macs=m * n * d,
            )
        elif prim is Primitive.SPDMM:
            sparse_op, dense_op = (y, x) if decision.transposed else (x, y)
            # stored-format conversions for what the mode requires
            if not sparse_op.stored_sparse:
                report.transform += self.d2s.cycles_for(sparse_op.num_elements)
            if dense_op.stored_sparse:
                report.transform += self.s2d.cycles_for(dense_op.num_elements)
            # columns of the dense operand as the mode consumes it: the
            # transposed orientation runs nnz(Y) nonzeros against m rows
            dense_cols = m if decision.transposed else d
            if decision.transposed:
                report.transform += self.ltu.cycles_for(dense_op.num_elements)
            comp = CycleReport(
                compute=spdmm_compute_cycles(
                    sparse_op.nnz, dense_cols, self.config
                ),
                macs=sparse_op.nnz * dense_cols,
            )
        elif prim is Primitive.SPMM:
            if not x.stored_sparse:
                report.transform += self.d2s.cycles_for(x.num_elements)
            if not y.stored_sparse:
                report.transform += self.d2s.cycles_for(y.num_elements)
            cycles, macs = spmm_compute_cycles(x.data, y.data, self.config)
            comp = CycleReport(compute=cycles, macs=macs)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown primitive {prim}")

        z = matmul(x.data, y.data)
        report.merge(comp)
        if self._last_primitive is not None and self._last_primitive is not prim:
            report.mode_switches += 1
        self._last_primitive = prim
        return z, PairExecution(prim, report, decision.transposed)

    # -- task execution -----------------------------------------------------------
    def execute_task(
        self,
        pairs: Sequence[tuple[OperandSpec, OperandSpec, PairDecision]],
        out_shape: tuple[int, int],
        *,
        accumulate_init: Optional[np.ndarray] = None,
        activation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> TaskResult:
        """Run Algorithm 4: accumulate ``K`` pair products into ``Z_ij``."""
        z = (
            np.array(accumulate_init, dtype=DTYPE, copy=True)
            if accumulate_init is not None
            else np.zeros(out_shape, dtype=DTYPE)
        )
        if z.shape != tuple(out_shape):
            raise ValueError(
                f"accumulate_init shape {z.shape} != output shape {out_shape}"
            )
        report = CycleReport()
        counts: Counter = Counter()
        row_part = z  # row-major accumulator
        col_part: Optional[np.ndarray] = None  # column-major partials
        for x, y, decision in pairs:
            partial, execution = self.execute_pair(x, y, decision)
            counts[execution.primitive] += 1
            report.merge(execution.report)
            if partial is None:
                continue
            if execution.transposed:
                if col_part is None:
                    col_part = np.zeros(out_shape, dtype=DTYPE)
                col_part += partial
            else:
                row_part += partial
        if col_part is not None:
            # the layout merger adds the two accumulators as Z streams out
            z = row_part + col_part
            report.transform += self.merger.cycles_for(z.size)
        else:
            z = row_part
        if activation is not None:
            z = np.asarray(activation(z), dtype=DTYPE)

        # write-back through the Sparsity Profiler (overlapped stream), as COO
        # after an on-the-fly D2S pass when that leaves the task shorter than dense
        out_nnz = int(np.count_nonzero(z))
        report.profile += self.profiler.cycles_for(z.size)
        wb = writeback_stream(self, z.size, out_nnz, report.memory, report.transform)
        coo, d2s, out_bytes = (int(v) for v in wb)
        report.transform += d2s
        report.memory += self.memory.write_cycles(
            out_bytes, active_cores=self.active_cores
        )
        report.bytes_written += out_bytes

        latency = report.latency(
            double_buffering=self.config.buffers.double_buffering,
            mode_switch_cycles=self.config.mode_switch_cycles,
        )
        return TaskResult(
            z=z,
            report=report,
            latency=latency,
            primitive_counts=counts,
            output_nnz=out_nnz,
            coo_writeback=bool(coo),
        )

    def reset(self) -> None:
        self._last_primitive = None


def candidate_transform_cycles(
    psys: int,
    elems_x: np.ndarray,
    elems_y: np.ndarray,
    x_stored_sparse: bool,
    y_stored_sparse: bool,
) -> np.ndarray:
    """AHM cycles Table III requires of each candidate mapping of ``K``
    pairs, given the operands' off-chip formats: a ``(4, K)`` int64 array
    in :data:`repro.hw.report.CANDIDATES` order, a function of dims and
    stored formats only.  The Analyzer's cost weighs all four rows
    (:func:`repro.runtime.perf_model.candidate_cycles`) and
    :func:`batch_pair_cycles` bills the chosen one: the two cannot drift."""
    s2d, d2s = SparseToDenseModule(psys), DenseToSparseModule(psys)
    ltu = LayoutTransformationUnit(psys)
    s2d_x = s2d.cycles_for(elems_x) if x_stored_sparse else 0
    s2d_y = s2d.cycles_for(elems_y) if y_stored_sparse else 0
    d2s_x = 0 if x_stored_sparse else d2s.cycles_for(elems_x)
    d2s_y = 0 if y_stored_sparse else d2s.cycles_for(elems_y)
    rows = np.empty((4, len(elems_x)), dtype=np.int64)
    # X dense row-major, Y dense column-major (an LTU pass)
    rows[0] = s2d_x + s2d_y + ltu.cycles_for(elems_y)
    # X sparse in BufferU, Y dense
    rows[1] = d2s_x + s2d_y
    # Y sparse in BufferU, X dense and column-major
    rows[2] = d2s_y + s2d_x + ltu.cycles_for(elems_x)
    # both sparse
    rows[3] = d2s_x + d2s_y
    return rows


def batch_pair_cycles(
    core: "ComputationCore",
    codes: np.ndarray,
    transposed: np.ndarray,
    m: np.ndarray,
    n: np.ndarray,
    d: np.ndarray,
    x_nnz: np.ndarray,
    y_nnz: np.ndarray,
    x_stored_sparse: bool,
    y_stored_sparse: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :meth:`ComputationCore.execute_pair` cycle accounting.

    Returns per-pair ``(compute, transform, macs)`` int64 arrays over all
    pairs at once, mirroring the scalar path's formulas exactly.  SPMM
    pairs get zeros for compute/macs — their counts are data-dependent
    (per-SCP workloads) and are filled in during the functional pass.
    SKIP pairs contribute zeros everywhere.
    """
    codes = np.asarray(codes)
    transposed = np.asarray(transposed, dtype=bool)
    gemm = codes == GEMM_CODE
    spdmm = codes == SPDMM_CODE
    sparse_nnz = np.where(transposed, y_nnz, x_nnz)
    dense_cols = np.where(transposed, m, d)
    compute = np.where(
        gemm, gemm_compute_cycles(m, n, d, core.config),
        np.where(spdmm, spdmm_compute_cycles(sparse_nnz, dense_cols, core.config), 0),
    )
    macs = np.where(gemm, m * n * d, np.where(spdmm, sparse_nnz * dense_cols, 0))
    # the candidate each live pair took: SpDMM's two orientations sit
    # between GEMM and SPMM
    live = codes != SKIP_CODE
    row = np.where(live, codes + (transposed | (codes == SPMM_CODE)), 0)
    candidates = candidate_transform_cycles(
        core.config.psys, m * n, n * d, x_stored_sparse, y_stored_sparse
    )
    transform = np.where(live, np.take_along_axis(candidates, row[None], axis=0)[0], 0)
    return compute, transform, macs


def writeback_stream(core: "ComputationCore", sizes, out_nnz, memory, transform):
    """How output partitions of ``sizes`` elements holding ``out_nnz``
    nonzeros (the Sparsity Profiler's count) leave ``core``, from tasks
    whose streams so far took ``memory`` DDR and ``transform`` AHM cycles:
    ``(coo, d2s, write_bytes)``, elementwise over scalars or arrays.

    A partition leaves as COO, 12 B a nonzero after a D2S pass, when that
    makes its task's :func:`repro.hw.report.stage_cycles` shorter than the
    dense 4 B an element over the core's DDR share ``b`` (bytes a cycle
    under the kernel's concurrency), compared with the streams both sides
    share cancelled so no rounding of them decides a tie; ties go dense.
    """
    bpc = core.memory.per_core_bytes_per_cycle(core.active_cores)
    d2s = core.d2s.cycles_for(sizes)
    coo = 4 * sizes - 12 * out_nnz > d2s * bpc  # serialised: the saved bytes outlast D2S
    if core.config.buffers.double_buffering:
        # max(memory + 12 nnz/b, transform + D2S) < max(memory + 4 size/b, transform)
        coo = (transform + d2s < memory + 4 * sizes / bpc) & (
            (12 * out_nnz < 4 * sizes) | (memory + 12 * out_nnz / bpc < transform))
    return coo, np.where(coo, d2s, 0), np.where(coo, 12 * out_nnz, 4 * sizes)


def batch_task_writeback(
    core: "ComputationCore",
    sizes: np.ndarray,
    out_nnz: np.ndarray,
    merged: np.ndarray,
    memory: np.ndarray,
    transform: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched write-back accounting of :meth:`ComputationCore.execute_task`.

    ``sizes`` are output-partition element counts, ``out_nnz`` the exact
    nonzero counts, ``merged`` flags tasks whose partials needed the
    layout merger, ``memory`` / ``transform`` the tasks' summed pair
    streams.  Returns per-task ``(profile, transform, write_bytes, coo)``:
    the write-back's own int64 cycles and bytes and the COO mask.
    """
    merge = np.where(merged, core.merger.cycles_for(sizes), 0)
    coo, d2s, write_bytes = writeback_stream(core, sizes, out_nnz, memory, transform + merge)
    return core.profiler.cycles_for(sizes), d2s + merge, write_bytes, coo
