"""The per-task task loop and the per-pair core path, kept as the
bit-exactness oracle of :func:`repro.runtime.vectorized.execute_kernel_tasks`.

The runtime bills a kernel as batches of partition pairs
(``hw.core.batch_pair_cycles`` / ``batch_task_writeback``).  This module
is the loop those batches replaced, one Python iteration per task and one
:class:`OperandSpec` pair per inner block, written as free functions over
a :class:`~repro.hw.core.ComputationCore`: :func:`execute_pair` (load,
AHM passes, mode, product), :func:`execute_task` (Algorithm 4: ``K``
partials into ``Z_ij``, then the write-back) and
:func:`execute_kernel_tasks_reference` (the kernel on one device).
Tests and ``bench_executor_vectorised`` substitute
:func:`execute_kernel_lanes_reference`, the last run lane by lane, for
``repro.runtime.executor.execute_kernel_tasks`` and assert identical
outputs, cycle totals, primitive counts, wave counts and timeline events.
:func:`scheme_tasks` and :func:`batch_of` are the task list of Algorithms
2/3 built one object per task, the oracle of ``ExecutionScheme.task_batch``;
:func:`subset_of` filters a batch, the lane split the replay makes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.formats.convert import SparseToDenseModule
from repro.formats.csr import MatrixLike, matmul
from repro.formats.dense import DTYPE
from repro.formats.layout import LayoutTransformationUnit
from repro.formats.partition import PartitionedMatrix
from repro.hw.accelerator import Accelerator
from repro.hw.buffers import BufferOverflowError
from repro.hw.core import ComputationCore, writeback_stream
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.report import CODE_ORDER, SKIP_CODE, CycleReport, Primitive, stage_cycles
from repro.hw.spdmm_unit import spdmm_compute_cycles
from repro.hw.spmm_unit import spmm_compute_cycles
from repro.ir.kernel import KernelIR
from repro.ir.scheme import TaskBatch
from repro.runtime.perf_model import PairBatch
from repro.runtime.scheduler import CoreTimeline
from repro.runtime.stats import TaskLoopStats
from repro.runtime.strategies import MappingStrategy
from repro.runtime.vectorized import finalise_task_loop

__all__ = [
    "OperandSpec",
    "PairDecision",
    "PairExecution",
    "Task",
    "TaskResult",
    "batch_of",
    "check_capacity",
    "coo_fits",
    "copy_report",
    "execute_kernel_lanes_reference",
    "execute_kernel_tasks_reference",
    "execute_pair",
    "execute_task",
    "merge_reports",
    "report_latency",
    "scheme_tasks",
    "subset_of",
]


def report_latency(
    report: CycleReport, *, double_buffering: bool = True, mode_switch_cycles: int = 1
) -> float:
    """Effective cycles of ``report`` on the core's critical path."""
    stage = stage_cycles(report.compute, report.memory, report.transform,
                         profile=report.profile, double_buffering=double_buffering)
    return float(stage) + report.mode_switches * mode_switch_cycles


def merge_reports(report: CycleReport, other: CycleReport) -> CycleReport:
    """Accumulate ``other`` into ``report`` (in place) and return it."""
    for f in fields(CycleReport):
        setattr(report, f.name, getattr(report, f.name) + getattr(other, f.name))
    return report


def copy_report(report: CycleReport) -> CycleReport:
    return replace(report)


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
class PairExecution:
    """Result of multiplying one (Xit, Ytj) partition pair."""

    primitive: Primitive
    report: CycleReport
    #: True when the product was computed in the transposed orientation,
    #: landing the partial column-major in the Result Buffer
    transposed: bool = False


@dataclass
class TaskResult:
    """Output of one task execution on a core."""

    z: np.ndarray
    report: CycleReport
    latency: float
    primitive_counts: Counter
    output_nnz: int
    #: whether ``z`` left the core as COO (see ``writeback_stream``)
    coo_writeback: bool


def check_capacity(core: ComputationCore, op: OperandSpec, *, as_coo: bool) -> None:
    """Verify the operand fits the buffer in its *on-chip* format:
    COO (3 words/nonzero) in BufferU, dense elsewhere."""
    words = 3 * op.nnz if as_coo else op.num_elements
    held = core.config.buffers.words_per_buffer
    if words > held:
        raise BufferOverflowError(
            f"core {core.core_id}: operand needs {words} words, "
            f"buffers hold {held}"
        )


def coo_fits(core: ComputationCore, nnz: int) -> bool:
    """Whether a COO operand with ``nnz`` nonzeros fits BufferU."""
    return 3 * nnz <= core.config.buffers.words_per_buffer


def execute_pair(
    core: ComputationCore, x: OperandSpec, y: OperandSpec, decision: PairDecision
) -> tuple[Optional[np.ndarray], PairExecution]:
    """Multiply one partition pair according to the Analyzer's decision.

    Returns ``(partial Z or None when skipped, PairExecution)``.
    """
    prim = decision.primitive
    report = CycleReport()
    if prim is Primitive.SKIP:
        # Algorithm 7 line 6-7: empty operand, no load, no compute.
        return None, PairExecution(prim, report)

    # Capacity: dense partitions fit by construction (g(So)).  The SpDMM
    # sparse operand *streams* through BufferU in batches (Algorithm 5
    # consumes nonzeros in order), so only SPMM's right operand — randomly
    # accessed as Y[i] during the row-wise product — must be fully
    # resident in COO form.
    if prim is Primitive.GEMM:
        check_capacity(core, x, as_coo=False)
        check_capacity(core, y, as_coo=False)
    elif prim is Primitive.SPDMM:
        check_capacity(core, x if decision.transposed else y, as_coo=False)
    else:
        check_capacity(core, y, as_coo=True)

    # -- operand loads (off-chip format bytes) --
    report.memory += core.memory.read_cycles(
        x.nbytes + y.nbytes, active_cores=core.active_cores
    )
    report.bytes_read += x.nbytes + y.nbytes

    # The three modes compute the *same* product Z = X @ Y and differ only
    # in which zeros they skip, i.e. in cycles and MACs (paper §III-A).
    psys = core.config.psys
    s2d, ltu = SparseToDenseModule(psys), LayoutTransformationUnit(psys)
    m, n = x.shape
    d = y.shape[1]
    if prim is Primitive.GEMM:
        # Table III: X dense row-major (BufferO), Y dense col-major
        # (BufferP).  DDR data is row-major, so Y takes an LTU pass;
        # operands stored sparse off-chip take an S2D pass.
        if x.stored_sparse:
            report.transform += s2d.cycles_for(x.num_elements)
        if y.stored_sparse:
            report.transform += s2d.cycles_for(y.num_elements)
        report.transform += ltu.cycles_for(y.num_elements)
        comp = CycleReport(
            compute=gemm_compute_cycles(m, n, d, core.config), macs=m * n * d
        )
    elif prim is Primitive.SPDMM:
        sparse_op, dense_op = (y, x) if decision.transposed else (x, y)
        if not sparse_op.stored_sparse:
            report.transform += core.d2s.cycles_for(sparse_op.num_elements)
        if dense_op.stored_sparse:
            report.transform += s2d.cycles_for(dense_op.num_elements)
        # columns of the dense operand as the mode consumes it: the
        # transposed orientation runs nnz(Y) nonzeros against m rows
        dense_cols = m if decision.transposed else d
        if decision.transposed:
            report.transform += ltu.cycles_for(dense_op.num_elements)
        comp = CycleReport(
            compute=spdmm_compute_cycles(sparse_op.nnz, dense_cols, core.config),
            macs=sparse_op.nnz * dense_cols,
        )
    else:
        if not x.stored_sparse:
            report.transform += core.d2s.cycles_for(x.num_elements)
        if not y.stored_sparse:
            report.transform += core.d2s.cycles_for(y.num_elements)
        cycles, macs = spmm_compute_cycles(x.data, y.data, core.config)
        comp = CycleReport(compute=cycles, macs=macs)

    z = matmul(x.data, y.data)
    merge_reports(report, comp)
    if core._last_primitive is not None and core._last_primitive is not prim:
        report.mode_switches += 1
    core._last_primitive = prim
    return z, PairExecution(prim, report, decision.transposed)


def execute_task(
    core: ComputationCore,
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
        partial, execution = execute_pair(core, x, y, decision)
        counts[execution.primitive] += 1
        merge_reports(report, execution.report)
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
        report.transform += core.merger.cycles_for(z.size)
    else:
        z = row_part
    if activation is not None:
        z = np.asarray(activation(z), dtype=DTYPE)

    # write-back through the Sparsity Profiler (overlapped stream), as COO
    # after an on-the-fly D2S pass when that leaves the task shorter
    out_nnz = int(np.count_nonzero(z))
    report.profile += core.profiler.cycles_for(z.size)
    bpc = core.memory.per_core_bytes_per_cycle(core.active_cores)
    wb = writeback_stream(core, z.size, out_nnz, report.memory, report.transform, bpc)
    coo, d2s, out_bytes = (int(v) for v in wb)
    report.transform += d2s
    report.memory += core.memory.write_cycles(
        out_bytes, active_cores=core.active_cores
    )
    report.bytes_written += out_bytes

    latency = report_latency(
        report,
        double_buffering=core.config.buffers.double_buffering,
        mode_switch_cycles=core.config.mode_switch_cycles,
    )
    return TaskResult(
        z=z,
        report=report,
        latency=latency,
        primitive_counts=counts,
        output_nnz=out_nnz,
        coo_writeback=bool(coo),
    )


@dataclass(frozen=True)
class Task:
    """One computation task (Algorithm 4): output partition ``Z[out_row,
    out_col] = sum_t X[out_row, t] @ Y[t, out_col]`` over the inner block
    coordinates of ``pairs``, ``(x block column, y block row)`` each."""

    kernel_id: str
    out_row: int
    out_col: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


def scheme_tasks(scheme) -> list[Task]:
    """Algorithms 2/3's task list, one object per task: what
    ``ExecutionScheme.task_batch``'s closed form is held to."""
    pairs = tuple((j, j) for j in range(scheme.inner_blocks))
    return [Task(scheme.kernel_id, i, k, pairs)
            for i in range(scheme.out_grid[0]) for k in range(scheme.out_grid[1])]


def batch_of(tasks: Sequence[Task]) -> TaskBatch:
    """The task loop's structure of arrays over any task list (uniform or
    ragged pairs), built task by task."""
    counts = [len(tk.pairs) for tk in tasks]
    return TaskBatch(
        rows=np.array([tk.out_row for tk in tasks], np.int64),
        cols=np.array([tk.out_col for tk in tasks], np.int64),
        js=np.array([p[0] for tk in tasks for p in tk.pairs], np.int64),
        starts=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
    )


def subset_of(tasks: TaskBatch, mask) -> TaskBatch:
    """``tasks`` restricted to those where ``mask`` is True, in order."""
    mask = np.asarray(mask, dtype=bool)
    starts = np.zeros(mask.sum() + 1, dtype=np.int64)
    np.cumsum(tasks.counts[mask], out=starts[1:])
    return TaskBatch(rows=tasks.rows[mask], cols=tasks.cols[mask],
                     js=tasks.js[np.repeat(mask, tasks.counts)], starts=starts)


def execute_kernel_tasks_reference(
    kernel: KernelIR,
    xv: PartitionedMatrix,
    yv: PartitionedMatrix,
    x_stored_sparse: bool,
    y_stored_sparse: bool,
    accelerator: Accelerator,
    strategy: MappingStrategy,
    timeline: CoreTimeline,
    tasks: TaskBatch,
    assembly,
    acc_view: Optional[PartitionedMatrix],
    act,
) -> TaskLoopStats:
    """The per-task reference loop: one Python iteration per task, on one
    device.

    ``tasks`` may be any slice of the kernel's task grid; writes land in
    the shared ``assembly``.  Waves are counted after the loop from the
    timeline events it recorded, as the task loop counts them.
    """
    acc = accelerator
    soft = acc.soft_processor
    stats = TaskLoopStats()
    events_before = len(timeline.events)

    x_nnzg = xv.nnz_grid
    y_nnzg = yv.nnz_grid
    x_rs = xv.row_block_sizes
    x_cs = xv.col_block_sizes
    y_cs = yv.col_block_sizes

    # one Analyzer pass over the kernel: what a pair costs depends on its
    # task's other pairs and on how many tasks stream from DDR at once
    batch = PairBatch.of_tasks(
        xv, yv, tasks, x_stored_sparse, y_stored_sparse,
        seeded=acc_view is not None,
    )
    all_codes, all_transp, modelled = strategy.decide_batch(kernel, batch)
    # a lane with no task weighs nothing
    stats.modelled = modelled[0] if modelled and tasks.num_tasks else None
    stats.num_tasks = tasks.num_tasks
    starts = tasks.starts

    # only as many cores stream from DDR as there are concurrently
    # *dispatched* tasks — all-zero output partitions never reach a core
    if acc_view is not None:
        dispatched = tasks.num_tasks
    else:
        dispatched = sum(
            bool((all_codes[starts[t] : starts[t + 1]] != SKIP_CODE).any())
            for t in range(tasks.num_tasks)
        )
    concurrency = min(acc.num_cores, dispatched)
    for core in acc.cores:
        core.active_cores = concurrency

    for t_idx in range(tasks.num_tasks):
        i, k = int(tasks.rows[t_idx]), int(tasks.cols[t_idx])
        m = int(x_rs[i])
        d = int(y_cs[k])
        span = slice(starts[t_idx], starts[t_idx + 1])
        js, codes, transp = tasks.js[span], all_codes[span], all_transp[span]
        stats.num_pairs += len(js)
        skipped = int((codes == SKIP_CODE).sum())
        if skipped:
            stats.counts[Primitive.SKIP] += skipped
        pairs_work = []
        for idx in np.flatnonzero(codes != SKIP_CODE):
            j = int(js[idx])
            decision = PairDecision(
                CODE_ORDER[codes[idx]], transposed=bool(transp[idx])
            )
            n = int(x_cs[j])
            x_nnz = int(x_nnzg[i, j])
            y_nnz = int(y_nnzg[j, k])
            # SPMM randomly accesses its right operand, so Y must be
            # resident in COO form; when it does not fit, the pair
            # degrades to SpDMM (whose sparse operand streams)
            if decision.primitive is Primitive.SPMM and not coo_fits(
                acc.cores[0], y_nnz
            ):
                decision = PairDecision(Primitive.SPDMM)
            x_spec = OperandSpec(
                data=xv.block(i, j),
                nbytes=12 * x_nnz if x_stored_sparse else 4 * m * n,
                nnz=x_nnz,
                stored_sparse=x_stored_sparse,
                shape=(m, n),
            )
            y_spec = OperandSpec(
                data=yv.block(j, k),
                nbytes=12 * y_nnz if y_stored_sparse else 4 * n * d,
                nnz=y_nnz,
                stored_sparse=y_stored_sparse,
                shape=(n, d),
            )
            pairs_work.append((x_spec, y_spec, decision))

        acc_init = acc_view.dense_block(i, k) if acc_view is not None else None
        if not pairs_work and acc_init is None:
            # entire output partition is zero: the runtime skips the
            # task outright (no dispatch, no write-back)
            continue

        core_id = timeline.peek_next_core()
        result = execute_task(
            acc.cores[core_id], pairs_work, (m, d),
            accumulate_init=acc_init, activation=act,
        )
        dispatch_s = soft.dispatch_seconds(1) + soft.sparsity_receive_seconds(1)
        duration = result.latency + soft.seconds_to_accel_cycles(dispatch_s)
        timeline.assign_to(
            core_id, duration, kernel_id=kernel.kernel_id, task_index=t_idx
        )

        merge_reports(stats.report, result.report)
        stats.counts.update(result.primitive_counts)
        stats.coo_writebacks += result.coo_writeback
        assembly.write(i, k, result.z)

    return finalise_task_loop(stats, timeline, events_before)


def execute_kernel_lanes_reference(
    kernel, xv, yv, x_stored_sparse, y_stored_sparse, strategy, tasks, lanes,
    assembly, acc_view, act,
) -> list[TaskLoopStats]:
    """The task loop's signature, lane by lane through
    :func:`execute_kernel_tasks_reference`: each lane's block rows of
    ``tasks`` alone on its own device, in lane order."""
    return [
        execute_kernel_tasks_reference(
            kernel, xv, yv, x_stored_sparse, y_stored_sparse, acc, strategy,
            timeline, subset_of(tasks, (tasks.rows >= lo) & (tasks.rows < hi)),
            assembly, acc_view, act,
        )
        for acc, timeline, (lo, hi) in lanes
    ]
