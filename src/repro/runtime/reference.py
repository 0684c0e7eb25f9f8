"""The per-task reference task loop — the bit-exactness oracle.

Nothing in ``src/`` calls it: tests and ``bench_executor_vectorised``
substitute it for ``repro.runtime.executor.execute_kernel_tasks``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.formats.partition import PartitionedMatrix
from repro.hw.accelerator import Accelerator
from repro.hw.core import OperandSpec, PairDecision
from repro.hw.report import CODE_ORDER, SKIP_CODE, Primitive
from repro.ir.kernel import KernelIR
from repro.ir.scheme import TaskBatch
from repro.obs.tracer import NULL_TRACER
from repro.runtime.perf_model import PairBatch
from repro.runtime.scheduler import CoreTimeline
from repro.runtime.stats import TaskLoopStats
from repro.runtime.strategies import MappingStrategy
from repro.runtime.vectorized import finalise_task_loop


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
    *,
    tracer=NULL_TRACER,
    track: str = "dev0",
) -> TaskLoopStats:
    """The per-task reference loop: one Python iteration per task.

    Kept as the bit-exactness oracle for
    :func:`~repro.runtime.vectorized.execute_kernel_tasks` (the
    ``block_nnz_grid_reference`` pattern): tests and the
    ``bench_executor_vectorised`` BenchSpec assert the two produce
    identical outputs, cycle totals, primitive counts, wave counts and
    timeline events.  Same arguments as the task loop: ``tasks`` may be
    any slice of the kernel's task grid; writes land in the shared
    ``assembly``.

    ``tracer``/``track`` emit per-wave and per-task spans *after* the
    loop, from the timeline events it already records — the inner loop
    itself is untouched, so tracing cannot perturb bit-exactness and the
    disabled path costs one attribute check per call.
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
    all_codes, all_transp, stats.modelled = strategy.decide_batch(kernel, batch)
    starts = tasks.starts

    # only as many cores stream from DDR as there are concurrently
    # *dispatched* tasks — all-zero output partitions never reach a core,
    # so they must not inflate the bandwidth shares
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
            # On-chip capacity fallback: SPMM randomly accesses its
            # right operand during the row-wise product, so Y must be
            # resident in COO form (3 words/nonzero).  When it does
            # not fit BufferO, the runtime degrades the pair to SpDMM
            # (whose sparse operand streams; the dense operand fits
            # by g(So) construction).
            if decision.primitive is Primitive.SPMM and not acc.cores[
                0
            ].coo_fits(y_nnz):
                decision = PairDecision(Primitive.SPDMM)
            x_elems = m * n
            y_elems = n * d
            x_spec = OperandSpec(
                data=xv.block(i, j),
                nbytes=12 * x_nnz if x_stored_sparse else 4 * x_elems,
                nnz=x_nnz,
                stored_sparse=x_stored_sparse,
                shape=(m, n),
            )
            y_spec = OperandSpec(
                data=yv.block(j, k),
                nbytes=12 * y_nnz if y_stored_sparse else 4 * y_elems,
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
        core = acc.cores[core_id]
        result = core.execute_task(
            pairs_work, (m, d), accumulate_init=acc_init, activation=act
        )
        dispatch_s = soft.dispatch_seconds(1) + soft.sparsity_receive_seconds(1)
        duration = result.latency + soft.seconds_to_accel_cycles(dispatch_s)
        timeline.assign_to(
            core_id, duration, kernel_id=kernel.kernel_id, task_index=t_idx
        )

        stats.report.merge(result.report)
        stats.counts.update(result.primitive_counts)
        stats.coo_writebacks += result.coo_writeback
        assembly.write(i, k, result.z)

    return finalise_task_loop(
        stats, kernel, acc, timeline, events_before, tracer, track
    )
