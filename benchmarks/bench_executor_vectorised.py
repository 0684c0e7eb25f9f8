"""Whole-layer task execution vs the per-task reference loop.

The PR this bench gates restructured ``execute_kernel_tasks`` from one
Python iteration per task (OperandSpec construction, per-pair cycle
models, per-task scheduling) into a single structure-of-arrays pass per
kernel (:mod:`repro.runtime.vectorized`): one batched Analyzer decide
over every (task, pair), batched operand byte/nnz arithmetic, grouped
cycle reductions and one native product per operand pair.  The per-task
loop survives in the test suite as ``execute_kernel_tasks_reference``
(``tests/task_oracle.py``), the oracle this bench imports.  (The
CSR-native stripe split that rewrite also brought is no longer part of
the ratio: ``PartitionedMatrix.block`` reads the same block-major layout
as ``csr_blocks_for_row``, so the reference loop has it too.)

The bench replays each kernel of a compiled inference — identical views,
task lists and accumulate state — through both loops on fresh
accelerators, asserts bit-exactness (outputs, CycleReport totals,
primitive counts, timeline events) and times the loops alone, excluding
the compile/view costs both paths share.  The committed baseline is the
repo's record that the rewrite landed and CI's guard that it stays in.
"""

import sys
import time
from pathlib import Path

import numpy as np

from _common import Metric, emit, format_table, get_program, register_bench
from repro.hw import Accelerator
from repro.runtime import CoreTimeline, execute_kernel_tasks
from repro.runtime.executor import KernelAssembly, run_strategy
from repro.runtime.strategies import make_strategy

_tests = str(Path(__file__).resolve().parent.parent / "tests")
if _tests not in sys.path:
    sys.path.append(_tests)
from task_oracle import execute_kernel_tasks_reference  # noqa: E402

REPEATS = 3

#: (dataset, model) cells of the two specs — ``executor_vectorised``
#: stays laptop-fast; ``executor_vectorised_pu_fl_re_ne`` adds the
#: largest profile instances (Flickr, the Reddit generator and the
#: wide-feature synthetic).  PU is in both: it is the task-count-bound
#: cell where the loop rewrite dominates (the headline speedup); the
#: dense cells are BLAS-bound, so Amdahl caps their loop-replay gain
#: near 1.2-1.8x even though the loop itself shrank ~10x.
SMOKE_CELLS = (("PU", "GCN"),)
FULL_CELLS = (("PU", "GCN"), ("FL", "GCN"), ("RE", "GCN"), ("NE", "GCN"))
#: before/after ratio on the same machine: stable in magnitude, not in
#: digits — the band still catches the vectorisation regressing
TOLERANCES = {"speedup": 0.6, "speedup_min": 0.6}


def _capture_kernel_calls(program):
    """One normal run, recording every ``execute_kernel_tasks`` call.

    The captured views/tasks/accumulate state are exactly what both loop
    variants consume, so replays differ only in the loop under test.
    """
    import repro.runtime.executor as executor_mod

    calls = []
    original = executor_mod.execute_kernel_tasks

    def recorder(kernel, xv, yv, x_ss, y_ss, acc, strategy, timeline,
                 tasks, assembly, acc_view, act, **kw):
        calls.append((kernel, xv, yv, x_ss, y_ss, tasks, acc_view, act))
        return original(kernel, xv, yv, x_ss, y_ss, acc, strategy,
                        timeline, tasks, assembly, acc_view, act, **kw)

    executor_mod.execute_kernel_tasks = recorder
    try:
        acc = Accelerator(program.config)
        run_strategy(program, "Dynamic", acc)
    finally:
        executor_mod.execute_kernel_tasks = original
    return calls


def _replay(calls, config, loop_fn):
    """Run every captured kernel through ``loop_fn`` on a fresh device.

    Returns (seconds, per-kernel stats, timeline events, outputs) — the
    full observable state the bit-exactness assertion compares.
    """
    acc = Accelerator(config)
    strategy = make_strategy("Dynamic", acc.config)
    timeline = CoreTimeline(acc.num_cores)
    stats_list, outputs = [], []
    t0 = time.perf_counter()
    for kernel, xv, yv, x_ss, y_ss, tasks, acc_view, act in calls:
        assembly = KernelAssembly.for_kernel(xv, yv, kernel.exec_scheme)
        stats = loop_fn(
            kernel, xv, yv, x_ss, y_ss, acc, strategy, timeline,
            tasks, assembly, acc_view, act,
        )
        timeline.barrier()
        stats_list.append(stats)
        outputs.append(assembly.finalize()[0])
    elapsed = time.perf_counter() - t0
    events = [
        (e.core, e.start, e.end, e.kernel_id, e.task_index)
        for e in timeline.events
    ]
    return elapsed, stats_list, events, outputs


def _assert_bit_exact(ref, vec, label):
    _, ref_stats, ref_events, ref_outs = ref
    _, vec_stats, vec_events, vec_outs = vec
    assert ref_events == vec_events, f"{label}: timeline events differ"
    for sr, sv in zip(ref_stats, vec_stats):
        assert sr.report == sv.report, f"{label}: CycleReport differs"
        assert sr.counts == sv.counts, f"{label}: primitive counts differ"
        assert sr.waves == sv.waves, f"{label}: wave counts differ"
        assert sr.tasks_executed == sv.tasks_executed, label
    for zr, zv in zip(ref_outs, vec_outs):
        dr = zr.toarray() if hasattr(zr, "toarray") else zr
        dv = zv.toarray() if hasattr(zv, "toarray") else zv
        assert np.array_equal(dr, dv), f"{label}: outputs differ"


def _time_cell(ds, model):
    program = get_program(model, ds)
    calls = _capture_kernel_calls(program)
    ref = vec = None
    ref_s = vec_s = float("inf")
    # alternating, so a noisy spell on the box lands on both loops
    for _ in range(REPEATS):
        vec = _replay(calls, program.config, execute_kernel_tasks)
        vec_s = min(vec_s, vec[0])
        ref = _replay(calls, program.config, execute_kernel_tasks_reference)
        ref_s = min(ref_s, ref[0])
    _assert_bit_exact(ref, vec, f"{ds}/{model}")
    return ref_s, vec_s


def _check(cells):
    """Replay every cell through both loops, bit-exact; the speedups."""
    rows = []
    speedups = []
    for ds, model in cells:
        ref_s, vec_s = _time_cell(ds, model)
        speedup = ref_s / vec_s
        speedups.append(speedup)
        rows.append([
            f"{model}/{ds}",
            f"{ref_s * 1e3:.1f}",
            f"{vec_s * 1e3:.1f}",
            f"{speedup:.2f}x",
        ])
    emit("executor_vectorised", format_table(
        ["cell", "per-task loop (ms)", "vectorised (ms)", "speedup"],
        rows,
        title=(
            f"Task-loop execution, best of {REPEATS} "
            "(bit-exact asserted per cell)"
        ),
    ))
    worst = min(speedups)
    best = max(speedups)
    # floors, not targets.  Both loops read their sparse blocks off one
    # block-major layout (formats.partition), so the ratio is the loop
    # structure alone: while the reference sliced every pair's block
    # through SciPy, three quarters of its time was that slicing and the
    # cells read 9-11x (PU) down to 2.1x (FL).  The task-bound cell must
    # stay clearly vectorised (measured 2.3-3.9x) and no cell may fall
    # back to parity with the oracle: the BLAS-bound cells measure
    # 1.17-1.8x (both loops spend most of their time in the same BLAS
    # calls), so their floor is parity itself, and it is what guards
    # them: the baseline band, 0.6 of a ratio near 1.3, is looser.
    assert best > 1.8, f"best cell only {best:.2f}x faster"
    assert worst > 1.0, f"vectorised loop only {worst:.2f}x the oracle's speed"
    return {
        "speedup": Metric("speedup", best, "x", "higher"),
        "speedup_min": Metric("speedup_min", worst, "x", "higher"),
    }


@register_bench("executor_vectorised", tier="smoke",
                tags=("hotpath", "executor"), tolerances=TOLERANCES)
def _smoke():
    """Whole-layer SoA task execution vs per-task loop, bit-exact: GCN/PU."""
    return _check(SMOKE_CELLS)


@register_bench("executor_vectorised_pu_fl_re_ne", tier="full",
                tags=("hotpath", "executor"), tolerances=TOLERANCES)
def _full():
    """Whole-layer SoA task execution vs per-task loop, bit-exact: GCN on
    PU, FL, RE and NE."""
    return _check(FULL_CELLS)
