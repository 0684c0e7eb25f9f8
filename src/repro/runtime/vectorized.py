"""The task loop: whole-layer structure-of-arrays execution.

The inner loop of the runtime (Analyzer decisions -> Scheduler core
assignment -> core execution -> output write-back), and its only
execution path.  The loop it replaced walked one Python iteration per
task and one operand pair per inner block — the dominant simulator cost
on large graphs — and survives in the test suite as the bit-exactness
oracle (``tests/task_oracle.py``).  :func:`execute_kernel_tasks` runs
the same semantics as four batched passes over the whole kernel and all
its lanes (devices), billed by :func:`repro.hw.core.batch_pair_cycles`
and :func:`repro.hw.core.batch_task_writeback`; a lane keeps only its
DDR share, its dispatch and its totals:

1. **Decide + account** — one ``strategy.decide_batch`` call over every
   (task, pair) of the kernel (one ``PairBatch``), followed by batched
   byte/nnz arithmetic, the SPMM->SpDMM capacity degrade (a fixed
   mapping's), skip masking, the dispatched-task concurrency count,
   per-pair compute/transform cycle arrays via the batched unit formulas
   in :mod:`repro.hw`, and each CSR x CSR pair's route
   (:func:`_entry_route`, from the census, never a model, dataset or
   strategy name).  One count over every live pair with a CSR X block
   that is SPMM-coded or goes entry by entry (each Y block's rows counted
   once per view, ``PartitionedMatrix.block_row_counts``, then
   :func:`repro.hw.spmm_unit.spmm_census` per X block row)
   then bills SPMM, sizes each
   entry-route product (structural MACs, at most ``d`` a row) and picks
   the tasks that hold their products as CSR: every live pair entry by
   entry, none transposed, no activation after, structural MACs below
   ``SPARSE_HOLDING`` of the partition.
2. **Functional** — computes, counts nothing: per executed task
   (original order, preserving the float32 accumulation order and
   assembly write order bit for bit), one native call per operand pair.
   A CSR X block (a slice of the view's block-major layout, which its
   first :meth:`PartitionedMatrix.csr_blocks_for_row` builds) against a
   CSR Y block goes entry by entry through ``csr_matmat``
   (:func:`_csr_csr_product`; never in a task seeded from
   ``accumulate_into``), or Y is expanded into one reusable scratch for
   ``csr_matvecs`` (:func:`_accumulate_csr_product`, which needs X
   finite: asked of the view once per block row, only here); a dense Y
   block goes to ``csr_matvecs`` as it is.  A holding task writes its
   products merged (:func:`_merge_csr_products`): no dense ``z`` is
   formed or rescanned.  In any other task a product's stored cells are
   added where they fall (:func:`_add_csr_csr_product`), the first dense
   row partial of a task that starts from zero lands straight in its
   output and later ones are formed apart and added (the ``z + P``
   grouping).  Everything else takes ``_matmul``, the definition: a
   dense X block, an X block row holding ``inf``/``NaN`` on the S2D
   route, and every pair when one of SciPy's three private product
   kernels is missing (a missing merge kernel only stops the holding).
   The assembly counts each output partition once (the write-back
   profiler's count, the next kernel's census) and holds it by that
   count: CSR below ``SPARSE_HOLDING``, dense otherwise.  An assembly a
   lineage table carries (``KernelAssembly.carry``) already holds the
   product: the pass computes nothing and takes each executed task's
   count from its ``nnz_grid``.
3. **Write-back accounting** — task latencies from per-task stream sums
   (sequential float reductions via ``np.add.at`` / ``np.add.accumulate``
   so kernel totals match the oracle's accumulation order exactly),
   batched profiler/merger cycles, and each output partition's
   dense-or-COO stream from its profiled count and its task's read
   streams (the core's rule, :func:`repro.hw.core.writeback_stream`).
4. **Dispatch**, lane by lane — the only sequential part: Algorithm 8's
   earliest-available core choice (FIFO in task order) and the per-core
   mode-switch state machine.

Bit-exactness of each lane against the oracle on that lane's tasks —
outputs, CycleReport totals, primitive counts, waves and the timeline
events — is asserted by ``tests/test_executor_vectorised.py`` and the
``bench_executor_vectorised`` BenchSpec.  A pair whose dense operand
would overflow its buffer (BufferO or BufferP) raises
:class:`~repro.hw.buffers.BufferOverflowError` before any state mutation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import matmul as _matmul, sorted_unique
from repro.formats.dense import DTYPE
from repro.hw.buffers import BufferOverflowError
from repro.hw.core import batch_pair_cycles, batch_task_writeback
from repro.hw.report import (
    CODE_ORDER,
    PRIMITIVE_CODES,
    SKIP_CODE,
    SPDMM_CODE,
    SPMM_CODE,
    GEMM_CODE,
    stage_cycles,
)
from repro.hw.spmm_unit import scp_cycles, spmm_census, spmm_compute_cycles
from repro.ir.scheme import TaskBatch
from repro.runtime.perf_model import PairBatch
from repro.runtime.stats import TaskLoopStats

try:  # SciPy's private C kernels, called without the per-call dispatch
    from scipy.sparse import _sparsetools
except ImportError:  # a SciPy that moved them: every pair takes _matmul
    _sparsetools = None
_CSR_MATVECS = getattr(_sparsetools, "csr_matvecs", None)
_CSR_TODENSE = getattr(_sparsetools, "csr_todense", None)
_CSR_MATMAT = getattr(_sparsetools, "csr_matmat", None)
#: the merge of a task's products held as CSR (without one: held dense);
#: ``csr_hstack`` also stacks a CSR output's blocks
_CSR_HSTACK = getattr(_sparsetools, "csr_hstack", None)
_CSR_TOCSC = getattr(_sparsetools, "csr_tocsc", None)
_CSR_SUM_DUPLICATES = getattr(_sparsetools, "csr_sum_duplicates", None)

#: host nanoseconds of the two CSR x CSR routes: a multiply-add of
#: ``csr_matmat`` (scatter included), a cell of the
#: S2D route's ``m x d`` and ``n x d`` sweeps, a cell of ``csr_matvecs``'s
#: row update per stored entry of X (see the ``micro_pair_product`` bench)
_NS_PER_MAC = 9.0
_NS_PER_CELL = 0.5
_NS_PER_ROW_CELL = 0.25
#: the host holds an output partition (and a whole output) as CSR below this
#: density (``micro_pair_product``: a CSR operand still pays at 10%, costs 2x
#: at 30%); the off-chip format is ``choose_storage_format``'s, whatever this is
SPARSE_HOLDING = 0.1

__all__ = [
    "execute_kernel_tasks",
    "finalise_task_loop",
    "wave_of",
]


def wave_of(events) -> list[int]:
    """Each task event's scheduling wave: how many tasks its core ran
    before it in the kernel."""
    ran: dict[int, int] = {}
    waves = []
    for ev in events:
        waves.append(ran.get(ev.core, 0))
        ran[ev.core] = waves[-1] + 1
    return waves


def finalise_task_loop(
    stats: TaskLoopStats, timeline, events_before: int
) -> TaskLoopStats:
    """Shared post-loop bookkeeping: the tasks dispatched and the waves
    they filled, derived from the timeline events the loop (or its
    per-task oracle) just booked."""
    executed = timeline.events[events_before:]
    stats.tasks_executed = len(executed)
    if executed:
        stats.waves = max(wave_of(executed)) + 1
    return stats


def _accumulate_csr_product(xblk, yblk, y_flat, s2d, out) -> None:
    """``out += xblk @ yblk`` for a CSR ``xblk`` with finite data; into
    an all-``+0.0`` ``out`` (every caller's) it leaves the float32 bits
    of ``(xblk @ yblk).todense()``.

    ``y_flat`` is a dense ``yblk`` flattened.  ``None`` says ``yblk`` is
    CSR: it is expanded into ``s2d`` first, as the Sparse-to-Dense module
    fills BufferU (zero-fill, ``csr_todense`` adds each stored entry to
    its cell).  One ``csr_matvecs`` call then does ``out[i, :] += v *
    Y[j, :]`` for each entry ``v`` of X row ``i``, in stored order.

    SciPy's ``csr_matmat`` keeps one float32 sum per output cell, starts
    it at ``+0.0`` and adds ``v * Y[j, k]`` over the same ``v`` in the
    same order, but only where ``Y[j, k]`` is stored.  Here a structural
    zero of Y contributes ``v * 0.0 = +-0.0``, and that changes no sum:
    ``s + +-0.0 == s`` for ``s != 0``, and a sum that started at ``+0.0``
    is never ``-0.0`` (``a + b`` is ``-0.0`` only when both are), so it
    stays ``+0.0``.  Stored zeros and ``-0.0`` in either operand need no
    guard: both routes multiply them like any entry, and a stored
    ``-0.0`` of Y becoming ``+0.0`` in the buffer flips only the sign of
    a zero added to such a sum.  A non-finite ``v`` is the exception
    (``inf * 0.0`` is ``NaN`` where ``csr_matmat`` skips the cell): the
    task loop sends an X block row with non-finite data to ``_matmul``.
    """
    m, n = xblk.shape
    d = out.shape[1]
    if y_flat is None:
        y_flat = s2d[: n * d]
        y_flat.fill(0)
        _CSR_TODENSE(n, d, yblk.indptr, yblk.indices, yblk.data, y_flat)
    _CSR_MATVECS(m, n, d, xblk.indptr, xblk.indices, xblk.data, y_flat, out.ravel())


def _entry_route(x_nnz, y_nnz, m, n, d) -> np.ndarray:
    """Which CSR x CSR pairs multiply entry by entry: those whose expected
    multiply-adds (each entry of X meets ``y_nnz / n`` entries of Y) cost
    less than sweeping the S2D route's dense buffers.  A pure function of
    the census phase 1 already holds per pair."""
    return _NS_PER_MAC * x_nnz * y_nnz < n * (
        _NS_PER_CELL * (m + n) * d + _NS_PER_ROW_CELL * x_nnz * d
    )


def _add_csr_csr_product(xblk, yblk, nmax, work, out) -> None:
    """``out += (xblk @ yblk).todense()``: :func:`_csr_csr_product` into
    ``work``, then ``csr_todense`` adds each stored cell to ``out``, with
    the bits of adding the dense product to an ``out`` that holds no
    ``-0.0`` (a sum that started at ``+0.0`` never does): an unstored cell
    would have added ``+0.0``.  No finite-data guard."""
    product = _csr_csr_product(xblk, yblk, out.shape[1], nmax, work)
    _CSR_TODENSE(*out.shape, *product, out.ravel())


def _csr_csr_product(xblk, yblk, d, nmax, work):
    """``xblk @ yblk`` by ``csr_matmat`` as ``(indptr, indices, data)``,
    views of ``work``'s reusable arrays valid until its next product: one
    float32 sum per cell, started at ``+0.0``, stored where it is not zero,
    columns unsorted.  ``nmax`` (the census's structural MACs: 0 when no
    entry of X meets one of Y) bounds the cells; indices in the wider type."""
    m = xblk.shape[0]
    ops = (xblk.indptr, xblk.indices, yblk.indptr, yblk.indices)
    idx = np.result_type(*ops)
    if not nmax:  # no call, no scratch
        return np.zeros(m + 1, idx), np.empty(0, idx), np.empty(0, DTYPE)
    cp, cj, cx = work.get(idx) or (np.empty(0, idx),) * 3
    if cp.size <= m:
        cp = np.empty(m + 1, idx)
    if cj.size < nmax:
        cj, cx = np.empty(nmax, idx), np.empty(nmax, DTYPE)
    work[idx] = cp, cj, cx
    xp, xj, yp, yj = (a.astype(idx, copy=False) for a in ops)
    _CSR_MATMAT(m, d, xp, xj, xblk.data, yp, yj, yblk.data, cp, cj, cx)
    return cp[: m + 1], cj[: cp[m]], cx[: cp[m]]


def _csr_hstack(m, widths, blocks, out=None):
    """``m``-row CSR ``(indptr, indices, data)`` blocks side by side (into ``out`` if
    given), int32 indices, columns shifted by the ``widths`` before, rows in block order."""
    ptrs, cols, vals = zip(*blocks)
    i32, nnz = np.int32, sum(int(p[m]) for p in ptrs)
    out = out or (np.empty(m + 1, i32), np.empty(nnz, i32), np.empty(nnz, DTYPE))
    ptrs, cols = (np.concatenate(a, dtype=i32, casting="same_kind") for a in (ptrs, cols))
    _CSR_HSTACK(len(blocks), m, np.asarray(widths, i32), ptrs, cols, np.concatenate(vals), *out)
    return out


def _merge_csr_products(m, d, products) -> sp.csr_matrix:
    """The canonical int32 CSR of ``((+0.0 + P1) + P2) + ...`` over ``m x
    d`` :func:`_csr_csr_product` results: :func:`_csr_hstack` with zero
    block widths interleaves each row's entries in product order, two
    stable counting transposes sort the columns, keeping a cell's entries
    in that order, and ``csr_sum_duplicates`` adds them as ``csr_todense``
    into a zero ``z`` would.  No product stores a zero, so ``+0.0 + P1``
    is ``P1`` and an unstored cell is ``+0.0`` both ways; only a sum that
    cancelled is zero, and ``eliminate_zeros`` drops it."""
    bp, bj, bx = _csr_hstack(m, np.zeros(len(products)), products)
    tp, tj, tx = np.empty(d + 1, np.int32), np.empty_like(bj), np.empty_like(bx)
    _CSR_TOCSC(m, d, bp, bj, bx, tp, tj, tx)
    _CSR_TOCSC(d, m, tp, tj, tx, bp, bj, bx)
    _CSR_SUM_DUPLICATES(m, d, bp, bj, bx)
    blk = sp.csr_matrix.__new__(sp.csr_matrix)
    blk.data, blk.indices, blk.indptr, blk._shape = bx, bj, bp, (m, d)
    blk.eliminate_zeros()
    if blk.nnz < bj.size:  # duplicates were summed: no slack past the entries
        blk.data, blk.indices = blk.data.copy(), blk.indices.copy()
    return blk


def execute_kernel_tasks(
    kernel,
    xv,
    yv,
    x_stored_sparse: bool,
    y_stored_sparse: bool,
    strategy,
    tasks: TaskBatch,
    lanes,
    assembly,
    acc_view,
    act,
) -> list[TaskLoopStats]:
    """Execute one kernel's task grid over its lanes: one
    :class:`TaskLoopStats` per lane, each bit-exact against the per-task
    oracle of the test suite run on that lane's tasks alone.

    ``tasks`` is any :class:`~repro.ir.scheme.TaskBatch` over the grid in
    output block row order; ``lanes`` are ``(accelerator, timeline, (lo,
    hi))`` triples owning consecutive block rows ``[lo, hi)`` that cover
    it.  Phases 1-3 run once over every pair, writing the shared
    ``assembly``; a lane keeps its DDR share, its dispatch and its totals.

    Raises :class:`~repro.hw.buffers.BufferOverflowError` — without
    having mutated any accelerator, timeline, ledger or assembly state —
    when a pair does not fit the on-chip buffers.
    """
    cfg, stats = lanes[0][0].config, [TaskLoopStats() for _ in lanes]
    events_before = [len(timeline.events) for _, timeline, _ in lanes]
    rows, cols, t_count = tasks.rows, tasks.cols, tasks.num_tasks
    edges = rows.searchsorted([row for *_, owned in lanes for row in owned]).tolist()
    #: each lane's first task, then the end
    bounds = edges[::2] + edges[-1:]
    if edges[0] or edges[-1] != t_count or edges[1:-1:2] != edges[2::2]:
        raise ValueError(f"kernel {kernel.kernel_id}: the lanes must own "
                         "consecutive block rows covering the tasks")
    m_t, d_t = xv.row_block_sizes[rows], yv.col_block_sizes[cols]
    #: each lane's first pair, then the end
    pair_bounds = tasks.starts[bounds].tolist()
    batch = PairBatch.of_tasks(
        xv, yv, tasks, x_stored_sparse, y_stored_sparse,
        seeded=acc_view is not None, lanes=(bounds, pair_bounds),
    )
    p_count = len(batch)
    tix, js = batch.task, tasks.js
    m_p, n_p, d_p = batch.m, batch.n, batch.d
    x_nnz_p, y_nnz_p = batch.x_nnz, batch.y_nnz

    # ---- phase 1: one whole-kernel Analyzer pass + cycle accounting ----
    codes, transp, modelled = strategy.decide_batch(kernel, batch)
    codes = np.array(codes, copy=True)
    transp = np.array(transp, dtype=bool)

    # SPMM capacity degrade (SPMM reads Y's rows at random, so Y must be
    # COO-resident in BufferU, 3 words a nonzero): a fixed mapping's, the
    # Analyzer weighs no candidate that does not fit
    words = cfg.buffers.words_per_buffer
    degrade = (codes == SPMM_CODE) & (3 * y_nnz_p > words)
    if degrade.any():
        codes[degrade] = SPDMM_CODE
        transp[degrade] = False

    live = codes != SKIP_CODE
    elems_x, elems_y = m_p * n_p, n_p * d_p
    # capacity pre-check of the dense operands, before any state is
    # touched: GEMM holds X in BufferO and Y in BufferP, SpDMM its dense
    # side in BufferO (its sparse side streams through BufferU, and
    # SPMM's resident COO operand already fits, by the degrade above)
    need_p = np.where(
        codes == GEMM_CODE,
        np.maximum(elems_x, elems_y),
        np.where(codes == SPDMM_CODE, np.where(transp, elems_x, elems_y), 0),
    )
    over = np.flatnonzero(need_p > words)
    if over.size:
        p = int(over[0])
        gemm_y = codes[p] == GEMM_CODE and elems_y[p] > elems_x[p]
        raise BufferOverflowError(
            f"kernel {kernel.kernel_id}: pair X[{rows[tix[p]]},{js[p]}] @ "
            f"Y[{js[p]},{cols[tix[p]]}] needs {need_p[p]} words, "
            f"{'BufferP' if gemm_y else 'BufferO'} holds {words}"
        )

    lp = np.flatnonzero(live)
    lt = tix[lp]
    # a seeded task runs (its seed is its output) with every pair skipped
    executed_t = (np.bincount(lt, minlength=t_count) > 0) | (acc_view is not None)

    # each lane's DDR share comes from the tasks it actually dispatches,
    # not its pre-skip task count
    bpc_t = np.empty(t_count)
    for (acc, _, _), lo, hi in zip(lanes, bounds, bounds[1:]):
        concurrency = min(acc.num_cores, np.count_nonzero(executed_t[lo:hi]))
        for core in acc.cores:
            core.active_cores = concurrency
        bpc_t[lo:hi] = acc.memory.per_core_bytes_per_cycle(concurrency)

    core0 = lanes[0][0].cores[0]
    comp_p, tr_p, macs_p = batch_pair_cycles(
        core0, codes, transp, m_p, n_p, d_p, x_nnz_p, y_nnz_p,
        x_stored_sparse, y_stored_sparse,
    )
    xb_p = 12 * x_nnz_p if x_stored_sparse else 4 * elems_x
    yb_p = 12 * y_nnz_p if y_stored_sparse else 4 * elems_y
    read_bytes_p = np.where(live, xb_p + yb_p, 0)
    read_cyc_p = read_bytes_p / bpc_t[tix]

    # per-core mode-switch state machine, split into the assignment-free
    # part (switches *within* a task) and the boundary switch resolved at
    # dispatch time
    lc = codes[lp].astype(np.int64)
    internal_t = np.zeros(t_count, dtype=np.int64)
    first_code_t = np.full(t_count, -1, dtype=np.int64)
    last_code_t = np.full(t_count, -1, dtype=np.int64)
    if lp.size:
        is_first = np.concatenate(([True], lt[1:] != lt[:-1]))
        is_last = np.concatenate((is_first[1:], [True]))
        first_code_t[lt[is_first]] = lc[is_first]
        last_code_t[lt[is_last]] = lc[is_last]
        sw_pos = (~is_first[1:]) & (lc[1:] != lc[:-1])
        internal_t = np.bincount(lt[1:][sw_pos], minlength=t_count).astype(np.int64)
    merged_t = np.zeros(t_count, dtype=bool)
    merged_t[tix[live & transp]] = True

    x_sparse, y_sparse = xv.is_sparse_storage, yv.is_sparse_storage
    native = x_sparse and None not in (_CSR_MATVECS, _CSR_TODENSE, _CSR_MATMAT)
    #: CSR x CSR pairs that multiply entry by entry (not onto a seed from acc_view:
    #: it may hold -0.0, where adding a product's stored cells is not adding it)
    entry_p = np.zeros(p_count, dtype=bool)
    if native and y_sparse and acc_view is None:
        entry_p = _entry_route(x_nnz_p, y_nnz_p, m_p, n_p, d_p)
    # the census: SPMM bills and product sizes of live pairs with a CSR X block
    spmm_p = live & (codes == SPMM_CODE)
    census = np.flatnonzero(spmm_p | (live & entry_p)) if x_sparse else lp[:0]
    struct_p = np.zeros(p_count, dtype=np.int64)
    if census.size:
        ci, cj, nc = rows[tix[census]], js[census], yv.num_col_blocks
        y_key = cj * nc + cols[tix[census]]
        keys = sorted_unique(y_key)  # each Y block is counted once per view
        counts = [yv.block_row_counts(*divmod(int(key), nc)) for key in keys]
        y_at = np.cumsum([0] + [c.shape[1] for c in counts])[np.searchsorted(keys, y_key)]
        y_counts = np.concatenate(counts, axis=1, dtype=np.int64)
        # an X block row at a time: the temporaries stay one block row's
        for q in np.split(np.arange(census.size), np.flatnonzero(np.diff(ci)) + 1):
            p = census[q]
            loads, macs, structural = spmm_census(
                [xv.csr_blocks_for_row(i)[j] for i, j in zip(ci[q].tolist(), cj[q].tolist())],
                y_counts, y_at[q], d_p[p], cfg.psys)
            comp_p[p] = np.where(spmm_p[p], scp_cycles(loads, macs, cfg), comp_p[p])
            macs_p[p] = np.where(spmm_p[p], macs, macs_p[p])
            struct_p[p] = structural
        del y_counts  # the view keeps each block's counts; their concatenation dies here
    for p in np.flatnonzero(spmm_p) if not x_sparse else ():  # dense X: pair by pair
        i, j, k = int(rows[tix[p]]), int(js[p]), int(cols[tix[p]])
        comp_p[p], macs_p[p] = spmm_compute_cycles(xv.block(i, j), yv.block(j, k), cfg)
    #: tasks that hold their products as CSR and merge them: every live pair entry
    #: by entry, none transposed, no activation after, structural MACs below the bound
    hold_t = np.zeros(t_count, dtype=bool)
    if entry_p.any() and act is None and None not in (_CSR_HSTACK, _CSR_TOCSC, _CSR_SUM_DUPLICATES):
        off = tix[live & ~(entry_p & ~transp)]
        hold_t = (np.bincount(off, minlength=t_count) == 0) & (
            np.bincount(tix, struct_p, t_count) < SPARSE_HOLDING * m_t * d_t)

    # ---- phase 2: functional pass (original task order) ----------------
    out_nnz_t = np.zeros(t_count, dtype=np.int64)
    exec_idx = np.flatnonzero(executed_t)
    computed = exec_idx
    if assembly.carried is not None:  # a lineage's product: counted, not recomputed
        out_nnz_t[exec_idx] = assembly.nnz_grid[rows[exec_idx], cols[exec_idx]]
        computed = exec_idx[:0]
    # per-task live-pair segment boundaries in one pass (lt is sorted)
    seg_lo = np.searchsorted(lt, computed, "left")
    seg_hi = np.searchsorted(lt, computed, "right")
    x_row_blocks, x_row_blocks_i = None, -1
    # dense operand blocks are views reused across the task grid, memoised
    # (a third of the per-pair Python overhead), y's with its flattening
    x_dense_cache: dict = {}
    y_dense_cache: dict = {}
    #: reusable accumulation target of csr_matvecs — refilled with zeros
    #: before every product, so the bits match a fresh allocation
    scratch: dict = {}
    #: BufferU's analogue: one y_blocking partition, refilled per pair, so
    #: no dense copy of a sparse operand outlives its pair
    s2d = np.empty(int(elems_y.max(initial=0)), DTYPE) if native and y_sparse else None
    #: csr_matmat's reusable output arrays, grown to the largest product
    work: dict = {}
    for seg in range(computed.shape[0]):
        t = int(computed[seg])
        i, k, m, d = int(rows[t]), int(cols[t]), int(m_t[t]), int(d_t[t])
        #: the task's products, held to be merged (``None``: summed into ``z``)
        held = [] if hold_t[t] else None
        if acc_view is not None:
            z = np.array(acc_view.dense_block(i, k), dtype=DTYPE, copy=True)
        else:
            z = None if held is not None else np.zeros((m, d), dtype=DTYPE)
        #: z is still the +0.0 it was allocated as
        blank = acc_view is None
        row_part, col_part = z, None
        s, e = int(seg_lo[seg]), int(seg_hi[seg])
        if s != e and x_sparse and x_row_blocks_i != i:
            x_row_blocks, x_row_blocks_i = xv.csr_blocks_for_row(i), i
        for q in range(s, e):
            p = int(lp[q])
            j = int(js[p])
            if x_sparse:
                xblk = x_row_blocks[j]
            else:
                xblk = x_dense_cache.get((i, j))
                if xblk is None:
                    xblk = x_dense_cache[(i, j)] = xv.block(i, j)
            if y_sparse:
                yblk, y_flat = yv.csr_blocks_for_row(j)[k], None
            else:
                if (j, k) not in y_dense_cache:
                    y_dense_cache[j, k] = yv.block(j, k), yv.block(j, k).ravel()
                yblk, y_flat = y_dense_cache[j, k]
            if held is not None:
                held.append([a.copy() for a in _csr_csr_product(xblk, yblk, d, struct_p[p], work)])
                continue
            flipped = bool(transp[p])
            if flipped and col_part is None:
                col_part = np.zeros((m, d), dtype=DTYPE)
            part = col_part if flipped else row_part
            if entry_p[p]:
                _add_csr_csr_product(xblk, yblk, struct_p[p], work, part)
            elif native and (y_flat is not None or xv.block_row_is_finite(i)):
                if blank and not flipped:  # 0 + P has the bits of P (P is never -0.0)
                    _accumulate_csr_product(xblk, yblk, y_flat, s2d, z)
                else:
                    partial = scratch.get((m, d))
                    if partial is None:
                        partial = scratch[(m, d)] = np.empty((m, d), dtype=DTYPE)
                    partial.fill(0)
                    _accumulate_csr_product(xblk, yblk, y_flat, s2d, partial)
                    part += partial
            else:
                part += _matmul(xblk, yblk)
            blank = blank and flipped
        if held is not None:
            out_nnz_t[t] = assembly.write(i, k, _merge_csr_products(m, d, held))
            continue
        z = row_part if col_part is None else row_part + col_part
        if act is not None:
            z = np.asarray(act(z), dtype=DTYPE)
        out_nnz_t[t] = assembly.write(i, k, z)

    # ---- phase 3: write-back accounting + task latencies ---------------
    comp_t, trans_t, macs_t, read_bytes_t = np.zeros((4, t_count), dtype=np.int64)
    mem_t = np.zeros(t_count, dtype=np.float64)
    # np.add.at is a strictly sequential scatter-add, so per-task float
    # sums replicate a per-pair loop's accumulation order
    for per_t, per_p in zip((comp_t, trans_t, macs_t, read_bytes_t, mem_t),
                            (comp_p, tr_p, macs_p, read_bytes_p, read_cyc_p)):
        np.add.at(per_t, lt, per_p[lp])
    profile_t, wb_tr_t, write_bytes_t, coo_t = batch_task_writeback(
        core0, m_t * d_t, out_nnz_t, merged_t, mem_t, trans_t, bpc_t
    )
    # a task never dispatched writes nothing; totals below read executed tasks only
    write_bytes_t = np.where(executed_t, write_bytes_t, 0)
    trans_t = trans_t + wb_tr_t
    mem_t = mem_t + write_bytes_t / bpc_t
    base_t = stage_cycles(comp_t, mem_t, trans_t, profile=profile_t,
                          double_buffering=cfg.buffers.double_buffering)
    #: what each task bills toward its lane's integer totals
    billed = np.where(executed_t, (comp_t, trans_t, profile_t, macs_t, read_bytes_t,
                                   write_bytes_t, coo_t), 0)

    # ---- phase 4, per lane: dispatch (Algorithm 8) and the totals ------
    msc = cfg.mode_switch_cycles
    #: each lane's first executed task, then the end
    exec_at = exec_idx.searchsorted(bounds).tolist()
    for lane, (acc, timeline, _) in enumerate(lanes):
        lo, hi = bounds[lane], bounds[lane + 1]
        p0, p1 = pair_bounds[lane], pair_bounds[lane + 1]
        st = stats[lane]
        if hi > lo:
            st.modelled = modelled and modelled[lane]
        soft = acc.soft_processor
        last_codes = np.array([
            -1 if c._last_primitive is None else PRIMITIVE_CODES[c._last_primitive]
            for c in acc.cores
        ], dtype=np.int64)
        total_switches = 0
        for t in exec_idx[exec_at[lane]:exec_at[lane + 1]]:
            t = int(t)
            core_id = timeline.peek_next_core()
            fc = int(first_code_t[t])
            sw = int(internal_t[t]) + int(fc >= 0 and 0 <= last_codes[core_id] != fc)
            latency = float(base_t[t]) + sw * msc
            dispatch_s = soft.dispatch_seconds(1) + soft.sparsity_receive_seconds(1)
            duration = latency + soft.seconds_to_accel_cycles(dispatch_s)
            timeline.assign_to(
                core_id, duration, kernel_id=kernel.kernel_id, task_index=t - lo
            )
            if fc >= 0:
                last_codes[core_id] = last_code_t[t]
            total_switches += sw
        for core_id, core in enumerate(acc.cores):
            code = int(last_codes[core_id])
            core._last_primitive = CODE_ORDER[code] if code >= 0 else None

        compute, transform, profile, macs, read_bytes, write_bytes, coo = (
            billed[:, lo:hi].sum(axis=1).tolist())
        acc.memory.ledger.bytes_read += read_bytes
        acc.memory.ledger.bytes_written += write_bytes
        st.num_tasks, st.num_pairs, st.coo_writebacks = hi - lo, p1 - p0, coo
        for code_val, c in enumerate(np.bincount(codes[p0:p1], minlength=len(CODE_ORDER))):
            if c:
                st.counts[CODE_ORDER[code_val]] += int(c)
        exec_mem = mem_t[lo:hi][executed_t[lo:hi]]
        # kernel totals merge per-task reports sequentially in task order;
        # np.add.accumulate is a strictly sequential scan, matching that
        rep = st.report
        rep.memory = float(np.add.accumulate(exec_mem)[-1]) if exec_mem.size else 0.0
        rep.compute, rep.transform, rep.profile = float(compute), float(transform), float(profile)
        rep.macs, rep.bytes_read, rep.bytes_written = macs, read_bytes, write_bytes
        rep.mode_switches = int(total_switches)
        finalise_task_loop(st, timeline, events_before[lane])
    return stats
