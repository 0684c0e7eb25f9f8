"""Element-level oracles of the billed unit formulas and of the census.

Each mode module of ``repro.hw`` is the cycles it bills
(``gemm_compute_cycles``, ``spdmm_compute_cycles``,
``spmm_compute_cycles`` / ``spmm_workloads``).  The ``run_*_faithful``
simulators here execute the paper's algorithm entry by entry, so the
tests can hold each closed form, and ``repro.formats.csr.matmul``'s
product, against a direct execution.  :func:`block_nnz_grid_reference`
is the scatter-add census ``repro.formats.partition.block_nnz_grid``
replaced, kept as its oracle and the "before" side of the
``micro_block_nnz_grid`` bench.  :func:`spmm_workloads_reference` is
the per-pair SPMM count the task loop took before its kernel-wide census
(``repro.hw.spmm_unit.spmm_census``), kept as that census's oracle and
the "before" side of the ``micro_pair_census`` bench.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.csr import MatrixLike, as_csr, as_dense
from repro.formats.dense import DTYPE
from repro.formats.partition import _nonzero_coords, grid_dims

__all__ = [
    "block_nnz_grid_reference",
    "run_gemm_faithful",
    "run_spdmm_faithful",
    "run_spmm_faithful",
    "spmm_workloads_reference",
]


def run_gemm_faithful(
    x: MatrixLike, y: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, int]:
    """GEMM as an output-stationary systolic array, tile by tile.

    Each output element accumulates along ``n`` in order (float32), and
    each ``psys x psys`` tile streams the inner dimension plus a
    ``2 * psys`` fill/drain.
    """
    xd = as_dense(x)
    yd = as_dense(y)
    m, n = xd.shape
    d = yd.shape[1]
    p = config.psys
    z = np.zeros((m, d), dtype=DTYPE)
    cycles = 0
    for ti in range(math.ceil(m / p)):
        for tj in range(math.ceil(d / p)):
            # output-stationary: the tile's accumulators update once per
            # streamed column of X / row of Y
            cycles += n + 2 * p
            r0, c0 = ti * p, tj * p
            r1, c1 = min(r0 + p, m), min(c0 + p, d)
            for k in range(n):
                for i in range(r0, r1):
                    for j in range(c0, c1):
                        z[i, j] = DTYPE(z[i, j] + DTYPE(xd[i, k] * yd[k, j]))
    return z, cycles


def run_spdmm_faithful(
    sparse: MatrixLike, dense: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, int]:
    """Algorithm 5 with bank/unit serialisation.

    Each cycle a group of up to ``psys/2`` nonzeros is fetched.  Within a
    group, accesses to the same BufferO bank (``i mod psys``) or the same
    Update Unit (``j mod psys/2``) serialise.  An Update Unit occupies
    ``ceil(d / psys)`` cycles per accepted element (it has ``psys`` ALUs
    for a ``d``-long row).  Returns the exact result and the simulated
    cycle count (>= the conflict-free count the core bills).
    """
    p = config.psys
    half = p // 2
    xs = as_csr(sparse).tocoo()
    yd = as_dense(dense)
    m = xs.shape[0]
    d = yd.shape[1]
    z = np.zeros((m, d), dtype=DTYPE)
    mask = xs.data != 0
    rows, cols, vals = xs.row[mask], xs.col[mask], xs.data[mask]
    # COO row-major order: the stream leaves BufferU sorted by (row, col)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]

    occupancy = math.ceil(d / p) if d else 0
    unit_free = np.zeros(half, dtype=np.int64)
    cycle = 0
    for g in range(0, rows.size, half):
        gr = rows[g : g + half]
        gc = cols[g : g + half]
        gv = vals[g : g + half]
        cycle += 1  # fetch cycle for this group
        # ISN: one access per BufferO bank per cycle
        bank_counts = np.bincount(gc % p, minlength=p)
        isn_rounds = int(bank_counts.max()) if bank_counts.size else 1
        cycle += max(isn_rounds - 1, 0)
        for r, c, v in zip(gr, gc, gv):
            unit = int(r) % half
            start = max(cycle, int(unit_free[unit]))
            unit_free[unit] = start + occupancy
            # update + reduce: Z[j] += v * Y[i]
            z[r, :] += DTYPE(v) * yd[c, :]
    total = int(max(cycle, unit_free.max() if unit_free.size else 0))
    return z, total + config.pipeline_depth


def run_spmm_faithful(
    x: MatrixLike, y: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, int]:
    """Algorithm 6: explicit per-SCP row-wise products.

    Each SCP processes its assigned output rows serially; one
    multiply+merge per cycle.  The Sparse Data Queue is modelled as a
    dict keyed by column index, merged in arrival order.
    """
    p = config.psys
    xs = as_csr(x)
    ys = as_csr(y)
    m = xs.shape[0]
    d = ys.shape[1]
    z = np.zeros((m, d), dtype=DTYPE)
    scp_cycles = np.zeros(p, dtype=np.int64)
    for j in range(m):  # output row j -> SCP[j % p]
        scp = j % p
        queue: dict[int, np.float32] = {}
        for idx in range(xs.indptr[j], xs.indptr[j + 1]):  # Scatter: X[j]
            i = xs.indices[idx]
            v = xs.data[idx]
            if v == 0:
                continue
            for yidx in range(ys.indptr[i], ys.indptr[i + 1]):  # Gather: Y[i]
                k = ys.indices[yidx]
                yv = ys.data[yidx]
                if yv == 0:
                    continue
                u = DTYPE(v * yv)  # Update
                queue[k] = DTYPE(queue.get(k, DTYPE(0.0)) + u)  # Reduce/merge
                scp_cycles[scp] += 1
        for k, val in queue.items():
            z[j, k] = val
    total = int(scp_cycles.max()) if m else 0
    return z, total + config.pipeline_depth


def block_nnz_grid_reference(
    mat: MatrixLike, block_rows: int, block_cols: int
) -> np.ndarray:
    """The scatter-add census: one ``np.add.at`` over every nonzero's
    block coordinates."""
    nr, nc = grid_dims(mat.shape, block_rows, block_cols)
    grid = np.zeros((nr, nc), dtype=np.int64)
    if nr == 0 or nc == 0:
        return grid
    rows, cols = _nonzero_coords(mat)
    if rows.size:
        np.add.at(grid, (rows // block_rows, cols // block_cols), 1)
    return grid


def spmm_workloads_reference(
    x: MatrixLike, y: MatrixLike, psys: int, y_rows: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Exact (per-SCP loads, MACs) of ``X @ Y``, one pair at a time: both
    operands as CSR without stored zeros (a dense one counted as it lies),
    row loads from one int64 prefix sum over ``nnz(Y[i])`` gathered at X's
    columns, differenced at X's row pointers, folded to ``(-1, psys)``.
    ``y_rows``: Y's per-row nonzero counts, when the caller holds them."""

    def countable(mat):
        if isinstance(mat, np.ndarray):
            return mat
        mat = as_csr(mat)
        if mat.nnz and np.any(mat.data == 0):
            mat = mat.copy()
            mat.eliminate_zeros()
        return mat

    xs = countable(x)
    if y_rows is None:
        ys = countable(y)
        y_rows = (np.count_nonzero(ys, axis=1) if isinstance(ys, np.ndarray)
                  else np.diff(ys.indptr))
    rows = xs.shape[0]
    row_macs = np.zeros(-(-rows // psys) * psys, dtype=np.int64)
    if isinstance(xs, np.ndarray):
        np.einsum("ji,i->j", xs != 0, y_rows, dtype=np.int64, out=row_macs[:rows])
        macs = int(row_macs.sum())
    else:
        prefix = np.zeros(xs.nnz + 1, dtype=np.int64)
        np.cumsum(y_rows[xs.indices], dtype=np.int64, out=prefix[1:])
        row_macs[:rows] = np.diff(prefix[xs.indptr])
        macs = int(prefix[-1])
    return row_macs.reshape(-1, psys).sum(axis=0), macs
