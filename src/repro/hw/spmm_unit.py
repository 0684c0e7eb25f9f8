"""SPMM execution mode: row-wise product with scatter-gather (Algorithm 6).

The ALU array reorganises into ``psys`` Sparse Computation Pipelines
(SCPs), each with two ALUs (one multiply, one merge) and a Sparse Data
Queue for the intermediate sparse row.  Output row ``Z[j]`` is assigned to
SCP ``j mod psys`` and computed as the row-wise product

    Z[j] = sum_i X[j][i] * Y[i]                       (Eq. 1)

skipping zeros in *both* operands: for each nonzero ``X[j][i]`` the SCP
touches only the nonzeros of ``Y[i]``.  Aggregate throughput is ``psys``
MACs per cycle; Table IV idealises the cycle count as
``alpha_X * alpha_Y * m * n * d / psys`` under balanced row workloads.
The simulator computes the *exact* per-SCP workloads, so imbalance across
output rows (very common in power-law graphs) is captured: the mode's
latency is the maximum SCP load, not the mean.
"""

from __future__ import annotations

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.csr import as_csr, eliminate_zeros, MatrixLike
from repro.formats.dense import DTYPE
from repro.hw.report import CycleReport


def _countable(mat: MatrixLike) -> MatrixLike:
    """A dense operand as it lies (a CSR built just to read row counts
    costs ten times the count), a sparse one as CSR without stored zeros."""
    if isinstance(mat, np.ndarray):
        return mat
    mat = as_csr(mat)
    return eliminate_zeros(mat) if mat.nnz and np.any(mat.data == 0) else mat


def spmm_workloads(
    x: MatrixLike, y: MatrixLike, psys: int, zero_free: bool = False,
    y_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Exact (per-SCP cycle loads, total MACs) for ``Z = X @ Y``.

    ``zero_free``: both operands are CSR and store no zeros (the task
    loop asks each operand's block layout once), so neither is rescanned.
    ``y_rows``: the nonzeros of each row of ``Y`` when the caller holds
    them (the task loop counts a dense block once for all its tasks).

    The multiply count of output row ``j`` is
    ``sum_{i in nonzeros of X[j]} nnz(Y[i])``; SCP ``j mod psys``
    accumulates the loads of its assigned rows.  Both are integer sums,
    so the order of addition cannot matter and no scatter is needed:
    row loads are one int64 prefix sum over ``nnz(Y[i])`` gathered at X's
    column indices, differenced at X's row pointers; SCP loads are the
    column sums of the row loads zero-padded to a multiple of ``psys``
    and folded to ``(-1, psys)``.  A dense ``Y``'s rows are counted with
    ``count_nonzero``, a dense ``X``'s row loads are one boolean mat-vec
    against them: the same int64 loads.  ``run_spmm_faithful`` is the oracle.
    """
    xs = x if zero_free else _countable(x)
    if y_rows is None:
        ys = y if zero_free else _countable(y)
        y_rows = (
            np.count_nonzero(ys, axis=1) if isinstance(ys, np.ndarray)
            else np.diff(ys.indptr)
        )
    rows = xs.shape[0]
    row_macs = np.zeros(-(-rows // psys) * psys, dtype=np.int64)
    if isinstance(xs, np.ndarray):
        # row j meets nnz(Y[i]) at every nonzero X[j, i] (einsum: half the
        # time of the integer matmul loop)
        np.einsum("ji,i->j", xs != 0, y_rows, dtype=np.int64, out=row_macs[:rows])
        macs = int(row_macs.sum())
    else:
        prefix = np.zeros(xs.nnz + 1, dtype=np.int64)
        np.cumsum(y_rows[xs.indices], dtype=np.int64, out=prefix[1:])
        row_macs[:rows] = np.diff(prefix[xs.indptr])
        macs = int(prefix[-1])
    return row_macs.reshape(-1, psys).sum(axis=0), macs


def spmm_compute_cycles(
    x: MatrixLike, y: MatrixLike, config: AcceleratorConfig, zero_free: bool = False,
    y_rows: np.ndarray | None = None,
) -> tuple[int, int]:
    """(cycles, macs): latency is the busiest SCP plus pipeline fill."""
    scp_loads, macs = spmm_workloads(x, y, config.psys, zero_free, y_rows)
    if macs == 0:
        return 0, 0
    return int(scp_loads.max()) + config.pipeline_depth, macs


def run_spmm(
    x: MatrixLike, y: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, CycleReport]:
    """Execute SPMM mode: ``Z = X @ Y`` with both operands sparse."""
    xs = as_csr(x)
    ys = as_csr(y)
    if xs.shape[1] != ys.shape[0]:
        raise ValueError(f"shape mismatch: {xs.shape} @ {ys.shape}")
    cycles, macs = spmm_compute_cycles(xs, ys, config)
    z = np.asarray((xs @ ys).todense(), dtype=DTYPE)
    report = CycleReport(compute=cycles, macs=macs)
    return z, report


def run_spmm_faithful(
    x: MatrixLike, y: MatrixLike, config: AcceleratorConfig
) -> tuple[np.ndarray, int]:
    """Element-level Algorithm 6: explicit per-SCP row-wise products.

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
        start, end = xs.indptr[j], xs.indptr[j + 1]
        for idx in range(start, end):  # Scatter: each e(i, j, value) of X[j]
            i = xs.indices[idx]
            v = xs.data[idx]
            if v == 0:
                continue
            ys_start, ys_end = ys.indptr[i], ys.indptr[i + 1]
            for yidx in range(ys_start, ys_end):  # Gather over nonzero Y[i][k]
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
