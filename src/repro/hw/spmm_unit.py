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
    against them: the same int64 loads.  The test suite's element-level
    Algorithm 6 is the oracle.
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
