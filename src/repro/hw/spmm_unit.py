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

The counts are one census over a batch of pairs with CSR X blocks
(:func:`spmm_census`): the task loop takes it once per kernel, before
any product, and :func:`spmm_compute_cycles` is the census of one pair.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.config import AcceleratorConfig
from repro.formats.csr import as_csr, row_counts, MatrixLike


def spmm_census(x_blocks: list, y_counts: np.ndarray, y_at, d, psys: int):
    """Per pair of CSR X block ``x_blocks[p]`` and a ``d[p]``-wide Y block
    whose :func:`row_counts` are ``y_counts[:, y_at[p]:]``: int64 SCP loads
    ``(pairs, psys)``, MACs, and structural MACs (each row's stored X
    entries times their Y rows' stored entries, at most ``d[p]`` a row: a
    bound on the cells a ``csr_matmat`` product stores; ``None`` without
    ``d``).  Output row ``j``
    costs ``sum_{i in nonzeros of X[j]} nnz(Y[i])`` on SCP ``j mod psys``;
    integer sums, so no order of addition matters: one int64 prefix sum
    over every stored X entry's count (0 for a stored zero), taken at each
    pair's row pointers (rows padded with empty ones to a multiple of
    ``psys``), differenced and folded to ``(pairs, -1, psys)``."""
    m = np.array([b.shape[0] for b in x_blocks])
    first = np.array([0, *accumulate(m + 1)])  # where each pair's indptr starts
    ptrs = np.concatenate([b.indptr for b in x_blocks])
    stored = ptrs[first[1:] - 1]
    cols = np.concatenate([b.indices for b in x_blocks]) + np.repeat(y_at, stored)
    meets = y_counts.take(cols, axis=1)
    meets[0] *= np.concatenate([b.data for b in x_blocks]) != 0
    # one prefix over both rows: only differences inside a row are read
    prefix = np.zeros(meets.size + 1, dtype=np.int64)
    np.cumsum(meets, out=prefix[1:])
    # each pair's row pointers into the prefix: its rows, then empty ones
    rows = np.minimum(np.arange(-(-m.max() // psys) * psys + 1), m[:, None])
    at = ptrs.take(first[:-1, None] + rows) + (np.cumsum(stored, dtype=np.int64) - stored)[:, None]
    sums = prefix.take(at)
    loads = (sums[:, 1:] - sums[:, :-1]).reshape(len(m), -1, psys).sum(axis=1)
    if d is None:  # the bill alone
        return loads, sums[:, -1] - sums[:, 0], None
    cells = np.minimum(np.diff(prefix.take(at + cols.size), axis=1), np.reshape(d, (-1, 1)))
    return loads, sums[:, -1] - sums[:, 0], cells.sum(axis=1)


def spmm_workloads(x: MatrixLike, y: MatrixLike, psys: int) -> tuple[np.ndarray, int]:
    """Exact (per-SCP cycle loads, total MACs) for ``Z = X @ Y``: the
    census of one pair, or, for a dense ``X``, its row loads as one
    boolean mat-vec against ``Y``'s row counts (the same int64 loads).
    The test suite's element-level Algorithm 6 is the oracle."""
    if not isinstance(x, np.ndarray):
        loads, macs, _ = spmm_census([as_csr(x)], row_counts(y), [0], None, psys)
        return loads[0], int(macs[0])
    row_macs = np.zeros(-(-x.shape[0] // psys) * psys, dtype=np.int64)
    # row j meets nnz(Y[i]) at every nonzero X[j, i] (einsum: half an integer matmul's time)
    np.einsum("ji,i->j", x != 0, row_counts(y)[0], dtype=np.int64, out=row_macs[: x.shape[0]])
    return row_macs.reshape(-1, psys).sum(axis=0), int(row_macs.sum())


def scp_cycles(loads: np.ndarray, macs, config: AcceleratorConfig) -> np.ndarray:
    """Each pair's latency: the busiest SCP plus pipeline fill, 0 with no MAC."""
    return np.where(macs > 0, loads.max(axis=-1) + config.pipeline_depth, 0)


def spmm_compute_cycles(x: MatrixLike, y: MatrixLike, config: AcceleratorConfig) -> tuple[int, int]:
    """(cycles, macs) of one pair."""
    loads, macs = spmm_workloads(x, y, config.psys)
    return int(scp_cycles(loads, macs, config)), macs
