"""Analytical performance model (paper Table IV and §VI-A) and the cost
the Analyzer minimises with it.

For ``Z = X @ Y`` with ``X (m, n)`` of density ``alpha_X`` and ``Y (n, d)``
of density ``alpha_Y`` on a core with array dimension ``psys``:

==========  ===================  ==============================
primitive   MACs / cycle         execution time (cycles)
==========  ===================  ==============================
GEMM        ``psys**2``          ``m n d / psys**2``
SpDMM       ``psys**2 / 2``      ``alpha_min * 2 m n d / psys**2``
SPMM        ``psys``             ``alpha_X alpha_Y m n d / psys``
==========  ===================  ==============================

§VI-A derives the optimal-mode regions (``alpha_min = min``, ``alpha_max
= max`` of the two densities):

- ``alpha_min >= 1/2``                          -> GEMM,
- ``alpha_min < 1/2`` and ``alpha_max >= 2/psys`` -> SpDMM,
- ``alpha_min < 1/2`` and ``alpha_max < 2/psys``  -> SPMM,

three non-overlapping cases that tile the whole density domain: the
argmin of *compute* cycles.  A core of this hardware model charges a task
``max(compute, memory, transform)`` (:func:`repro.hw.report.stage_cycles`),
and an operand stored in another format than the mode wants (Table III)
takes an AHM pass beside the load stream that Table IV does not price.
:func:`candidate_cycles` prices it; the region rule is what its argmin
reduces to when nothing needs transforming, the array is fully occupied
and compute binds (``tests/test_runtime_perf_model.py`` holds that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.compiler.sparsity import stored_bytes
from repro.config import AcceleratorConfig
from repro.formats.layout import LayoutMerger
from repro.hw.core import candidate_transform_cycles
from repro.hw.gemm_unit import gemm_compute_cycles
from repro.hw.report import GEMM_CODE, SPDMM_CODE, SPMM_CODE, stage_cycles


@dataclass
class PairBatch:
    """``K`` partition pairs ``X[i, j] @ Y[j, k]`` of one kernel as the
    Analyzer sees them (dims, census, off-chip formats, the task each
    accumulates into); every array is int64 of length ``K``."""

    m: np.ndarray
    n: np.ndarray
    d: np.ndarray
    x_nnz: np.ndarray
    y_nnz: np.ndarray
    x_stored_sparse: bool
    y_stored_sparse: bool
    #: task of each pair, and how many tasks the kernel dispatches at most
    task: np.ndarray
    num_tasks: int
    #: every task is dispatched, live pair or not (``accumulate_into``)
    seeded: bool = False
    #: ``psys`` -> each pair's X-block SCP skew, asked only by a strategy
    #: that weighs SPMM; ``None``: balanced rows
    x_skew: Optional[Callable[[int], np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.m)

    @classmethod
    def of_tasks(cls, xv, yv, tasks, x_stored_sparse: bool, y_stored_sparse: bool,
                 seeded: bool = False) -> "PairBatch":
        """Every (task, pair) of ``tasks`` (a ``TaskBatch``) over two views, in task order."""
        task = np.repeat(np.arange(tasks.num_tasks, dtype=np.int64), tasks.counts)
        i, j, k = tasks.rows[task], tasks.js, tasks.cols[task]
        return cls(
            m=xv.row_block_sizes[i], n=xv.col_block_sizes[j],
            d=yv.col_block_sizes[k],
            x_nnz=xv.nnz_grid[i, j], y_nnz=yv.nnz_grid[j, k],
            x_stored_sparse=x_stored_sparse, y_stored_sparse=y_stored_sparse,
            task=task, num_tasks=tasks.num_tasks, seeded=seeded,
            x_skew=lambda psys: xv.scp_skew_grid(psys)[i, j],
        )


def _table_iv(volume, alpha_x, alpha_y, config: AcceleratorConfig) -> tuple:
    """Table IV's sparse rows: SpDMM with X in BufferU, SpDMM with Y in
    BufferU, SPMM (float64)."""
    ax = np.asarray(alpha_x, dtype=np.float64)
    ay = np.asarray(alpha_y, dtype=np.float64)
    p2 = config.psys * config.psys
    return ax * 2.0 * volume / p2, ay * 2.0 * volume / p2, ax * ay * volume / config.psys


def model_cycles_batch(m, n, d, alpha_x, alpha_y, config: AcceleratorConfig) -> np.ndarray:
    """Table IV for ``K`` pairs at once: a ``(3, K)`` float64 cycle array,
    rows in the code order ``GEMM, SpDMM, SPMM`` (SpDMM with the sparser
    operand in BufferU).  ``m``, ``n``, ``d`` may be scalars or arrays
    broadcastable to ``K``."""
    for alpha in map(np.asarray, (alpha_x, alpha_y)):
        if alpha.size and (alpha.min() < 0.0 or alpha.max() > 1.0):
            raise ValueError("densities must lie in [0, 1]")
    volume = np.asarray(m, np.int64) * np.asarray(n, np.int64) * np.asarray(d, np.int64)
    spdmm_x, spdmm_y, spmm = _table_iv(volume, alpha_x, alpha_y, config)
    return np.stack(np.broadcast_arrays(
        volume / config.psys**2, np.minimum(spdmm_x, spdmm_y), spmm
    ))


def candidate_cycles(
    batch: PairBatch, config: AcceleratorConfig, live: np.ndarray
) -> np.ndarray:
    """What a core would charge each pair under each candidate mapping: a
    ``(4, K)`` float64 array in :data:`repro.hw.report.CANDIDATES` order,
    ``inf`` where the mapping does not fit the on-chip buffers.

    ``max(compute, load, transform)``, :mod:`repro.hw.core`'s stage
    latency (their sum without double buffering):

    - ``compute``: Table IV, except that GEMM's row is the systolic
      array's own count (few output columns or a short inner dimension
      leave it far from full occupancy) and SPMM's is scaled by the X
      block's SCP skew (the simulator charges the busiest pipeline);
    - ``transform``: the AHM passes Table III requires given the off-chip
      formats, the array the core bills from, plus the layout merger pass
      a transposed pair's task pays;
    - ``load``: the operands' stored bytes and the task's (dense)
      write-back over the core's DDR share, the same for every candidate.

    Write-back and merger are apportioned over the task's ``live`` pairs
    (exact for one-pair tasks); the DDR share is that of the tasks holding
    a live pair.
    """
    m, n, d = batch.m, batch.n, batch.d
    elems_x, elems_y, out = m * n, n * d, m * d
    # sized by the ids present: a caller that prices each pair as a task of
    # its own (the patcher) numbers them past ``num_tasks``
    live_pairs = np.bincount(batch.task[live], minlength=batch.task.max(initial=-1) + 1)
    dispatched = batch.num_tasks if batch.seeded else np.count_nonzero(live_pairs)
    share = np.maximum(live_pairs, 1)[batch.task]
    bytes_per_cycle = config.memory.bytes_per_cycle(config.freq_hz) / max(
        min(config.num_cores, dispatched), 1
    )
    load = (
        stored_bytes(batch.x_nnz, elems_x, batch.x_stored_sparse)
        + stored_bytes(batch.y_nnz, elems_y, batch.y_stored_sparse)
        + 4 * out / share
    ) / bytes_per_cycle
    transform = candidate_transform_cycles(
        config.psys, elems_x, elems_y, batch.x_stored_sparse, batch.y_stored_sparse
    ).astype(np.float64)
    transform[2] += LayoutMerger(config.psys).cycles_for(out) / share
    compute = np.empty_like(transform)
    compute[1], compute[2], compute[3] = _table_iv(
        elems_x * d,
        batch.x_nnz / np.maximum(elems_x, 1),
        batch.y_nnz / np.maximum(elems_y, 1),
        config,
    )
    if batch.x_skew is not None:
        compute[3] *= batch.x_skew(config.psys)
    # whole psys x psys output tiles, each streaming n + 2 psys
    compute[0] = gemm_compute_cycles(m, n, d, config)
    # summed in this order serialised; the profiler's pass is every row's alike
    cost = stage_cycles(transform, load, compute, double_buffering=config.buffers.double_buffering)
    # dense operands must fit a buffer whole; SpDMM's sparse operand
    # streams; SPMM's right operand must be COO-resident (3 words/nonzero)
    words = config.buffers.words_per_buffer
    over_x, over_y = elems_x > words, elems_y > words
    cost[0, over_x | over_y] = np.inf
    cost[1, over_y] = np.inf
    cost[2, over_x] = np.inf
    cost[3, 3 * batch.y_nnz > words] = np.inf
    return cost


def region_thresholds(config: AcceleratorConfig) -> tuple[float, float]:
    """The §VI-A region boundaries: the ``alpha_min`` from which GEMM wins
    and the ``alpha_max`` from which SpDMM beats SPMM."""
    return 0.5, 2.0 / config.psys


def region_primitive_batch(
    alpha_x, alpha_y, config: AcceleratorConfig
) -> np.ndarray:
    """The closed-form optimal mode of §VI-A (ignores the zero case):
    int8 primitive codes per pair (:data:`repro.hw.report.CODE_ORDER`).
    GEMM wins the tie at ``alpha_min = 1/2``, SpDMM at ``alpha_max =
    2/psys``.  What the argmin of :func:`candidate_cycles` reduces to when
    no operand needs a format pass and compute binds."""
    ax = np.asarray(alpha_x, dtype=np.float64)
    ay = np.asarray(alpha_y, dtype=np.float64)
    gemm_from, spdmm_from = region_thresholds(config)
    # written in inverse-priority order: each later mask overrides
    codes = np.full(np.broadcast(ax, ay).shape, SPMM_CODE, dtype=np.int8)
    codes[np.maximum(ax, ay) >= spdmm_from] = SPDMM_CODE
    codes[np.minimum(ax, ay) >= gemm_from] = GEMM_CODE
    return codes
