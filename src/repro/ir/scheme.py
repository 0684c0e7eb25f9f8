"""Execution schemes and tasks (paper Algorithms 2, 3 and 4).

The compiler decomposes each kernel into *independent* tasks: one task per
output data partition, with no data dependency between the tasks of one
kernel.  A task multiplies a row of ``X`` partitions against a column of
``Y`` partitions (Algorithm 4):

- **Aggregate** (Algorithm 2): output fiber ``H_out[i, k]`` accumulates
  ``A[i, j] @ H_in[j, k]`` over ``j`` — ``T_a = (|V|/N1) * (f1/N2)``
  tasks, each with ``K = |V|/N1`` pairs.
- **Update** (Algorithm 3): output subfiber ``H_out[i, k]`` accumulates
  ``H_in[i, j] @ W[j, k]`` over ``j`` with ``N2 x N2`` partitions —
  ``T_u = (|V|/N2) * (f2/N2)`` tasks, each with ``K = f1/N2`` pairs.

The fiber/subfiber bookkeeping of Algorithm 3 (``g``, ``f`` indices) maps
subfiber coordinates back into fibers; because
:class:`~repro.formats.partition.PartitionedMatrix` exposes both viewings
of the same underlying DDR bytes, tasks here address blocks directly in
their kernel's blocking and the index algebra collapses to plain block
coordinates (documented in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ir.kernel import KernelIR, KernelType


@dataclass(frozen=True)
class TaskBatch:
    """Structure-of-arrays view of a kernel's tasks (the task loop's input).

    ``rows``/``cols`` hold each task's output partition coordinate;
    ``js`` is the flattened inner-block index of every (task, pair) and
    ``starts`` the CSR-style segment boundaries (``js[starts[t]:
    starts[t+1]]`` are task ``t``'s pairs).  Built once per scheme and
    reused across runs and lanes — rebuilding these arrays per kernel
    execution is exactly the per-task Python overhead the vectorised
    executor removes.
    """

    rows: np.ndarray
    cols: np.ndarray
    js: np.ndarray
    starts: np.ndarray

    @property
    def num_tasks(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_pairs(self) -> int:
        return int(self.js.shape[0])

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)


def owned_block_rows(v0: int, v1: int, block_rows: int) -> tuple[int, int]:
    """Block rows owned by vertex range ``[v0, v1)`` under a
    ``block_rows`` blocking: a block belongs to the range holding its
    *first* vertex."""
    return -(-v0 // block_rows), -(-v1 // block_rows)  # ceil


@dataclass
class ExecutionScheme:
    """Meta data of a kernel's execution scheme (stored in the IR)."""

    kernel_id: str
    ktype: KernelType
    n1: int
    n2: int
    #: blocking of X, Y and the output, as (block_rows, block_cols)
    x_blocking: tuple[int, int]
    y_blocking: tuple[int, int]
    out_blocking: tuple[int, int]
    #: output partition grid
    out_grid: tuple[int, int]
    #: inner-dimension block count K
    inner_blocks: int

    @property
    def num_tasks(self) -> int:
        return self.out_grid[0] * self.out_grid[1]

    #: the task grid's SoA, built on first ask (see :meth:`task_batch`)
    _task_batch: "TaskBatch | None" = field(
        default=None, repr=False, compare=False
    )

    def task_batch(self) -> TaskBatch:
        """The SoA of Algorithms 2/3's task grid, built once and cached on
        the scheme.

        The grid structure is closed-form (row-major output grid, every
        task carrying the same ``K`` diagonal pairs), so no Python loop
        over tasks is needed.
        """
        if self._task_batch is None:
            gr, gc = self.out_grid
            t = gr * gc
            k = self.inner_blocks
            self._task_batch = TaskBatch(
                rows=np.repeat(np.arange(gr, dtype=np.int64), gc),
                cols=np.tile(np.arange(gc, dtype=np.int64), gr),
                js=np.tile(np.arange(k, dtype=np.int64), t),
                starts=np.arange(t + 1, dtype=np.int64) * k,
            )
        return self._task_batch


def build_scheme(kernel: KernelIR, n1: int, n2: int) -> ExecutionScheme:
    """Generate the execution scheme for one kernel (Algorithm 2 or 3)."""
    v = kernel.num_vertices
    if kernel.ktype is KernelType.AGGREGATE:
        # Z (|V| x f_out) in (N1 x N2) fibers; X = A in (N1 x N1) blocks;
        # Y = H_in in (N1 x N2) fibers.  Inner dim = |V| in N1 steps.
        out_grid = (math.ceil(v / n1), math.ceil(kernel.output_dim / n2))
        return ExecutionScheme(
            kernel_id=kernel.kernel_id,
            ktype=kernel.ktype,
            n1=n1,
            n2=n2,
            x_blocking=(n1, n1),
            y_blocking=(n1, n2),
            out_blocking=(n1, n2),
            out_grid=out_grid,
            inner_blocks=math.ceil(v / n1),
        )
    # Update: Z (|V| x f2) in (N2 x N2) subfibers; X = H_in in (N2 x N2)
    # subfibers; Y = W in (N2 x N2) blocks.  Inner dim = f1 in N2 steps.
    out_grid = (math.ceil(v / n2), math.ceil(kernel.output_dim / n2))
    return ExecutionScheme(
        kernel_id=kernel.kernel_id,
        ktype=kernel.ktype,
        n1=n1,
        n2=n2,
        x_blocking=(n2, n2),
        y_blocking=(n2, n2),
        out_blocking=(n2, n2),
        out_grid=out_grid,
        inner_blocks=math.ceil(kernel.input_dim / n2),
    )

