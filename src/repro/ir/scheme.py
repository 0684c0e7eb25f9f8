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
class Task:
    """One computation task (Algorithm 4): an output partition ``Z_ij``.

    ``pairs`` lists the ``K`` inner-dimension block coordinates:
    ``Z[out_row, out_col] = sum_t X[out_row, t] @ Y[t, out_col]``.
    """

    kernel_id: str
    out_row: int
    out_col: int
    pairs: tuple[tuple[int, int], ...]  # (x block (out_row, t), y block (t, out_col))

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TaskBatch:
    """Structure-of-arrays view of a task list (vectorised executor input).

    ``rows``/``cols`` hold each task's output partition coordinate;
    ``js`` is the flattened inner-block index of every (task, pair) and
    ``starts`` the CSR-style segment boundaries (``js[starts[t]:
    starts[t+1]]`` are task ``t``'s pairs).  Built once per scheme (or per
    shard slice) and reused across runs — rebuilding these arrays per
    kernel execution is exactly the per-task Python overhead the
    vectorised executor removes.
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

    @classmethod
    def from_tasks(cls, tasks) -> "TaskBatch":
        """Build the SoA from any task list (uniform or ragged pairs)."""
        t = len(tasks)
        rows = np.fromiter((tk.out_row for tk in tasks), np.int64, count=t)
        cols = np.fromiter((tk.out_col for tk in tasks), np.int64, count=t)
        counts = np.fromiter((len(tk.pairs) for tk in tasks), np.int64, count=t)
        starts = np.zeros(t + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        js = np.empty(int(starts[-1]), dtype=np.int64)
        for idx, tk in enumerate(tasks):
            js[starts[idx] : starts[idx + 1]] = [p[0] for p in tk.pairs]
        return cls(rows=rows, cols=cols, js=js, starts=starts)

    def subset(self, mask: np.ndarray) -> "TaskBatch":
        """The batch restricted to tasks where ``mask`` is True (order
        preserved)."""
        mask = np.asarray(mask, dtype=bool)
        counts = self.counts[mask]
        starts = np.zeros(mask.sum() + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        pair_mask = np.repeat(mask, self.counts)
        return TaskBatch(
            rows=self.rows[mask],
            cols=self.cols[mask],
            js=self.js[pair_mask],
            starts=starts,
        )

    def block_rows(self, lo: int, hi: int) -> "TaskBatch":
        """The tasks whose output block row lies in ``[lo, hi)`` — how
        the kernel driver slices one kernel's grid into lanes.  A range
        covering the whole grid returns the batch itself."""
        mask = (self.rows >= lo) & (self.rows < hi)
        return self if mask.all() else self.subset(mask)


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

    @property
    def pairs_per_task(self) -> int:
        return self.inner_blocks

    #: lazily-built SoA over :meth:`tasks` (see :meth:`task_batch`)
    _task_batch: "TaskBatch | None" = field(
        default=None, repr=False, compare=False
    )

    def tasks(self) -> list[Task]:
        """Materialise the task list of Algorithms 2/3."""
        out: list[Task] = []
        for i in range(self.out_grid[0]):
            for k in range(self.out_grid[1]):
                pairs = tuple((j, j) for j in range(self.inner_blocks))
                out.append(Task(self.kernel_id, i, k, pairs))
        return out

    def task_batch(self) -> TaskBatch:
        """SoA view of :meth:`tasks`, built once and cached on the scheme.

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


def generate_tasks(kernel: KernelIR, n1: int, n2: int) -> list[Task]:
    """Convenience: scheme + task materialisation in one call."""
    return build_scheme(kernel, n1, n2).tasks()


def count_tasks(kernel: KernelIR, n1: int, n2: int) -> int:
    """``T_a`` / ``T_u`` of §VI-C without materialising the tasks."""
    scheme = build_scheme(kernel, n1, n2)
    return scheme.num_tasks
