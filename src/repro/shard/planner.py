"""Shard planning: split a compiled program's vertex set across devices.

Dynasparse's runtime maps partition pairs onto the Computation Cores of
*one* accelerator; the :class:`~repro.engine.pool.AcceleratorPool` scales
throughput, but a single query is still bounded by one device's memory
and compute.  Sharding splits one inference across devices by contiguous
**vertex ranges**: shard ``s`` owns rows ``[v0, v1)`` of every feature
matrix and the matching row slice of the adjacency, computes those rows
of every kernel's output, and exchanges **halo** feature rows (boundary
vertices its adjacency slice references outside its own range) with the
other shards before each Aggregate kernel.

The planner reuses the compiled program's
:class:`~repro.formats.partition.PartitionedMatrix` block grids as the
balance objective: shard boundaries are multiples of ``N1`` (the
adjacency block side), so every Aggregate task of the existing execution
scheme falls wholly inside one shard, and the per-block nonzero census
the compiler already pays for prices every boundary candidate for free,
in *modelled cycles*: the two terms :mod:`repro.hw.core` takes the max
of, Table IV's compute on the census densities and the task's DDR bytes
at the bandwidth share its device's concurrency leaves it.  That makes
the split skew-aware (power-law graphs concentrate edges in a few hot
vertex ranges) and honest about memory-bound layers, where a shard costs
in proportion to how many tasks share its device's DDR, not to its nnz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.ir.kernel import KernelIR, KernelType
from repro.ir.scheme import owned_block_rows
from repro.runtime.perf_model import model_cycles_batch
from repro.runtime.stats import mean_over_max

__all__ = ["Shard", "ShardPlan", "halo_vertices", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One contiguous vertex range owned by one device."""

    index: int
    #: owned vertex range [v0, v1)
    v0: int
    v1: int
    #: adjacency nonzeros in rows [v0, v1)
    nnz: int
    #: modelled cycles of the first Aggregate here (the balance objective)
    cost: float = 0.0

    @property
    def num_vertices(self) -> int:
        return self.v1 - self.v0


@dataclass
class ShardPlan:
    """How one compiled program splits across devices.

    ``shards`` partition ``[0, num_vertices)`` into contiguous ranges
    whose boundaries are multiples of ``align_rows`` (the adjacency
    block side ``N1``), so the existing task grid maps onto shards
    without re-blocking.  ``num_shards`` may be smaller than requested
    when the graph has fewer block rows than devices.
    """

    num_vertices: int
    #: shard boundaries are multiples of this (the program's N1)
    align_rows: int
    shards: list[Shard]
    #: adjacency operand of the kernel the balance objective priced
    adjacency_name: str
    requested_shards: int
    #: per-shard halo size (boundary vertices needed from other shards)
    #: for the balance adjacency, filled by :func:`plan_shards`
    halo: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def nnz_balance(self) -> float:
        """Mean shard nnz / max shard nnz; 1.0 = perfectly even."""
        return mean_over_max(np.array([s.nnz for s in self.shards], np.float64))

    def halo_exchange(
        self, program: CompiledProgram, kernel: KernelIR
    ) -> tuple[np.ndarray, np.ndarray]:
        """What each shard receives before Aggregate ``kernel``: the bytes
        of one feature row of ``Y`` (as wide as the kernel's output) per
        halo vertex, and the remote ``Y`` block rows they arrive in, read
        off the adjacency census (its columns are ``Y``'s rows)."""
        if kernel.x_name == self.adjacency_name and self.halo.size:
            vertices = self.halo
        else:
            a = program.store[kernel.x_name]
            vertices = np.array(
                [halo_vertices(a, s.v0, s.v1) for s in self.shards], dtype=np.int64
            )
        scheme = kernel.exec_scheme
        grid = program.view(kernel.x_name, *scheme.x_blocking).nnz_grid
        chunks = np.array([
            halo_blocks(grid, scheme.y_blocking[0], s.v0, s.v1) for s in self.shards
        ])
        return vertices * kernel.output_dim * 4, chunks

    def describe(self) -> str:
        lines = [
            f"ShardPlan: {self.num_shards} shard(s) over "
            f"{self.num_vertices:,} vertices (aligned to {self.align_rows} "
            f"rows, balanced on modelled cycles of the first Aggregate over "
            f"{self.adjacency_name}: waves x mean task max(Table IV compute, "
            f"DDR share))"
        ]
        for s in self.shards:
            h = int(self.halo[s.index]) if self.halo.size else 0
            lines.append(
                f"  shard {s.index}: vertices [{s.v0:,}, {s.v1:,}) "
                f"cost {s.cost:,.0f} cycles nnz {s.nnz:,} halo {h:,}"
            )
        return "\n".join(lines)


def halo_vertices(a, v0: int, v1: int) -> int:
    """Boundary vertices rows ``[v0, v1)`` of CSR ``a`` reference outside
    their own range — the feature rows a shard must receive before an
    Aggregate kernel."""
    cols = a.indices[a.indptr[v0]:a.indptr[v1]]
    referenced = np.zeros(a.shape[1], dtype=bool)
    referenced[cols] = True
    referenced[v0:v1] = False
    return int(np.count_nonzero(referenced))


def halo_blocks(nnz_grid: np.ndarray, block: int, v0: int, v1: int) -> int:
    """Block columns of a ``block``-square adjacency census that vertex
    rows ``[v0, v1)`` reference outside their own range — the remote
    ``Y`` block rows a shard's halo arrives in."""
    lo, hi = owned_block_rows(v0, v1, block)
    touched = nnz_grid[lo:hi].any(axis=0)
    return int(np.count_nonzero(touched) - np.count_nonzero(touched[lo:hi]))


def _task_costs(
    program: CompiledProgram, kernel: KernelIR
) -> tuple[np.ndarray, np.ndarray]:
    """Per task of Aggregate ``kernel``, as ``(block rows, block columns)``
    grids: Table IV compute cycles of the cheapest primitive per pair on
    the adjacency census, and DDR bytes (operand reads of live pairs plus
    the write-back).  ``Y`` is priced as dense: past the first layer its
    density is not known before the run."""
    scheme = kernel.exec_scheme
    xv = program.view(kernel.x_name, *scheme.x_blocking)
    m = xv.row_block_sizes.astype(np.int64)[:, None, None]
    n = xv.col_block_sizes.astype(np.int64)[None, :, None]
    width = scheme.y_blocking[1]
    starts = width * np.arange(scheme.out_grid[1], dtype=np.int64)
    d = np.minimum(width, kernel.output_dim - starts)[None, None, :]
    x_nnz = xv.nnz_grid[:, :, None]
    x_bytes = 12 * x_nnz if program.stored_sparse[kernel.x_name] else 4 * m * n
    # an empty block is skipped: Table IV prices it at zero by itself
    compute = model_cycles_batch(
        m, n, d, xv.density_grid[:, :, None], 1.0, program.config
    ).min(axis=0).sum(axis=1)
    nbytes = np.where(x_nnz > 0, x_bytes + 4 * n * d, 0).sum(axis=1)
    return compute, nbytes + 4 * m[:, 0] * d[0]


def _balanced_boundaries(
    compute: np.ndarray, nbytes: np.ndarray, num_shards: int,
    cores: int, ddr_bytes_per_cycle: float,
) -> tuple[list[int], list[float]]:
    """Contiguous split of block rows into ``num_shards`` non-empty
    ranges minimising the slowest shard's modelled makespan; returns the
    boundaries and each shard's cost.

    A shard's ``t`` tasks run on its device's ``cores`` Computation Cores
    in ``ceil(t / cores)`` waves, each costing the mean task — so a shard
    costs ``waves * mean task cost``: giving a 7-core device 8 tasks
    doubles its makespan however even the work.  A task costs
    ``max(compute, bytes * c / DDR bytes-per-cycle)``, the double-buffered
    task latency of :mod:`repro.hw.core`, with ``c = min(cores, t)`` the
    tasks that stream at once and so split the device's DDR bandwidth
    (:class:`~repro.hw.memory.ExternalMemory`).  Minimised exactly by
    dynamic programming over per-concurrency prefix sums.
    """
    num_units, per_row = compute.shape
    cores = max(int(cores), 1)
    # prefix[c - 1][j]: summed task cost of block rows [0, j) when c stream
    # (Python floats: the DP below reads them a few thousand times)
    share = np.arange(1, cores + 1)[:, None, None] / ddr_bytes_per_cycle
    rows = np.maximum(compute, nbytes * share).sum(axis=2)
    prefix = np.pad(np.cumsum(rows, axis=1), ((0, 0), (1, 0))).tolist()

    def cost(i: int, j: int) -> float:
        tasks = (j - i) * per_row
        if tasks <= 0:
            return float("inf")  # shards must be non-empty
        level = prefix[min(cores, tasks) - 1]
        return -(-tasks // cores) * (level[j] - level[i]) / tasks

    # best[k][j]: minimal max-shard-cost splitting units [0, j) into k+1
    # shards; split[k][j]: the last boundary achieving it
    best = [[cost(0, j) for j in range(num_units + 1)]]
    split = []
    for k in range(1, num_shards):
        row = [float("inf")] * (num_units + 1)
        cut = [0] * (num_units + 1)
        for j in range(k + 1, num_units + 1):
            for i in range(k, j):
                c = max(best[k - 1][i], cost(i, j))
                if c < row[j]:
                    row[j], cut[j] = c, i
        best.append(row)
        split.append(cut)

    bounds = [num_units]
    for k in range(num_shards - 1, 0, -1):
        bounds.append(split[k - 1][bounds[-1]])
    bounds.append(0)
    bounds.reverse()
    return bounds, [cost(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def plan_shards(program: CompiledProgram, num_shards: int) -> ShardPlan:
    """Plan a cycle-balanced vertex split of ``program`` into shards.

    The balance objective is the modelled cost of the first Aggregate
    kernel's tasks, priced from its adjacency census (all variants share
    the sparsity pattern up to the diagonal); boundaries land on ``N1``
    multiples so Aggregate tasks never straddle shards.  When the graph has fewer block rows than ``num_shards`` the
    plan degrades to one shard per block row.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    agg = next(
        (k for k in program.graph.topo_order()
         if k.ktype is KernelType.AGGREGATE),
        None,
    )
    if agg is None:
        raise ValueError(
            f"program for {program.model.name} has no Aggregate kernel to "
            "shard on"
        )
    n1 = program.n1
    av = program.view(agg.x_name, n1, n1)
    num_vertices = av.shape[0]
    row_nnz = av.nnz_grid.sum(axis=1)
    effective = min(num_shards, int(row_nnz.size))
    config = program.config
    bounds, costs = _balanced_boundaries(
        *_task_costs(program, agg), effective, config.num_cores,
        config.memory.bytes_per_cycle(config.freq_hz),
    )

    shards = [
        Shard(index=s, v0=lo * n1, v1=min(hi * n1, num_vertices),
              nnz=int(row_nnz[lo:hi].sum()), cost=cost)
        for s, (lo, hi, cost) in enumerate(zip(bounds, bounds[1:], costs))
    ]
    a = av.matrix  # canonical CSR (adjacency is always sparse storage)
    return ShardPlan(
        num_vertices=num_vertices,
        align_rows=n1,
        shards=shards,
        adjacency_name=agg.x_name,
        requested_shards=num_shards,
        halo=np.array(
            [halo_vertices(a, s.v0, s.v1) for s in shards], dtype=np.int64
        ),
    )
