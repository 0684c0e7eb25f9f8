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
the compiler already pays for gives the per-boundary-candidate work
totals for free.  Balancing on *nonzeros* rather than vertices is what
makes the split skew-aware: power-law graphs concentrate edges in a few
hot vertex ranges, and an even vertex split would leave one device doing
most of the aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.compile import CompiledProgram
from repro.ir.kernel import KernelType
from repro.ir.scheme import owned_block_rows

__all__ = ["Shard", "ShardPlan", "halo_vertices", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One contiguous vertex range owned by one device."""

    index: int
    #: owned vertex range [v0, v1)
    v0: int
    v1: int
    #: adjacency nonzeros in rows [v0, v1) (the balance objective)
    nnz: int

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
    #: adjacency operand whose nnz the balance objective used
    adjacency_name: str
    requested_shards: int
    #: per-shard halo size (boundary vertices needed from other shards)
    #: for the balance adjacency, filled by :func:`plan_shards`
    halo: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return [(s.v0, s.v1) for s in self.shards]

    @property
    def total_nnz(self) -> int:
        return sum(s.nnz for s in self.shards)

    def nnz_balance(self) -> float:
        """Mean shard nnz / max shard nnz; 1.0 = perfectly even."""
        sizes = np.array([s.nnz for s in self.shards], dtype=np.float64)
        mx = float(sizes.max()) if sizes.size else 0.0
        if mx == 0.0:
            return 1.0
        return min(float(sizes.mean()) / mx, 1.0)

    def block_range(self, shard: Shard, block_rows: int) -> tuple[int, int]:
        """Output block rows shard owns under a ``block_rows`` blocking.

        A block belongs to the shard owning its *first* vertex.  For
        ``block_rows == align_rows`` divisors (the Aggregate blocking)
        the assignment is exact; Update kernels block by ``N2``, whose
        boundaries may straddle a shard edge — the straddling block's
        few trailing rows are computed by the owner of its first vertex
        (ownership is an accounting notion; numerics are unaffected).
        """
        return owned_block_rows(shard.v0, shard.v1, block_rows)

    def describe(self) -> str:
        lines = [
            f"ShardPlan: {self.num_shards} shard(s) over "
            f"{self.num_vertices:,} vertices (aligned to {self.align_rows} "
            f"rows, balanced on nnz({self.adjacency_name}))"
        ]
        for s in self.shards:
            h = int(self.halo[s.index]) if self.halo.size else 0
            lines.append(
                f"  shard {s.index}: vertices [{s.v0:,}, {s.v1:,}) "
                f"nnz {s.nnz:,} halo {h:,}"
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


def _balanced_boundaries(
    unit_nnz: np.ndarray, num_shards: int, cores: int
) -> list[int]:
    """Contiguous split of block rows into ``num_shards`` non-empty
    ranges minimising the slowest shard's modelled Aggregate makespan.

    A shard with ``b`` block rows runs ``b`` tasks on its device's
    ``cores`` Computation Cores in ``ceil(b / cores)`` waves, each wave
    costing roughly the mean task nonzero count — so the shard cost is
    ``waves * mean_nnz``, not plain nnz: giving a 7-core device 8 tasks
    doubles its makespan even when the nonzeros are perfectly even.
    Minimised exactly by dynamic programming over the (small) block-row
    prefix sums.
    """
    num_units = int(unit_nnz.size)
    cores = max(int(cores), 1)
    prefix = np.concatenate(([0.0], np.cumsum(unit_nnz, dtype=np.float64)))

    def cost(i: int, j: int) -> float:
        b = j - i
        if b <= 0:
            return float("inf")  # shards must be non-empty
        waves = -(-b // cores)
        # epsilon keeps empty regions preferring even wave counts
        return waves * ((prefix[j] - prefix[i]) / b + 1e-9)

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
    return bounds[::-1]


def plan_shards(program: CompiledProgram, num_shards: int) -> ShardPlan:
    """Plan an nnz-balanced vertex split of ``program`` into shards.

    The balance objective is the per-block-row nonzero census of the
    first Aggregate kernel's adjacency operand (all variants share the
    sparsity pattern up to the diagonal); boundaries land on ``N1``
    multiples so Aggregate tasks never straddle shards.  When the graph
    has fewer block rows than ``num_shards`` the plan degrades to one
    shard per block row.
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
    bounds = _balanced_boundaries(
        row_nnz, effective, program.config.num_cores
    )

    shards = []
    for s in range(effective):
        lo, hi = bounds[s], bounds[s + 1]
        v0 = lo * n1
        v1 = min(hi * n1, num_vertices)
        shards.append(
            Shard(index=s, v0=v0, v1=v1, nnz=int(row_nnz[lo:hi].sum()))
        )
    plan = ShardPlan(
        num_vertices=num_vertices,
        align_rows=n1,
        shards=shards,
        adjacency_name=agg.x_name,
        requested_shards=num_shards,
    )
    a = av.matrix  # canonical CSR (adjacency is always sparse storage)
    plan.halo = np.array(
        [halo_vertices(a, s.v0, s.v1) for s in shards], dtype=np.int64
    )
    return plan
