"""The compiler façade: model + graph -> CompiledProgram (paper §IV).

:class:`Compiler.compile` performs the paper's preprocessing pipeline and
*times each phase* (wall clock) so the Table IX experiment reports honest
measured numbers:

1. **Parse** — materialise the preprocessed adjacency operands;
2. **Partition** — lower the model to the IR computation graph,
   Algorithm 9 picks ``(N1, N2)``, and every kernel gets its execution
   scheme (Algorithms 2/3): :meth:`Compiler.lower`, which a program patch
   re-runs as its staleness check;
3. **Profile** — partition every compile-time-known matrix the way the
   schemes read it, counting nonzeros per partition (§III-B); a matrix's
   profile and off-chip storage format follow from that census's total.

The :class:`CompiledProgram` is the "optimized IR" of Fig. 3: kernels in
topological order with schemes attached, a matrix store modelling DDR
contents, per-matrix profiles, and the partitioned views the runtime
reads (views are index arithmetic in hardware; here they carry the
per-block nonzero grids).  A compiled program, and a patched one, holds
the view of every ``(stored operand, blocking)`` its kernels read: no
stored operand is scanned after compile time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional


from repro.config import AcceleratorConfig, u250_default
from repro.compiler.parser import parse_model
from repro.compiler.partitioner import choose_partition_sizes
from repro.compiler.sparsity import profile_of
from repro.datasets.catalog import GraphData
from repro.formats.partition import PartitionedMatrix
from repro.gnn.adjacency import build_adjacency_variants
from repro.gnn.models import ModelSpec, init_weights
from repro.ir.graph import ComputationGraph
from repro.ir.scheme import build_scheme


@dataclass(frozen=True)
class CompileTimings:
    """Wall-clock seconds of each compiler phase (Table IX)."""

    parse_s: float
    partition_s: float
    profile_s: float

    @property
    def total_s(self) -> float:
        return self.parse_s + self.partition_s + self.profile_s

    @property
    def total_ms(self) -> float:
        return 1e3 * self.total_s


@dataclass
class CompiledProgram:
    """The optimized IR plus the simulated DDR contents."""

    model: ModelSpec
    data_name: str
    graph: ComputationGraph
    n1: int
    n2: int
    #: matrix store: name -> csr_matrix | ndarray (the DDR image)
    store: dict
    #: name -> :class:`~repro.compiler.sparsity.MatrixProfile`
    profiles: dict
    timings: CompileTimings
    config: AcceleratorConfig
    output_name: str = "H_out"
    #: (name, block_rows, block_cols) -> view, filled at compile time
    _views: dict = field(default_factory=dict, repr=False)
    #: recorded executions, (strategy, shards) -> the result object, written
    #: by ``Engine.execute`` alone and replayed by the serve path.  They
    #: live and die with the program: a patch builds a new program and so
    #: starts with none, eviction drops both
    _runs: dict = field(default_factory=dict, repr=False)
    #: the lineage table: (kernel id, strategy name) -> the finalized,
    #: read-only ``KernelAssembly`` of a graph-independent kernel
    #: (:meth:`graph_independent`), filled and read by the serve path's runs
    #: of a registered graph's programs alone.  A patch that leaves the
    #: features hands it on by reference; a compile, a recompile or a
    #: feature delta starts it empty
    _lineage: dict = field(default_factory=dict, repr=False)

    @property
    def stored_sparse(self) -> dict:
        """Off-chip storage format per matrix: name -> stored sparse?"""
        return {name: p.stored_sparse for name, p in self.profiles.items()}

    def view(self, name: str, block_rows: int, block_cols: int) -> PartitionedMatrix:
        """Partitioned view of a stored matrix: the one the compiler
        censused, or a re-blocking scanned on first ask and kept."""
        key = (name, block_rows, block_cols)
        pm = self._views.get(key)
        if pm is None:
            pm = PartitionedMatrix(self.store[name], block_rows, block_cols, name=name)
            self._views[key] = pm
        return pm

    def graph_independent(self) -> set[str]:
        """Ids of the kernels none of whose inputs is, directly or through
        another kernel, an adjacency operand: their products are the same
        on every graph of the lineage that shares the features."""
        reached = set(self.model.adjacency_names())
        independent = set()
        for kernel in self.graph.topo_order():
            if reached.isdisjoint((kernel.x_name, kernel.y_name, kernel.accumulate_into)):
                independent.add(kernel.kernel_id)
            else:
                reached.add(kernel.out_name)
        return independent

    def input_bytes(self) -> int:
        """Bytes moved host->FPGA before execution (adjacency, weights,
        input features, IR) in their chosen storage formats (§VIII-D)."""
        return sum(p.stored_bytes for p in self.profiles.values())

    @property
    def num_kernels(self) -> int:
        return len(self.graph)

    def describe(self) -> str:
        lines = [
            f"CompiledProgram({self.model.name} on {self.data_name}): "
            f"{self.num_kernels} kernels, N1={self.n1}, N2={self.n2}",
            self.graph.describe(),
        ]
        return "\n".join(lines)


class Compiler:
    """Host-side compiler (Fig. 4, left)."""

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or u250_default()

    def compile(
        self,
        model: ModelSpec,
        data: GraphData,
        weights: Optional[dict] = None,
        *,
        seed: int = 0,
    ) -> CompiledProgram:
        """Run the full preprocessing pipeline (§IV-B)."""
        if weights is None:
            weights = init_weights(model, seed=seed)
        expected = model.weight_shapes()
        for name, shape in expected.items():
            if name not in weights:
                raise KeyError(f"missing weight matrix {name!r}")
            if tuple(weights[name].shape) != shape:
                raise ValueError(
                    f"weight {name!r} has shape {weights[name].shape}, "
                    f"expected {shape}"
                )
        if model.in_dim != data.h0.shape[1]:
            raise ValueError(
                f"model expects {model.in_dim} input features, dataset has "
                f"{data.h0.shape[1]}"
            )

        # ---- step 1: adjacency preprocessing ----
        t0 = time.perf_counter()
        adjacency = build_adjacency_variants(data.a, model.adjacency_names())
        t1 = time.perf_counter()

        # ---- step 2: IR generation, data partitioning, execution schemes ----
        graph, n1, n2 = self.lower(model, data.meta())
        t2 = time.perf_counter()

        # ---- step 3: per-partition census, profiles, storage formats ----
        program = CompiledProgram(
            model=model,
            data_name=data.name,
            graph=graph,
            n1=n1,
            n2=n2,
            store={"H0": data.h0, **adjacency, **weights},
            profiles={},
            timings=CompileTimings(t1 - t0, t2 - t1, profile_s=0.0),
            config=self.config,
        )
        for kernel in graph.topo_order():
            scheme = kernel.exec_scheme
            for name, blocking in (
                (kernel.x_name, scheme.x_blocking),
                (kernel.y_name, scheme.y_blocking),
            ):
                if name in program.store:
                    view = program.view(name, *blocking)
                    program.profiles[name] = profile_of(name, view.shape, view.nnz)
        program.timings = replace(
            program.timings, profile_s=time.perf_counter() - t2
        )
        return program

    def lower(self, model: ModelSpec, meta) -> tuple[ComputationGraph, int, int]:
        """The IR computation graph of ``model`` on a graph with metadata
        ``meta``, Algorithm 9's ``(N1, N2)`` for it, and every kernel's
        execution scheme attached.  No matrix is read: a patch lowers the
        mutated metadata again and is stale when ``(N1, N2)`` moved."""
        graph = parse_model(model, meta)
        kernels = graph.topo_order()
        n1, n2 = choose_partition_sizes(kernels, self.config)
        for kernel in kernels:
            kernel.exec_scheme = build_scheme(kernel, n1, n2)
        return graph, n1, n2
