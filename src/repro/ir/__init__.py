"""Intermediate representation of GNN inference (paper §IV-A).

The compiler lowers a GNN model + graph metadata into a
:class:`~repro.ir.graph.ComputationGraph` whose nodes are
:class:`~repro.ir.kernel.KernelIR` objects (Table II) — one per Aggregate
or Update kernel — and whose edges are data dependencies.  After data
partitioning, each kernel carries an
:class:`~repro.ir.scheme.ExecutionScheme` describing its decomposition
into independent tasks (Algorithms 2-4), one
:class:`~repro.ir.scheme.TaskBatch` of them.
"""

from repro.ir.kernel import KernelIR, KernelType, AggOp, Activation
from repro.ir.graph import ComputationGraph
from repro.ir.scheme import ExecutionScheme

__all__ = [
    "KernelIR",
    "KernelType",
    "AggOp",
    "Activation",
    "ComputationGraph",
    "ExecutionScheme",
]
