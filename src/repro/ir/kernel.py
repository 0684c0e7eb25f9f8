"""Kernel IR: the meta data of Table II.

Each node of the computation graph is one GNN kernel:

- **Aggregate** — ``H_out = A @ H_in`` (the aggregation operator is folded
  into the preprocessed adjacency operand: sum uses the raw/normalised
  adjacency, mean a row-normalised one, GIN adds ``(1 + eps) I``);
- **Update** — ``H_out = H_in @ W``, optionally followed by the layer's
  element-wise activation.

Operands are referenced *by name* into the compiled program's matrix
store (the simulated DDR): ``x_name @ y_name -> out_name``.  GraphSAGE's
root/neighbour branch pair is expressed with ``accumulate_into``: the
second branch's final Update accumulates onto the first branch's output,
exactly how the Result Buffer initialisation of Algorithm 4 supports it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class KernelType(enum.Enum):
    """Table II "Layer Type": Aggregate(0), Update(1)."""

    AGGREGATE = 0
    UPDATE = 1


class AggOp(enum.Enum):
    """Table II "Aggregation operator"."""

    SUM = "Sum"
    MEAN = "Mean"
    MAX = "Max"
    MIN = "Min"


class Activation(enum.Enum):
    """Table II "Activation type"."""

    NONE = "None"
    RELU = "ReLU"
    PRELU = "PReLU"


@dataclass
class KernelIR:
    """Meta data of one kernel in the IR (Table II).

    ``kernel_id`` is unique within a computation graph; ``layer_id``
    numbers GNN layers 1..L as in the paper.
    """

    kernel_id: str
    layer_id: int
    ktype: KernelType
    #: input feature dimension f_in
    input_dim: int
    #: output feature dimension f_out
    output_dim: int
    num_vertices: int
    num_edges: int
    #: name of the left operand in the matrix store (A or an H)
    x_name: str = ""
    #: name of the right operand (an H for Aggregate, a W for Update)
    y_name: str = ""
    #: name under which the output feature matrix is stored
    out_name: str = ""
    agg_op: AggOp = AggOp.SUM
    activation: Activation = Activation.NONE
    activation_enabled: bool = False
    #: when set, this kernel accumulates onto an existing matrix
    #: (GraphSAGE branch combination)
    accumulate_into: Optional[str] = None
    #: meta data of the execution scheme, filled by the compiler
    #: (an ExecutionScheme; kept untyped here to avoid a cyclic import)
    exec_scheme: Optional[object] = None

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("kernel dimensions must be positive")
        if self.num_vertices < 1:
            raise ValueError("num_vertices must be positive")
        if not self.kernel_id:
            raise ValueError("kernel_id must be non-empty")

    @property
    def workload(self) -> int:
        """``Q`` of Algorithm 9: output elements |V| * f_out."""
        return self.num_vertices * self.output_dim

    def describe(self) -> str:
        act = f" + {self.activation.value}" if self.activation_enabled else ""
        return (
            f"[{self.kernel_id}] L{self.layer_id} {self.ktype.name}"
            f"({self.x_name} @ {self.y_name} -> {self.out_name})"
            f" {self.input_dim}->{self.output_dim}{act}"
        )
