"""Hardware model of the Dynasparse accelerator (paper §V, §VII).

The simulator is *functional + cycle-level*: every primitive execution
computes the true matrix product (so GNN inference results are exact) and
simultaneously produces a cycle count derived from the microarchitecture:

- :mod:`repro.hw.gemm_unit` — GEMM mode, output-stationary systolic array,
  ``psys**2`` MACs/cycle;
- :mod:`repro.hw.spdmm_unit` — SpDMM mode, scatter-gather paradigm
  (Algorithm 5), ``psys**2 / 2`` MACs/cycle;
- :mod:`repro.hw.spmm_unit` — SPMM mode, row-wise product (Algorithm 6),
  ``psys`` MACs/cycle;
- :mod:`repro.hw.core` — a Computation Core tying the three modes to the
  Auxiliary Hardware Module (profiler, format/layout converters);
- :mod:`repro.hw.accelerator` — the full device: cores + external memory +
  soft processor;
- :mod:`repro.hw.buffers` — on-chip buffer capacity and ``g(So)``;
- :mod:`repro.hw.resources` — FPGA resource estimates (Fig. 9).

A hardware unit is the cycles it bills, and a core is the bills of a
kernel's pairs and tasks, taken all at once (``batch_pair_cycles``,
``batch_task_writeback``): the runtime has one execution path.  The
element-level simulators of the three modes, and the per-pair, per-task
core the batched bills replaced, live in the test suite as the oracles
these bills and :func:`repro.formats.csr.matmul` are held against.
"""

from repro.hw.report import CycleReport, Primitive
from repro.hw.core import ComputationCore
from repro.hw.accelerator import Accelerator
from repro.hw.resources import estimate_resources, ResourceReport

__all__ = [
    "CycleReport",
    "Primitive",
    "ComputationCore",
    "Accelerator",
    "estimate_resources",
    "ResourceReport",
]
