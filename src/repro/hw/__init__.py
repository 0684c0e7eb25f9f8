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

A hardware unit is the cycles it bills.  A functional model of one stays
only where a test holds a billed formula against it: each of the three
mode modules ships a *faithful* element-level simulator (``run_*_faithful``)
that the test suite checks the closed-form ``*_compute_cycles`` and
``spmm_workloads`` against, by a direct execution of the paper's
algorithm.  The buffers' banks and the shuffle networks' butterflies have
no such model: no bill reads them.
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
