"""Global hardware configuration for the Dynasparse accelerator model.

The paper implements Dynasparse on a Xilinx Alveo U250 with seven
Computation Cores (CC0-CC6), each an Agile Computation Module with a
``psys x psys`` ALU array (``psys = 16``) running at 250 MHz, a MicroBlaze
soft processor at 370 MHz (~500 MIPS), and four DDR4 channels with an
aggregate 77 GB/s of external-memory bandwidth (Table V, Section VII).

:class:`AcceleratorConfig` captures every architectural parameter the
simulator needs.  The default instance, :func:`u250_default`, matches the
paper's implementation.  All cycle accounting in :mod:`repro.hw` and all
analytical predictions in :mod:`repro.runtime.perf_model` read their
parameters from this object, so an experiment can change, say, ``psys`` or
``num_cores`` in one place and both the simulator and the analytical model
stay consistent.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BufferConfig:
    """On-chip buffer geometry of one Computation Core.

    Each core has four data buffers (BufferU, BufferO, BufferP, Result
    Buffer), each built from ``psys`` banks in the paper (Section V-B1);
    the model reads their capacity alone.  Double buffering duplicates
    each buffer so loading the next task's operands overlaps the current
    task's compute (Section V-B3).
    """

    #: capacity of a single buffer in 32-bit words
    words_per_buffer: int = 512 * 1024
    #: whether double buffering is enabled (paper: always on)
    double_buffering: bool = True

    def __post_init__(self) -> None:
        if self.words_per_buffer < 1:
            raise ValueError(
                f"words_per_buffer must be >= 1, got {self.words_per_buffer}"
            )

    @property
    def bytes_per_buffer(self) -> int:
        return self.words_per_buffer * 4


@dataclass(frozen=True)
class MemoryConfig:
    """External (DDR) memory model parameters.

    The U250 card exposes four DDR4 channels; the paper quotes 77 GB/s of
    sustained bandwidth (Table V).  ``bytes_per_cycle`` is derived at the
    accelerator clock: 77e9 / 250e6 = 308 bytes per accelerator cycle,
    shared by all Computation Cores.
    """

    bandwidth_gbps: float = 77.0
    num_channels: int = 4
    #: sustained PCIe bandwidth for host<->FPGA movement (Section VIII-D)
    pcie_gbps: float = 11.2

    def bytes_per_cycle(self, freq_hz: float) -> float:
        """Aggregate DDR bytes deliverable per accelerator clock cycle."""
        return self.bandwidth_gbps * 1e9 / freq_hz


@dataclass(frozen=True)
class SoftProcessorConfig:
    """MicroBlaze soft-processor cost model (Section VII).

    The runtime system (Analyzer + Scheduler) executes on this processor.
    The paper reports 370 MHz and ~500 MIPS; AXI-stream ``get``/``put``
    instructions take 1-2 cycles.  We charge a fixed instruction budget per
    K2P decision and per task dispatch, calibrated so the runtime overhead
    lands in the paper's reported range (~6.8% of total execution time,
    Fig. 13) before overlap is applied.
    """

    freq_hz: float = 370e6
    mips: float = 500e6
    #: instructions to run Algorithm 7 for one (Xit, Ytj) pair: two
    #: density loads (D-cache hits), min/max, threshold compares, a
    #: packed buffer-assignment store and loop bookkeeping — a hand-tuned
    #: inner loop on the MicroBlaze.  Calibrated so the runtime-system
    #: overhead fraction lands in Fig. 13's 5-20% band: the paper's
    #: measurement, not a count of ``candidate_cycles``' arithmetic (about
    #: 26 with the per-kernel constants hoisted; ROADMAP item 3).
    instructions_per_k2p_decision: int = 8
    #: instructions to handle a core interrupt and dispatch one task
    instructions_per_dispatch: int = 40
    #: cycles for one AXI-stream get/put transfer
    axi_get_put_cycles: int = 2
    i_cache_bytes: int = 32 * 1024
    d_cache_bytes: int = 64 * 1024

    @property
    def cycles_per_instruction(self) -> float:
        return self.freq_hz / self.mips

    def seconds_for_instructions(self, n_instr: float) -> float:
        return n_instr / self.mips


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full architectural description of a Dynasparse accelerator instance.

    Attributes mirror Section V/VII of the paper.  ``psys`` is the
    dimension of each core's ALU array; the three execution modes then
    deliver ``psys**2`` (GEMM), ``psys**2 / 2`` (SpDMM) and ``psys``
    (SPMM) multiply-accumulates per cycle (Table IV).
    """

    #: ALU-array dimension of one Computation Core
    psys: int = 16
    #: number of Computation Cores (U250: 2 per SLR x 4 SLRs minus one for
    #: the shell/soft processor = 7)
    num_cores: int = 7
    #: accelerator clock
    freq_hz: float = 250e6
    buffers: BufferConfig = field(default_factory=BufferConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    soft_processor: SoftProcessorConfig = field(default_factory=SoftProcessorConfig)
    #: load-balance factor: at least eta * num_cores tasks per kernel
    #: (Section VI-C; the paper sets eta = 4 following GPOP)
    eta: int = 4
    #: maximum data-partition dimension admitted by on-chip buffers
    #: (g(So) in Algorithm 9)
    max_partition_dim: int = 4096
    #: minimum data-partition dimension.  Algorithm 9's eta*N_CC task
    #: constraint would shrink partitions of small graphs to a few ALU
    #: widths, exploding the K2P decision count far beyond what the
    #: soft processor can sustain (and beyond the paper's own reported
    #: small-graph latencies).  The floor keeps each partition at least a
    #: few systolic passes deep; the A4 ablation sweeps it.
    min_partition_dim: int = 1024
    #: cycles to switch a core's execution mode (Section V-B1: one cycle)
    mode_switch_cycles: int = 1
    #: pipeline depth of the ALU array (systolic fill/drain overhead)
    pipeline_depth: int = 16

    def __post_init__(self) -> None:
        if self.psys < 2 or self.psys & (self.psys - 1):
            raise ValueError(f"psys must be a power of two >= 2, got {self.psys}")
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")

    # -- derived rates (Table IV) -------------------------------------
    @property
    def gemm_macs_per_cycle(self) -> int:
        return self.psys * self.psys

    @property
    def spdmm_macs_per_cycle(self) -> float:
        return self.psys * self.psys / 2

    @property
    def spmm_macs_per_cycle(self) -> int:
        return self.psys

    @property
    def peak_tflops(self) -> float:
        """Peak throughput in TFLOPS (2 FLOPs per MAC, all cores, GEMM)."""
        return 2 * self.gemm_macs_per_cycle * self.num_cores * self.freq_hz / 1e12

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.freq_hz

    def cycles_to_ms(self, cycles: float) -> float:
        return 1e3 * cycles / self.freq_hz

    def replace(self, **kwargs) -> "AcceleratorConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    @functools.cached_property
    def fingerprint(self) -> str:
        """Stable identity of the configuration: its ``repr``, which
        enumerates every architectural parameter of this frozen tree of
        scalars.  Computed once per instance, so a program key costs an
        attribute read, not a hash of the whole tree."""
        return repr(self)


def u250_default() -> AcceleratorConfig:
    """The configuration the paper implements (Alveo U250, Section VII)."""
    return AcceleratorConfig()


def small_test_config(psys: int = 4, num_cores: int = 2) -> AcceleratorConfig:
    """A tiny configuration used by unit tests for fast, exact checks."""
    return AcceleratorConfig(
        psys=psys,
        num_cores=num_cores,
        buffers=BufferConfig(words_per_buffer=64 * 1024),
        max_partition_dim=512,
    )
