"""Roofline latency models of PyG / DGL on CPU and GPU (paper Fig. 14).

What these frameworks exploit and what they don't (§VIII-D): they run the
Aggregate kernel as CSR SpMM — exploiting *graph* sparsity — but execute
Update as a dense GEMM and never exploit feature or weight sparsity.  The
models therefore charge:

- **Update**: ``2 |V| f_in f_out`` FLOPs at the platform's GEMM
  efficiency, rooflined against moving the three dense matrices;
- **Aggregate**: ``2 nnz(A) f`` FLOPs at a (much lower) SpMM efficiency,
  rooflined against the irregular-gather traffic;
- a per-kernel framework overhead (kernel launch, glue, format checks) —
  the term that dominates on the small Planetoid graphs and explains why a
  250 MHz FPGA beats a 36 TFLOP GPU there.

Efficiency/overhead constants are calibrated to land the published
speedup magnitudes (Fig. 14's geomeans); absolute times on the authors'
testbed are not reproducible without the hardware, but the *shape* — CPU
≫ GPU ≫ Dynasparse latency, DGL-CPU ~2x faster than PyG-CPU, DGL-GPU
slower than PyG-GPU on small graphs, OOM on NELL-on-GPU — follows from
the structure above.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.baselines.platforms import PLATFORMS, PlatformSpec
from repro.datasets.catalog import GraphData
from repro.gnn.models import ModelSpec
from repro.ir.kernel import KernelIR, KernelType


class OutOfMemoryError(RuntimeError):
    """The modelled platform cannot hold the working set (Fig. 14 N/A)."""


@dataclass(frozen=True)
class FrameworkModel:
    """One framework x platform roofline model."""

    name: str
    platform: PlatformSpec
    #: fraction of peak achieved on dense GEMM
    gemm_efficiency: float
    #: fraction of peak achieved on CSR SpMM (compute side)
    spmm_efficiency: float
    #: fraction of peak memory bandwidth achieved on irregular access
    mem_efficiency: float
    #: fixed per-kernel framework overhead (launch/dispatch/glue), seconds
    kernel_overhead_s: float

    # -- working-set estimate ------------------------------------------------
    def working_set_bytes(self, model: ModelSpec, data: GraphData) -> int:
        v = data.num_vertices
        fmax = max(
            [model.in_dim]
            + [layer.out_dim for layer in model.layers]
        )
        # input + two live intermediates (all dense in-framework) + graph
        dense = 3 * 4 * v * fmax
        graph = 12 * data.num_edges
        weights = sum(
            4 * shp[0] * shp[1] for shp in model.weight_shapes().values()
        )
        return dense + graph + weights

    def check_memory(self, model: ModelSpec, data: GraphData) -> None:
        cap = self.platform.memory_gb
        if cap is not None and self.working_set_bytes(model, data) > cap * 1e9:
            raise OutOfMemoryError(
                f"{self.name}: working set exceeds {cap} GB on {data.name}"
            )

    # -- per-kernel latency -----------------------------------------------------
    def kernel_seconds(self, kernel: KernelIR, data: GraphData) -> float:
        p = self.platform
        v = kernel.num_vertices
        if kernel.ktype is KernelType.UPDATE:
            macs = v * kernel.input_dim * kernel.output_dim
            compute = macs / (p.peak_macs_per_s * self.gemm_efficiency)
            traffic = 4 * (
                v * kernel.input_dim
                + kernel.input_dim * kernel.output_dim
                + v * kernel.output_dim
            )
            mem = traffic / (p.mem_bw_gbps * 1e9)
        else:
            nnz = data.num_edges
            macs = nnz * kernel.output_dim
            compute = macs / (p.peak_macs_per_s * self.spmm_efficiency)
            # gather: per nonzero one row of f values read + index traffic,
            # output written once
            traffic = 4 * (nnz * 2 + v * kernel.output_dim * 2)
            mem = traffic / (p.mem_bw_gbps * 1e9 * self.mem_efficiency)
        return max(compute, mem) + self.kernel_overhead_s

    def latency_seconds(self, model: ModelSpec, data: GraphData) -> float:
        """End-to-end model inference latency (execution only)."""
        self.check_memory(model, data)
        from repro.gnn.layers import GraphMeta

        meta = GraphMeta(data.num_vertices, data.num_edges)
        return sum(
            self.kernel_seconds(k, data) for k in model.expand_kernels(meta)
        )


@dataclass(frozen=True)
class RooflineResult:
    """Latency estimate from an analytical (roofline) backend."""

    backend: str
    framework: str
    model_name: str
    data_name: str
    latency_s: float

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    def format_report(self) -> str:
        return (
            f"{self.model_name} on {self.data_name} — backend {self.backend}\n"
            f"  latency           : {self.latency_ms:.4f} ms\n"
            f"  framework model   : {self.framework} (roofline estimate; the "
            f"mapping strategy does not apply)"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (``repro run --backend cpu|gpu --json``)."""
        return {
            "model": self.model_name,
            "dataset": self.data_name,
            "backend": self.backend,
            "framework": self.framework,
            "latency_ms": self.latency_s * 1e3,
        }


#: Efficiency calibration: published profiling of PyG/DGL full-graph
#: inference shows gather/scatter aggregation sustaining only a few
#: percent of peak bandwidth (PyG's index_select/scatter_add path is the
#: worst; DGL's fused g-SpMM roughly doubles it), while the dense Update
#: GEMM reaches ~half of peak through vendor BLAS.  These constants place
#: the models in that regime; they are documented inputs, not
#: measurements (EXPERIMENTS.md).
FRAMEWORKS: dict[str, FrameworkModel] = {
    "PyG-CPU": FrameworkModel(
        "PyG-CPU", PLATFORMS["cpu"],
        gemm_efficiency=0.45, spmm_efficiency=0.004, mem_efficiency=0.02,
        kernel_overhead_s=400e-6,
    ),
    "DGL-CPU": FrameworkModel(
        "DGL-CPU", PLATFORMS["cpu"],
        gemm_efficiency=0.45, spmm_efficiency=0.01, mem_efficiency=0.045,
        kernel_overhead_s=180e-6,
    ),
    "PyG-GPU": FrameworkModel(
        "PyG-GPU", PLATFORMS["gpu"],
        gemm_efficiency=0.55, spmm_efficiency=0.002, mem_efficiency=0.005,
        kernel_overhead_s=35e-6,
    ),
    "DGL-GPU": FrameworkModel(
        "DGL-GPU", PLATFORMS["gpu"],
        gemm_efficiency=0.55, spmm_efficiency=0.004, mem_efficiency=0.01,
        kernel_overhead_s=80e-6,
    ),
}


def framework_latency(
    framework: str, model: ModelSpec, data: GraphData
) -> float | None:
    """Latency in seconds, or None when the platform runs out of memory."""
    fw = FRAMEWORKS[framework]
    try:
        return fw.latency_seconds(model, data)
    except OutOfMemoryError:
        return None
