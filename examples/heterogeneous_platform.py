#!/usr/bin/env python
"""Heterogeneous execution (§IX future work): CPU + GPU + FPGA.

Prices the paper's proposed heterogeneous platform — GEMM-mapped pairs on
a GPU model, SpDMM/SPMM on the simulated FPGA, K2P control flow on the
host — against FPGA-only execution, across the dataset sparsity spectrum.
"""

from repro import Engine
from repro.harness import format_table, speedup_fmt
from repro.hetero import HeterogeneousRuntime

CONFIGS = [("CI", 0.5), ("PU", 0.5), ("FL", 0.1), ("RE", 0.02)]


def main() -> None:
    engine = Engine()
    # the "hetero" backend prices GEMM pairs on the GPU model and sparse
    # pairs on the FPGA; the runtime also offers the FPGA-only baseline
    rt = HeterogeneousRuntime()
    rows = []
    for ds, scale in CONFIGS:
        handle = engine.compile("GCN", ds, scale=scale, seed=0)
        het = engine.infer(handle, backend="hetero")
        fpga = rt.run_fpga_only(handle.program)
        rows.append([
            f"{ds} (x{scale})",
            f"{fpga.latency_ms:.4f}",
            f"{het.latency_ms:.4f}",
            speedup_fmt(fpga.total_seconds / het.total_seconds),
            het.device_pairs.get("GPU", 0),
            het.device_pairs.get("FPGA", 0),
        ])
    print(format_table(
        ["dataset", "FPGA-only (ms)", "CPU+GPU+FPGA (ms)", "gain",
         "GPU pairs", "FPGA pairs"],
        rows,
        title="Heterogeneous platform (paper SIX): who benefits?",
    ))
    print("\nDense-feature graphs (Reddit) route their GEMM work to the "
          "GPU and win;\nsparse graphs stay on the FPGA — the value of "
          "heterogeneity is itself sparsity-dependent.")


if __name__ == "__main__":
    main()
