"""E15 — §IX future work: heterogeneous CPU+GPU+FPGA execution.

The paper's conclusion sketches a platform where "GPU is effective for
dense primitives, FPGA is effective for sparse primitives and the CPU can
execute complex control flow".  This bench prices that split with the
repo's heterogeneous runtime and reports when it pays off: dense-feature
workloads (Reddit) route their GEMM pairs to the GPU and win; sparse
workloads (CiteSeer, NELL) stay on the FPGA and see no benefit — i.e.
the value of the heterogeneous extension *is itself sparsity-dependent*.
"""

from _common import Metric, emit, format_table, get_program, register_bench, speedup_fmt
from repro.hetero import HeterogeneousRuntime


@register_bench("hetero_future_work", tier="full", tags=("hetero",))
def _spec():
    """§IX future work: heterogeneous CPU+GPU+FPGA vs FPGA-only."""
    table, gains = build_table()
    emit("hetero_future_work", table)
    # dense-feature Reddit gains from GPU routing; hetero never loses
    assert gains["RE"][0] > 1.5
    for ds, (gain, _) in gains.items():
        assert gain > 0.9, f"hetero should not lose on {ds}: {gain:.2f}"
    # sparse CiteSeer keeps most pairs on the FPGA
    het_ci = gains["CI"][1]
    assert het_ci.device_pairs["FPGA"] >= het_ci.device_pairs.get("GPU", 0)
    return {
        "gain_re": Metric("gain_re", gains["RE"][0], "x", "higher"),
        "gain_ci": Metric("gain_ci", gains["CI"][0], "x", "higher"),
    }


def build_table():
    rt = HeterogeneousRuntime()
    rows = []
    gains = {}
    for ds in ("CI", "CO", "PU", "FL", "NE", "RE"):
        program = get_program("GCN", ds)
        het = rt.run(program)
        fpga = rt.run_fpga_only(program)
        gain = fpga.total_seconds / het.total_seconds
        gains[ds] = (gain, het)
        rows.append([
            ds,
            f"{fpga.latency_ms:.4f}",
            f"{het.latency_ms:.4f}",
            speedup_fmt(gain),
            het.device_pairs.get("GPU", 0),
            het.device_pairs.get("FPGA", 0),
            f"{het.transfer_seconds * 1e3:.4f}",
        ])
    table = format_table(
        ["Dataset", "FPGA-only (ms)", "hetero (ms)", "gain",
         "GPU pairs", "FPGA pairs", "PCIe (ms)"],
        rows,
        title="SIX future work: heterogeneous CPU+GPU+FPGA vs FPGA-only (GCN)",
    )
    return table, gains
