"""A5 — ablation: ALU-array dimension psys.

psys moves three things at once: mode throughputs (p^2 / p^2/2 / p), the
SpDMM-vs-SPMM crossover (alpha_max = 2/psys), and FPGA resources
(Fig. 9).  The paper picks psys = 16 — the largest value for which seven
CCs fit the U250.  This bench sweeps psys and reports latency, primitive
mix and resource feasibility.
"""

from _common import Metric, emit, engine_for, format_table, get_dataset, register_bench
from repro import estimate_resources, u250_default
from repro.hw.report import Primitive


def sweep():
    data = get_dataset("CI")
    rows = []
    for psys in (8, 16, 32):
        cfg = u250_default().replace(psys=psys)
        engine = engine_for(cfg)
        handle = engine.compile("GCN", data, seed=7)
        res = engine.infer(handle)
        prims = res.primitive_totals
        fits = estimate_resources(cfg).fits
        rows.append(
            (psys, res.latency_ms, prims.get(Primitive.SPDMM, 0),
             prims.get(Primitive.SPMM, 0), 2.0 / psys, fits)
        )
    return rows


def _table(rows):
    return format_table(
        ["psys", "latency (ms)", "SpDMM pairs", "SPMM pairs",
         "SPMM threshold", "7 CCs fit U250"],
        [[p, f"{lat:.4f}", sd, sm, f"{thr:.4f}", fits]
         for p, lat, sd, sm, thr, fits in rows],
        title="A5: psys sweep (GCN on CiteSeer)",
    )


@register_bench("ablation_psys", tier="full", tags=("ablation",))
def _spec():
    """A5: psys ALU-array dimension sweep (modelled cycles, deterministic)."""
    rows = sweep()
    emit("ablation_psys", _table(rows))
    by_p = {r[0]: r for r in rows}
    # bigger arrays are faster (more MACs/cycle)
    assert by_p[16][1] <= by_p[8][1]
    # but psys = 32 does not fit the U250 with 7 CCs (paper's design point)
    assert by_p[16][5] and not by_p[32][5]
    return {
        "latency_p16_ms": Metric("latency_p16_ms", by_p[16][1], "model-ms"),
        "speedup_p16_vs_p8": Metric(
            "speedup_p16_vs_p8", by_p[8][1] / by_p[16][1], "x", "higher"
        ),
    }
