"""E6 — Fig. 12: speedup of Dynamic over S2 vs. weight sparsity.

S2 (the AWB-GCN mapping) runs everything as SpDMM with the left operand
sparse; it exploits feature sparsity but not weight sparsity, and it
wastes 2x on dense Updates.  Expected shape: speedups above 1 that grow
with weight sparsity (paper Table VIII: 1.38x -> 5.03x across bands).
"""

from _common import DATASETS, MODELS, Metric, emit, register_bench, run
from bench_fig11_speedup_s1 import _band_geomeans, build_table, series


@register_bench("fig12_speedup_s2", tier="full", tags=("paper", "figure"))
def _spec():
    """Fig. 12: speedup of Dynamic over S2 vs weight sparsity."""
    emit("fig12_speedup_s2", build_table(baseline="S2"))
    grow = total = 0
    for model_name in MODELS:
        data = series(model_name, baseline="S2")
        for ds in DATASETS:
            total += 1
            if data[ds][-1] >= data[ds][0] * 0.99:
                grow += 1
            # Dynamic never meaningfully loses to S2
            assert min(data[ds]) > 0.9, (model_name, ds, data[ds])
    assert grow >= 0.7 * total, f"only {grow}/{total} series grow"
    # on Reddit (100%-dense H0) S2's Update-as-SpDMM pays the 2x MAC
    # throughput penalty, so Dynamic wins even with no pruning
    re_penalty = (run("GCN", "RE", "S2", 0, sweep=True).total_cycles
                  / run("GCN", "RE", "Dynamic", 0, sweep=True).total_cycles)
    assert re_penalty > 1.05, f"GCN/RE unpruned: {re_penalty:.2f}x"
    lo, hi = _band_geomeans("S2")
    return {
        "geomean_unpruned": Metric("geomean_unpruned", lo, "x", "higher"),
        "geomean_95pct": Metric("geomean_95pct", hi, "x", "higher"),
    }
