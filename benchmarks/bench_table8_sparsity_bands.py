"""E7 — Table VIII: geomean speedup per weight-sparsity band.

Aggregates the Fig. 11/12 sweep into the paper's four bands.  Paper
values: SO-S1 2.16x / 4.36x / 10.77x / 15.96x and SO-S2 1.38x / 1.64x /
2.11x / 5.03x for <50%, 50-70%, 70-90%, >90%.  Expected shape: both rows
increase monotonically across bands.
"""

from _common import (
    DATASETS,
    MODELS,
    Metric,
    emit,
    format_table,
    geomean,
    register_bench,
    run,
    speedup_fmt,
)

#: representative sparsity per band (paper sweeps continuously)
BANDS = {
    "<50%": (0, 30),
    "50-70%": (60,),
    "70-90%": (80,),
    ">90%": (95,),
}
PAPER = {
    "SO-S1": [2.16, 4.36, 10.77, 15.96],
    "SO-S2": [1.38, 1.64, 2.11, 5.03],
}


def band_geomeans(baseline):
    out = []
    for points in BANDS.values():
        ratios = []
        for model_name in MODELS:
            for ds in DATASETS:
                for s in points:
                    ratios.append(
                        run(model_name, ds, baseline, s, sweep=True).total_cycles
                        / run(model_name, ds, "Dynamic", s, sweep=True).total_cycles
                    )
        out.append(geomean(ratios))
    return out


def build_table():
    so_s1 = band_geomeans("S1")
    so_s2 = band_geomeans("S2")
    rows = [
        ["SO-S1 (measured)"] + [speedup_fmt(v) for v in so_s1],
        ["SO-S1 (paper)"] + [speedup_fmt(v) for v in PAPER["SO-S1"]],
        ["SO-S2 (measured)"] + [speedup_fmt(v) for v in so_s2],
        ["SO-S2 (paper)"] + [speedup_fmt(v) for v in PAPER["SO-S2"]],
    ]
    table = format_table(
        ["Sparsity of weights"] + list(BANDS), rows,
        title="Table VIII: average speedup (geometric mean) per sparsity band",
    )
    return table, so_s1, so_s2


#: modelled and seed-deterministic: the committed baseline is exact
_MEASURED = [f"{row}_band{b}" for row in ("so_s1", "so_s2") for b in range(len(BANDS))]


@register_bench(
    "table8_sparsity_bands", tier="full", tags=("paper", "table"),
    tolerances={name: 1e-9 for name in (*_MEASURED, "fidelity_ratio")},
)
def _spec():
    """Table VIII: geomean speedup per weight-sparsity band, each beside
    the paper's value (``paper_*``: constants, informational) and the
    geomean of measured / paper over the eight (``fidelity_ratio``: how
    far the reproduction is from the paper, 1.0 = on it)."""
    table, so_s1, so_s2 = build_table()
    emit("table8_sparsity_bands", table)
    # shape: speedups grow with weight sparsity for both baselines
    assert so_s1 == sorted(so_s1), f"SO-S1 bands not monotone: {so_s1}"
    assert so_s2 == sorted(so_s2), f"SO-S2 bands not monotone: {so_s2}"
    # and S1 (which exploits nothing) suffers more than S2 at high sparsity
    assert so_s1[-1] > so_s2[-1]
    measured = dict(zip(_MEASURED, (*so_s1, *so_s2)))
    paper = dict(zip(_MEASURED, (*PAPER["SO-S1"], *PAPER["SO-S2"])))
    metrics = {}
    for name, value in measured.items():
        metrics[name] = Metric(name, value, "x", "higher")
        metrics[f"paper_{name}"] = Metric(f"paper_{name}", paper[name], "x", "higher")
    metrics["fidelity_ratio"] = Metric(
        "fidelity_ratio",
        geomean(measured[name] / paper[name] for name in _MEASURED), "x", "higher",
    )
    return metrics
