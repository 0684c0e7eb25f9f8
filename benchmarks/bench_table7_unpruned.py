"""E4 — Table VII: latency of S1 / S2 / Dynamic on unpruned models.

The paper's headline strategy comparison: for each of the four GNN models
and six datasets, run the three kernel-to-primitive mapping strategies on
the same simulated accelerator and report latency plus the speedup of
Dynamic over each static mapping (SO-S1, SO-S2).  Paper values are shown
alongside for shape comparison; geometric means reproduce the "2.13x /
1.59x average" claim's structure.
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
    sci,
    speedup_fmt,
)

#: paper Table VII Dynamic latencies (ms) per model, for side-by-side shape
PAPER_DYNAMIC = {
    "GCN": [7.7e-3, 4.7e-3, 6.3e-2, 8.8e0, 2.9e0, 8.4e1],
    "GraphSAGE": [33e-2, 11e-2, 42e-2, 19e0, 83e1, 331e0],
    "GIN": [3.3e-1, 1.1e-1, 3.7e-1, 1.2e1, 8.3e2, 2.7e2],
    "SGC": [4.3e-1, 1.5e-1, 5.1e-1, 1.27e-1, 8.83e2, 5.0e2],
}
PAPER_SO_S1 = {
    "GCN": [41.3, 21.5, 4.29, 1.13, 278, 1.10],
    "GraphSAGE": [1.93, 1.72, 1.56, 1.02, 2.05, 1.01],
    "GIN": [1.30, 1.40, 1.11, 1.13, 1.06, 1.15],
    "SGC": [1.23, 1.27, 1.08, 1.02, 1.06, 1.13],
}
PAPER_SO_S2 = {
    "GCN": [1.15, 1.19, 1.12, 1.11, 1.82, 1.42],
    "GraphSAGE": [1.94, 1.73, 1.65, 1.41, 2.05, 1.17],
    "GIN": [2.26, 2.31, 1.76, 1.73, 2.05, 1.25],
    "SGC": [1.95, 1.91, 1.55, 1.72, 1.99, 1.19],
}


def collect(model_name):
    cells = {}
    for ds in DATASETS:
        for strat in ("S1", "S2", "Dynamic"):
            cells[(ds, strat)] = run(model_name, ds, strat)
    return cells


def build_tables():
    blocks = []
    so_s1_all, so_s2_all = [], []
    for model_name in MODELS:
        cells = collect(model_name)
        rows = []
        for label in ("S1", "S2", "Dynamic"):
            rows.append(
                [label] + [sci(cells[(ds, label)].latency_ms) for ds in DATASETS]
            )
        so_s1 = [
            cells[(ds, "S1")].total_cycles / cells[(ds, "Dynamic")].total_cycles
            for ds in DATASETS
        ]
        so_s2 = [
            cells[(ds, "S2")].total_cycles / cells[(ds, "Dynamic")].total_cycles
            for ds in DATASETS
        ]
        so_s1_all += so_s1
        so_s2_all += so_s2
        rows.append(["SO-S1"] + [speedup_fmt(v) for v in so_s1])
        rows.append(["SO-S2"] + [speedup_fmt(v) for v in so_s2])
        rows.append(
            ["paper Dyn"] + [sci(v) for v in PAPER_DYNAMIC[model_name]]
        )
        rows.append(
            ["paper SO-S1"] + [speedup_fmt(v) for v in PAPER_SO_S1[model_name]]
        )
        rows.append(
            ["paper SO-S2"] + [speedup_fmt(v) for v in PAPER_SO_S2[model_name]]
        )
        blocks.append(
            format_table(
                [model_name] + list(DATASETS), rows,
                title=f"Table VII ({model_name}): latency (ms) on unpruned models",
            )
        )
    summary = format_table(
        ["geomean", "measured", "paper"],
        [
            ["SO-S1", speedup_fmt(geomean(so_s1_all)), "2.13x"],
            ["SO-S2", speedup_fmt(geomean(so_s2_all)), "1.59x"],
        ],
        title="Table VII summary: average speedup of Dynamic over static",
    )
    blocks.append(summary)
    return "\n\n".join(blocks), so_s1_all, so_s2_all


@register_bench("table7_unpruned", tier="full", tags=("paper", "table"))
def _spec():
    """Table VII: S1/S2/Dynamic latency on unpruned models."""
    table, so_s1, so_s2 = build_tables()
    emit("table7_unpruned", table)
    # shape claims: Dynamic never loses to a static strategy by more than
    # the model-vs-exact-cycle slack (the Analyzer decides on the
    # idealised Table IV model; the simulator charges exact tiled cycles)
    assert min(so_s1) > 0.9
    assert min(so_s2) > 0.9
    # average speedups are real (>1) and S1 suffers more than S2 overall
    assert geomean(so_s1) > 1.15
    assert geomean(so_s2) > 1.0
    assert geomean(so_s1) > geomean(so_s2)
    # the paper's sharpest shape: S1 collapses on GCN when H0 is sparse
    # (CI/CO/NE) because Update(H0, W1) runs as dense GEMM
    blowup = {ds: run("GCN", ds, "S1").total_cycles
              / run("GCN", ds, "Dynamic").total_cycles
              for ds in ("CI", "CO", "NE")}
    for ds, ratio in blowup.items():
        assert ratio > 2.0, f"SO-S1 on GCN/{ds} should be large, got {ratio:.2f}"
    # NELL (61k-dim, 0.01%-dense features) is the paper's most extreme
    # case (278x); at the default bench profile its feature dimension is
    # capped, so it need only stay in the blow-up club, not dominate it
    assert blowup["NE"] > 4.0
    return {
        "so_s1_geomean": Metric("so_s1_geomean", geomean(so_s1), "x", "higher"),
        "so_s2_geomean": Metric("so_s2_geomean", geomean(so_s2), "x", "higher"),
    }
