"""E11 — Table X: comparison with BoostGCN and HyGCN (GCN model).

Both baselines use the S1 static mapping on their own platforms (modelled
rooflines; Table V/X specs).  Paper: Dynasparse 2.7x over BoostGCN and
171x over HyGCN on average, despite 1.25x/9x lower peak performance;
N/A entries mirrored (BoostGCN: NELL; HyGCN: Flickr, NELL).
"""

from _common import (
    DATASETS,
    Metric,
    emit,
    format_table,
    geomean,
    get_dataset,
    register_bench,
    run,
    sci,
    speedup_fmt,
)
from repro import build_model
from repro.baselines import accelerator_latency

PAPER = {
    "BoostGCN": [1.9e-2, 2.5e-2, 1.6e-1, 4.0e1, None, 1.9e2],
    "HyGCN": [2.1e-2, 3e-1, 6.4e1, None, None, 2.9e2],
    "Dynasparse": [7.7e-3, 4.7e-3, 6.3e-2, 8.8e0, 2.9e0, 1.0e2],
}


def collect():
    rows = []
    speedups = {"BoostGCN": [], "HyGCN": []}
    for ds in DATASETS:
        data = get_dataset(ds)
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        dyn = run("GCN", ds, "Dynamic")
        row = [ds, sci(dyn.latency_ms)]
        for name in ("BoostGCN", "HyGCN"):
            t = accelerator_latency(name, model, data)
            if t is None:
                row += ["N/A", "N/A"]
            else:
                ratio = t * 1e3 / dyn.latency_ms
                speedups[name].append(ratio)
                row += [sci(t * 1e3), speedup_fmt(ratio)]
        rows.append(row)
    return rows, speedups


def build_table():
    rows, speedups = collect()
    rows.append(
        ["geomean", "",
         "", speedup_fmt(geomean(speedups["BoostGCN"])),
         "", speedup_fmt(geomean(speedups["HyGCN"]))]
    )
    rows.append(["paper", "", "", "2.7x", "", "171x"])
    table = format_table(
        ["Dataset", "Dynasparse (ms)", "BoostGCN (ms)", "speedup",
         "HyGCN (ms)", "speedup"],
        rows,
        title="Table X: accelerator execution latency vs GNN accelerators (GCN)",
    )
    return table, speedups


@register_bench("table10_accelerators", tier="full", tags=("paper", "table"))
def _spec():
    """Table X: speedup vs BoostGCN / HyGCN rooflines (GCN)."""
    table, speedups = build_table()
    emit("table10_accelerators", table)
    # shapes: Dynasparse wins on average against both, HyGCN worse than
    # BoostGCN, and the N/A pattern matches the paper
    assert geomean(speedups["BoostGCN"]) > 1.0
    assert geomean(speedups["HyGCN"]) > geomean(speedups["BoostGCN"])
    data = get_dataset("NE")
    model = build_model("GCN", data.num_features, data.hidden_dim,
                        data.num_classes)
    assert accelerator_latency("BoostGCN", model, data) is None
    assert accelerator_latency("HyGCN", model, data) is None
    return {
        "geomean_boostgcn": Metric(
            "geomean_boostgcn", geomean(speedups["BoostGCN"]), "x", "higher"
        ),
        "geomean_hygcn": Metric(
            "geomean_hygcn", geomean(speedups["HyGCN"]), "x", "higher"
        ),
    }
