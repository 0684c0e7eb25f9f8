"""E2 — Fig. 2: density of the feature matrices across GCN stages.

Regenerates the paper's layer-stage density profile: input features,
after Update() of layer 1, after Aggregate()+sigma() of layer 1, after
Update() of layer 2, after Aggregate()+sigma() of layer 2 — the dynamic
sparsity that motivates runtime K2P mapping (intermediate densities are
unknown at compile time).
"""

from _common import (
    DATASETS,
    Metric,
    emit,
    format_table,
    get_dataset,
    register_bench,
)
from repro.gnn import build_model, init_weights
from repro.gnn.functional import layerwise_feature_densities


@register_bench("fig2_feature_density", tier="full", tags=("paper", "figure"))
def _spec():
    """Fig. 2: feature-matrix density per GCN stage."""
    emit("fig2_feature_density", build_table())
    # paper shape: the Update() densifies sparse inputs; stages differ
    # across layers (the reason static mapping is suboptimal)
    dens = {name: _stage_densities(name) for name in ("CI", "CO", "NE")}
    for name, stages in dens.items():
        assert stages[1] > stages[0], f"{name}: Update should densify sparse input"
    return {
        "density_L1_update_CI": Metric(
            "density_L1_update_CI", dens["CI"][1], "frac"
        ),
    }


def _stage_densities(name):
    """Feature density of a dataset at each GCN stage."""
    data = get_dataset(name)
    model = build_model(
        "GCN", data.num_features, data.hidden_dim, data.num_classes
    )
    stages = layerwise_feature_densities(
        model, data.a, data.h0, init_weights(model, seed=7)
    )
    return [d for _, d in stages]


def build_table():
    header = ["Dataset", "input", "L1 Update", "L1 Agg+sigma", "L2 Update",
              "L2 Agg"]
    rows = []
    for name in DATASETS:
        rows.append([name] + [f"{d:.3f}" for d in _stage_densities(name)])
    return format_table(
        header, rows,
        title="Fig. 2: feature-matrix density per GCN stage",
    )
