"""E1 — Fig. 1: density of the graph adjacency matrix A.

The paper's Fig. 1 plots the (very low) densities of the six adjacency
matrices and visualises their block structure.  We reproduce the density
series and the block-density spread (min / median / max over N1 x N1
partitions) that motivates fine-grained mapping.
"""

import numpy as np

from _common import DATASETS, Metric, emit, format_table, get_dataset, register_bench
from repro.formats.density import density
from repro.formats.partition import PartitionedMatrix


@register_bench("fig1_adjacency_density", tier="full", tags=("paper", "figure"))
def _spec():
    """Fig. 1: adjacency density and per-block spread."""
    emit("fig1_adjacency_density", build_table())
    # every adjacency is extremely sparse (paper: densities < 0.25%)
    for name in DATASETS:
        assert density(get_dataset(name).a) < 0.05, name
    return {
        "density_A_CO": Metric(
            "density_A_CO", density(get_dataset("CO").a), "frac"
        ),
    }


def build_table():
    rows = []
    for name in DATASETS:
        data = get_dataset(name)
        d = density(data.a)
        n1 = max(data.num_vertices // 16, 1)
        pm = PartitionedMatrix(data.a, n1, n1, name="A")
        grid = pm.density_grid
        rows.append(
            [
                name,
                f"{d * 100:.4f}%",
                f"{grid.min() * 100:.4f}%",
                f"{np.median(grid) * 100:.4f}%",
                f"{grid.max() * 100:.4f}%",
                int((grid == 0).sum()),
            ]
        )
    return format_table(
        ["Dataset", "density(A)", "min block", "median block", "max block",
         "empty blocks"],
        rows,
        title="Fig. 1: adjacency density and per-block spread (16x16 grid)",
    )
