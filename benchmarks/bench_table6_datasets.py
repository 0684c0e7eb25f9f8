"""E3 — Table VI: dataset statistics.

Regenerates the paper's dataset-statistics table from the synthetic
generators and checks the columns the kernel-to-primitive machinery
depends on (density of A, density of H0) against the published values.
"""

from _common import (
    DATASETS,
    Metric,
    emit,
    format_table,
    get_dataset,
    profile,
    register_bench,
)
from repro.datasets import TABLE_VI
from repro.formats.density import density


@register_bench("table6_datasets", tier="full", tags=("paper", "table"))
def _spec():
    """Table VI: dataset statistics (generated vs paper)."""
    emit("table6_datasets", build_table())
    # feature densities must match the paper at any scale
    for name in DATASETS:
        h0, paper = density(get_dataset(name).h0), TABLE_VI[name].h0_density
        assert abs(h0 - paper) <= 0.3 * paper, (name, h0, paper)
    co = get_dataset("CO")
    return {
        "density_H0_CO": Metric("density_H0_CO", density(co.h0), "frac"),
        "vertices_CO": Metric("vertices_CO", co.num_vertices, "count"),
    }


def build_table():
    rows = []
    for name in DATASETS:
        spec = TABLE_VI[name]
        data = get_dataset(name)
        rows.append(
            [
                name,
                f"{data.num_vertices:,}",
                f"{data.num_edges:,}",
                f"{data.num_features:,}",
                spec.classes,
                f"{density(data.a) * 100:.4f}%",
                f"{density(data.h0) * 100:.3f}%",
                f"{spec.a_density * 100:.4f}%",
                f"{spec.h0_density * 100:.3f}%",
                profile()[name][0],
            ]
        )
    return format_table(
        ["Dataset", "Vertices", "Edges(nnz A)", "Features", "Classes",
         "Density A", "Density H0", "paper A", "paper H0", "scale"],
        rows,
        title="Table VI: dataset statistics (generated vs paper)",
    )
