"""E8 — Table IX: compiler preprocessing time (measured wall clock).

The paper reports per-dataset compile times of 2.5E-1 .. 5.2E1 ms on a
Xeon 5120.  We *measure* our compiler's phases on the bench machine —
this is an honest measurement, not a model — and check the paper's
qualitative claims: preprocessing time grows with graph size and stays
small in absolute terms (milliseconds to tens of milliseconds).
"""

from _common import (
    DATASETS,
    MODELS,
    Metric,
    emit,
    format_table,
    get_dataset,
    register_bench,
    sci,
)
from repro import Compiler, build_model, init_weights, u250_default

PAPER_GCN_ROW = [2.5e-1, 2.2e-2, 5.7e-1, 2.68, 1.70, 5.1e1]


def compile_times():
    out = {}
    for model_name in MODELS:
        row = []
        for ds in DATASETS:
            data = get_dataset(ds)
            model = build_model(
                model_name, data.num_features, data.hidden_dim, data.num_classes
            )
            program = Compiler(u250_default()).compile(
                model, data, init_weights(model, seed=7)
            )
            row.append(program.timings.total_ms)
        out[model_name] = row
    return out


def build_table():
    times = compile_times()
    rows = [[m] + [sci(v) for v in times[m]] for m in MODELS]
    rows.append(["paper GCN"] + [sci(v) for v in PAPER_GCN_ROW])
    return format_table(
        ["Model"] + list(DATASETS), rows,
        title="Table IX: compiler preprocessing time (ms, measured)",
    ), times


@register_bench("table9_compile_time", tier="full", tags=("paper", "table"))
def _spec():
    """Table IX: measured compiler preprocessing wall time."""
    table, times = build_table()
    emit("table9_compile_time", table)
    for model_name, row in times.items():
        for v in row:
            assert v < 30_000, "compilation should take at most seconds"
        # compile time grows with graph scale: Reddit >> Cora
        assert row[5] > row[1], model_name
    emit("table9_phase_breakdown", _phase_table())
    # honest host wall-clock measurements -> "ms" time unit gets the
    # generous cross-machine tolerance band
    return {
        "compile_gcn_re_ms": Metric("compile_gcn_re_ms", times["GCN"][5], "ms"),
        "compile_gcn_co_ms": Metric("compile_gcn_co_ms", times["GCN"][1], "ms"),
    }


def _phase_table():
    """Per-phase timing of the most expensive dataset in the profile."""
    data = get_dataset("FL")
    model = build_model("GCN", data.num_features, data.hidden_dim,
                        data.num_classes)
    t = Compiler(u250_default()).compile(
        model, data, init_weights(model, seed=7)
    ).timings
    assert t.total_s > 0
    return format_table(
        ["phase", "ms"],
        [
            ["parse + adjacency", f"{t.parse_s * 1e3:.3f}"],
            ["partitioning", f"{t.partition_s * 1e3:.3f}"],
            ["sparsity profiling", f"{t.profile_s * 1e3:.3f}"],
            ["total", f"{t.total_ms:.3f}"],
        ],
        title="Compiler phase breakdown (Flickr, GCN)",
    )
