"""A4 — ablation: partition-size trade-off (Algorithm 9's objectives).

Sweeps the minimum partition dimension and compares against the
heuristic's choice.  Small partitions maximise task parallelism and
fine-grained sparsity exploitation but multiply K2P decisions and operand
reloads; large partitions maximise locality but starve the cores.  The
heuristic should land within a modest factor of the sweep's best point.
"""

from _common import Metric, emit, engine_for, format_table, get_dataset, register_bench
from repro import u250_default


def sweep():
    data = get_dataset("PU")
    rows = []
    for floor in (64, 128, 256, 512, 1024, 2048):
        cfg = u250_default().replace(min_partition_dim=floor)
        engine = engine_for(cfg)
        handle = engine.compile("GCN", data, seed=7)
        res = engine.infer(handle)
        rows.append(
            (floor, handle.program.n1, handle.program.n2, res.latency_ms,
             res.overhead_fraction, res.num_pairs, res.load_balance())
        )
    return rows


def _table(rows):
    return format_table(
        ["min dim", "N1", "N2", "latency (ms)", "K2P ovh", "pairs", "balance"],
        [[f, n1, n2, f"{lat:.4f}", f"{o:.3f}", p, f"{lb:.3f}"]
         for f, n1, n2, lat, o, p, lb in rows],
        title="A4: partition-size sweep (GCN on PubMed)",
    )


@register_bench("ablation_partition", tier="full", tags=("ablation",))
def _spec():
    """A4: partition-size sweep (modelled cycles, deterministic)."""
    rows = sweep()
    emit("ablation_partition", _table(rows))
    by_floor = {r[0]: r for r in rows}
    # smaller partitions -> more pairs -> more runtime-system work
    assert by_floor[64][5] > by_floor[1024][5]
    assert by_floor[64][4] >= by_floor[1024][4]
    # the default (1024) is within 2x of the best point in the sweep
    best = min(r[3] for r in rows)
    assert by_floor[1024][3] <= 2.0 * best
    return {
        "latency_1024_ms": Metric("latency_1024_ms", by_floor[1024][3], "model-ms"),
        "heuristic_vs_best": Metric(
            "heuristic_vs_best", by_floor[1024][3] / best, "x"
        ),
        "pairs_64": Metric("pairs_64", by_floor[64][5], "count"),
    }
