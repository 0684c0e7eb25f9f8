"""A1 — ablation: the load-balance factor eta (§VI-C).

The compiler requires at least eta * N_CC tasks per kernel.  The paper
sets eta = 4 (following GPOP): eta = 1 risks long idle tails when block
workloads are skewed; larger eta shrinks partitions, hurting locality and
increasing K2P decisions.  This bench sweeps eta and reports latency and
per-kernel load balance on a workload big enough for the constraint to
bind.
"""

from _common import Metric, emit, engine_for, format_table, get_dataset, register_bench
from repro import u250_default


def sweep():
    data = get_dataset("FL")
    out = []
    for eta in (1, 2, 4, 8):
        cfg = u250_default().replace(eta=eta, min_partition_dim=64)
        engine = engine_for(cfg)
        handle = engine.compile("GCN", data, seed=7)
        res = engine.infer(handle)
        out.append(
            (eta, handle.program.n1, handle.program.n2, res.latency_ms,
             res.load_balance(), res.num_tasks)
        )
    return out


def _table(rows):
    return format_table(
        ["eta", "N1", "N2", "latency (ms)", "load balance", "tasks"],
        [[e, n1, n2, f"{lat:.3f}", f"{lb:.3f}", t] for e, n1, n2, lat, lb, t in rows],
        title="A1: eta load-balance factor sweep (GCN on Flickr)",
    )


@register_bench("ablation_eta", tier="full", tags=("ablation",))
def _spec():
    """A1: eta load-balance factor sweep."""
    rows = sweep()
    emit("ablation_eta", _table(rows))
    by_eta = {r[0]: r for r in rows}
    # more tasks with larger eta (smaller partitions)
    assert by_eta[8][5] >= by_eta[1][5]
    # load balance should not collapse at the paper's eta = 4
    assert by_eta[4][4] > 0.5
    return {
        "latency_eta4_ms": Metric("latency_eta4_ms", by_eta[4][3], "model-ms"),
        "balance_eta4": Metric("balance_eta4", by_eta[4][4], "frac", "higher"),
    }
