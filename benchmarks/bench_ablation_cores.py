"""A2 — ablation: scaling with the number of Computation Cores.

The U250 design fits 7 CCs (Fig. 9).  This bench sweeps 1..8 cores and
checks that kernel makespans scale with core count until load balance or
memory bandwidth saturates — the reason the eta constraint exists.
"""

from _common import Metric, emit, engine_for, format_table, get_dataset, register_bench
from repro import u250_default


def sweep():
    data = get_dataset("PU")
    out = []
    for cores in (1, 2, 4, 7, 8):
        cfg = u250_default().replace(num_cores=cores)
        engine = engine_for(cfg)
        res = engine.infer(engine.compile("GCN", data, seed=7))
        out.append((cores, res.latency_ms, res.load_balance()))
    return out


def _table(rows):
    base = rows[0][1]
    return format_table(
        ["cores", "latency (ms)", "speedup vs 1 core", "load balance"],
        [[c, f"{lat:.4f}", f"{base / lat:.2f}x", f"{lb:.3f}"]
         for c, lat, lb in rows],
        title="A2: Computation Core scaling (GCN on PubMed)",
    )


@register_bench("ablation_cores", tier="full", tags=("ablation",))
def _spec():
    """A2: core-count scaling (modelled cycles, deterministic)."""
    rows = sweep()
    emit("ablation_cores", _table(rows))
    lat = {c: ms for c, ms, _ in rows}
    assert lat[7] < lat[1], "7 cores must beat 1 core"
    assert lat[4] <= lat[1], "4 cores must not lose to 1 core"
    # scaling is sub-linear (memory bandwidth is shared)
    assert lat[1] / lat[7] <= 7.0
    return {
        # unit "model-ms": derived from simulated cycles, deterministic
        # (not wall clock), so it gets the tight default tolerance
        "latency_7c_ms": Metric("latency_7c_ms", lat[7], "model-ms"),
        "scaling_7c": Metric("scaling_7c", lat[1] / lat[7], "x", "higher"),
    }
