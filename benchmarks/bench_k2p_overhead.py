"""E14 — §VI-B / §VIII-C: K2P mapping cost is O(K) and tiny per decision.

The modelled soft-processor budget: linear in the pair count (O(K)), and
a vanishing fraction of one task's O(N^3) compute.  The host cost of
Algorithm 7's decisions is ``micro_k2p_decision_batch``'s
(``bench_micro_hotpaths.py``).
"""

from _common import Metric, emit, format_table, register_bench
from repro import u250_default
from repro.hw.soft_processor import SoftProcessor

CFG = u250_default()


def _analysis_vs_compute_ratio() -> float:
    """§VI-B budget: K2P analysis seconds over one task's compute seconds."""
    soft = SoftProcessor(CFG)
    n2 = 512
    k = 32  # pairs per task
    analysis_s = soft.k2p_decision_seconds(k)
    macs = k * n2 * n2 * n2
    compute_s = macs / (CFG.gemm_macs_per_cycle * CFG.freq_hz)
    return analysis_s / compute_s


@register_bench("k2p_overhead", tier=("smoke", "full"), tags=("micro",))
def _spec():
    """§VI-B: K2P analysis budget vs task compute (modelled, deterministic)."""
    ratio = _analysis_vs_compute_ratio()
    emit("k2p_overhead", format_table(
        ["metric", "value"],
        [["analysis / task compute", f"{ratio:.2e}"]],
        title="K2P analysis vs task compute (one 512-wide task, K=32)",
    ))
    assert ratio < 0.05
    # modelled soft-processor time is linear in the pair count (O(K))
    soft = SoftProcessor(CFG)
    t1, t2 = soft.k2p_decision_seconds(1_000), soft.k2p_decision_seconds(10_000)
    assert abs(t2 / t1 - 10.0) < 1e-9, (t1, t2)
    return {
        "analysis_compute_ratio": Metric(
            "analysis_compute_ratio", ratio, "frac"
        ),
    }
