"""E14 — §VI-B / §VIII-C: K2P mapping cost is O(K) and tiny per decision.

A real microbenchmark (pytest-benchmark measures the host, as the paper
measured the MicroBlaze): Algorithm 7's per-pair decision, plus the
modelled soft-processor budget, plus the O(K)-vs-O(N^3) complexity claim.
"""


import numpy as np

from _common import Metric, emit, format_table, register_bench
from repro import u250_default
from repro.hw.report import SPDMM_CODE
from repro.hw.soft_processor import SoftProcessor
from repro.runtime.perf_model import PairBatch
from repro.runtime.strategies import DynamicMapping

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
def _spec(ctx):
    """§VI-B: K2P analysis budget vs task compute (modelled, deterministic)."""
    ratio = _analysis_vs_compute_ratio()
    emit("k2p_overhead", format_table(
        ["metric", "value"],
        [["analysis / task compute", f"{ratio:.2e}"]],
        title="K2P analysis vs task compute (one 512-wide task, K=32)",
    ))
    assert ratio < 0.05
    return {
        "analysis_compute_ratio": Metric(
            "analysis_compute_ratio", ratio, "frac"
        ),
    }


def test_k2p_decision_microbench(benchmark):
    """Latency of a single Algorithm 7 decision (host measurement): a
    512 x 512 block at 3% stored sparse against a dense 512 x 128 one."""
    analyzer = DynamicMapping(CFG)
    pair = PairBatch(
        m=np.array([512]), n=np.array([512]), d=np.array([128]),
        x_nnz=np.array([7864]), y_nnz=np.array([52429]),
        x_stored_sparse=True, y_stored_sparse=False,
        task=np.zeros(1, dtype=np.int64), num_tasks=1,
    )
    codes, transposed, _ = benchmark(analyzer.decide_batch, None, pair)
    assert (codes[0], transposed[0]) == (SPDMM_CODE, False)


def test_k2p_scales_linearly(benchmark):
    """Modelled soft-processor time is linear in the pair count (O(K))."""

    def check():
        soft = SoftProcessor(CFG)
        t1 = soft.k2p_decision_seconds(1_000)
        t2 = soft.k2p_decision_seconds(10_000)
        return t1, t2

    t1, t2 = benchmark.pedantic(check, rounds=1, iterations=1)
    assert abs(t2 / t1 - 10.0) < 1e-9


def test_k2p_negligible_vs_task_compute(benchmark):
    """§VI-B: O(K) decisions per task vs O(|V| N2 + f1 N2^2) compute —
    the analysis budget is a vanishing fraction of the task's work."""

    ratio = benchmark.pedantic(
        _analysis_vs_compute_ratio, rounds=1, iterations=1
    )
    table = format_table(
        ["metric", "value"],
        [["analysis / task compute", f"{ratio:.2e}"]],
        title="K2P analysis vs task compute (one 512-wide task, K=32)",
    )
    emit("k2p_overhead", table)
    assert ratio < 0.05
