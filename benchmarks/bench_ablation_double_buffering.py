"""A3 — ablation: double buffering (§V-B3).

With double buffering, loads/format-transforms/profiling overlap compute
and the format passes run beside the transfers they convert: task latency
= max(compute, memory, transform).  Without it everything serialises.
The paper claims the technique "not only overlaps the computation and
data communication, but also hides the overhead of sparsity profiling
and data layout/format transformation" — quantified here.
"""

import dataclasses

from _common import Metric, emit, engine_for, format_table, get_dataset, register_bench
from repro import u250_default


def run_with(double_buffering: bool):
    data = get_dataset("PU")
    cfg = u250_default()
    cfg = cfg.replace(
        buffers=dataclasses.replace(cfg.buffers, double_buffering=double_buffering)
    )
    engine = engine_for(cfg)
    return engine.infer(engine.compile("GCN", data, seed=7))


def _table(on, off):
    return format_table(
        ["double buffering", "latency (ms)", "slowdown"],
        [
            ["on (paper)", f"{on.latency_ms:.4f}", "1.00x"],
            ["off", f"{off.latency_ms:.4f}",
             f"{off.latency_ms / on.latency_ms:.2f}x"],
        ],
        title="A3: double buffering on/off (GCN on PubMed)",
    )


@register_bench("ablation_double_buffering", tier="full", tags=("ablation",))
def _spec():
    """A3: double buffering on/off (modelled cycles, deterministic)."""
    on, off = run_with(True), run_with(False)
    emit("ablation_double_buffering", _table(on, off))
    # overlap should buy a tangible fraction, not epsilon
    assert off.total_cycles / on.total_cycles > 1.05
    return {
        "latency_on_ms": Metric("latency_on_ms", on.latency_ms, "model-ms"),
        "slowdown_off": Metric(
            "slowdown_off", off.total_cycles / on.total_cycles, "x", "higher"
        ),
    }
