"""E1 — engine: the facade must be a zero-cost abstraction.

``Engine.infer`` adds a registry lookup, a strategy construction and a
dataclass hop on top of ``run_strategy``; against a simulation that takes
milliseconds, that must be noise.  This bench times both paths on the
same compiled program and the same simulated device (best-of-N, so
scheduler jitter doesn't pollute the comparison) and asserts the facade
costs <= 5% — the acceptance gate for routing every consumer (CLI,
serving, benchmarks) through the engine.  Two specs run the two
instances: ``engine_overhead`` (smoke: Cora at quarter scale on the small
config) and ``engine_overhead_pubmed`` (full: PubMed on the U250 config).
"""

from _common import Metric, emit, format_table, register_bench
from repro.config import small_test_config, u250_default
from repro.engine import measure_facade_overhead

#: acceptance ceiling: the facade may cost at most 5% over run_strategy
MAX_OVERHEAD = 0.05

FULL = dict(model="GCN", dataset="PU", scale=1.0, repeats=9)
#: runs are only a few ms on the small config, so take many repeats —
#: best-of-N needs a quiet sample on both sides to measure ~us of facade
SMOKE = dict(model="GCN", dataset="CO", scale=0.25, repeats=25)


def _table(results) -> str:
    return format_table(
        ["model", "dataset", "strategy", "direct (ms)", "engine (ms)",
         "overhead"],
        [[r.model, r.dataset, r.strategy, f"{r.direct_s * 1e3:.3f}",
          f"{r.engine_s * 1e3:.3f}", f"{r.overhead_fraction * 100:+.2f}%"]
         for r in results],
        title="E1: Engine facade overhead vs direct run_strategy",
    )


def _check(params, config):
    """The facade's overhead on one instance, asserted <= 5%."""
    # the measurement resolves ~us of facade cost against ms of noise:
    # keep the best of three attempts so scheduler spikes don't fail the
    # gate (the real overhead is the attempts' floor, not their max)
    result = measure_facade_overhead(**params, config=config)
    for _ in range(2):
        if result.overhead_fraction <= MAX_OVERHEAD:
            break
        result = min(result, measure_facade_overhead(**params, config=config),
                     key=lambda r: r.overhead_fraction)
    emit("bench_engine_overhead", _table([result]))
    assert result.overhead_fraction <= MAX_OVERHEAD, (
        f"Engine.infer costs {result.overhead_fraction:.1%} over "
        f"run_strategy (ceiling {MAX_OVERHEAD:.0%}, best of 3)"
    )
    return {
        "overhead_frac": Metric("overhead_frac", result.overhead_fraction, "frac"),
        "direct_ms": Metric("direct_ms", result.direct_s * 1e3, "ms"),
    }


#: the overhead fraction hovers around zero (it is facade cost in the
#: noise floor of a best-of-N host measurement); relative comparison
#: against a near-zero baseline is meaningless, so the band is wide —
#: the payload's own <= 5% assertion is the real gate
TOLERANCES = {"overhead_frac": 25.0}


@register_bench("engine_overhead", tier="smoke", tags=("engine", "micro"),
                tolerances=TOLERANCES)
def _smoke():
    """Engine facade overhead vs direct run_strategy (<= 5%), small config."""
    return _check(SMOKE, small_test_config())


@register_bench("engine_overhead_pubmed", tier="full",
                tags=("engine", "micro"), tolerances=TOLERANCES)
def _full():
    """Engine facade overhead vs direct run_strategy (<= 5%), PubMed on U250."""
    return _check(FULL, u250_default())
