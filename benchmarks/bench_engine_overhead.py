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

import time

from _common import Metric, emit, format_table, register_bench
from repro.config import small_test_config, u250_default
from repro.engine import Engine
from repro.runtime.executor import run_strategy

#: acceptance ceiling: the facade may cost at most 5% over run_strategy
MAX_OVERHEAD = 0.05

FULL = dict(model="GCN", dataset="PU", scale=1.0, repeats=9)
#: runs are only a few ms on the small config, so take many repeats —
#: best-of-N needs a quiet sample on both sides to measure ~us of facade
SMOKE = dict(model="GCN", dataset="CO", scale=0.25, repeats=25)


def measure(*, model, dataset, scale, repeats, config):
    """Best-of-``repeats`` seconds of bare ``run_strategy`` and of
    ``Engine.infer``, on the same compiled program and device."""
    engine = Engine(config)
    handle = engine.compile(model, dataset, scale=scale)
    device = engine.device(0)

    def direct():
        run_strategy(handle.program, "Dynamic", accelerator=device)

    def facade():
        engine.infer(handle, strategy="Dynamic")

    # warm each path once, then interleave so drift hits both
    direct()
    facade()
    direct_s = engine_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        direct()
        direct_s = min(direct_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        facade()
        engine_s = min(engine_s, time.perf_counter() - t0)
    return direct_s, engine_s


def _check(params, config):
    """The facade's overhead on one instance, asserted <= 5%."""
    # the measurement resolves ~us of facade cost against ms of noise:
    # keep the best of three attempts so scheduler spikes don't fail the
    # gate (the real overhead is the attempts' floor, not their max)
    best = None
    for _ in range(3):
        direct_s, engine_s = measure(**params, config=config)
        frac = engine_s / direct_s - 1.0
        if best is None or frac < best[0]:
            best = (frac, direct_s, engine_s)
        if best[0] <= MAX_OVERHEAD:
            break
    frac, direct_s, engine_s = best
    emit("bench_engine_overhead", format_table(
        ["model", "dataset", "direct (ms)", "engine (ms)", "overhead"],
        [[params["model"], params["dataset"], f"{direct_s * 1e3:.3f}",
          f"{engine_s * 1e3:.3f}", f"{frac * 100:+.2f}%"]],
        title="E1: Engine facade overhead vs direct run_strategy",
    ))
    assert frac <= MAX_OVERHEAD, (
        f"Engine.infer costs {frac:.1%} over run_strategy "
        f"(ceiling {MAX_OVERHEAD:.0%}, best of 3)"
    )
    return {
        "overhead_frac": Metric("overhead_frac", frac, "frac"),
        "direct_ms": Metric("direct_ms", direct_s * 1e3, "ms"),
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
