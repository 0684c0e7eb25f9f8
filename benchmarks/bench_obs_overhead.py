"""O1 — observability: a disabled tracer must be free.

``repro.obs`` threads a ``tracer=`` parameter through the whole runtime,
defaulting to the shared ``NULL_TRACER`` whose ``enabled`` flag gates all
span construction.  The design promise is that the disabled path costs
one attribute check per *kernel* (the task inner loop is untouched), so
a run with tracing off must be indistinguishable from the pre-obs
runtime.  This bench times three variants of the same run on the same
compiled program and simulated device:

- ``off``  — the default path (implicit ``NULL_TRACER``);
- ``noop`` — a fresh ``NullTracer`` instance threaded explicitly (same
  disabled machinery, defeats any identity-based shortcut);
- ``traced`` — a real ``Tracer`` with task spans on (informational: the
  cost you opt into when you ask for a timeline).

The gate: ``noop`` may cost at most 2% over ``off`` (best-of-N on both
sides).  ``traced`` has no ceiling — it is reported so regressions in
the enabled path stay visible in BENCH_obs_overhead.json.  Two specs run
the two instances: ``obs_overhead`` (smoke: Cora at quarter scale on the
small config) and ``obs_overhead_pubmed`` (full: PubMed on the U250
config).
"""

import time

from _common import Metric, emit, format_table, register_bench
from repro.config import small_test_config, u250_default
from repro.engine import Engine
from repro.obs import NullTracer, Tracer
from repro.runtime.executor import run_strategy

#: acceptance ceiling: a disabled tracer may cost at most 2%
MAX_DISABLED_OVERHEAD = 0.02

#: same instances as bench_engine_overhead, so the two gates see the
#: same noise floor
FULL = dict(model="GCN", dataset="PU", scale=1.0, repeats=9)
SMOKE = dict(model="GCN", dataset="CO", scale=0.25, repeats=25)


def measure(*, model, dataset, scale, repeats, config):
    """Best-of-``repeats`` seconds for off / noop / traced runs."""
    engine = Engine(config)
    handle = engine.compile(model, dataset, scale=scale)
    device = engine.device(0)
    noop = NullTracer()

    def run(tracer=None):
        if tracer is None:
            return run_strategy(handle.program, "Dynamic", accelerator=device)
        return run_strategy(
            handle.program, "Dynamic", accelerator=device, tracer=tracer
        )

    # warm each path once, then interleave so drift hits all three
    run()
    run(noop)
    off_s = noop_s = traced_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        off_s = min(off_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run(noop)
        noop_s = min(noop_s, time.perf_counter() - t0)
        tracer = Tracer()
        t0 = time.perf_counter()
        run(tracer)
        traced_s = min(traced_s, time.perf_counter() - t0)
    return off_s, noop_s, traced_s


def _table(model, dataset, off_s, noop_s, traced_s) -> str:
    return format_table(
        ["model", "dataset", "off (ms)", "noop tracer (ms)", "overhead",
         "traced (ms)"],
        [[model, dataset, f"{off_s * 1e3:.3f}", f"{noop_s * 1e3:.3f}",
          f"{(noop_s / off_s - 1.0) * 100:+.2f}%", f"{traced_s * 1e3:.3f}"]],
        title="O1: tracer overhead (disabled path must be free)",
    )


def _check(params, config):
    """The disabled tracer's overhead on one instance, asserted <= 2%."""
    # best of three attempts: the disabled paths differ by an attribute
    # check, so a scheduler spike on either side dwarfs the real signal
    best = None
    for _ in range(3):
        off_s, noop_s, traced_s = measure(**params, config=config)
        frac = noop_s / off_s - 1.0
        if best is None or frac < best[0]:
            best = (frac, off_s, noop_s, traced_s)
        if best[0] <= MAX_DISABLED_OVERHEAD:
            break
    frac, off_s, noop_s, traced_s = best
    emit("bench_obs_overhead",
         _table(params["model"], params["dataset"], off_s, noop_s, traced_s))
    assert frac <= MAX_DISABLED_OVERHEAD, (
        f"disabled tracer costs {frac:.1%} over the bare runtime "
        f"(ceiling {MAX_DISABLED_OVERHEAD:.0%}, best of 3)"
    )
    return {
        "disabled_frac": Metric("disabled_frac", frac, "frac"),
        "traced_frac": Metric(
            "traced_frac", traced_s / off_s - 1.0, "frac"
        ),
        "off_ms": Metric("off_ms", off_s * 1e3, "ms"),
    }


#: like engine_overhead: the gated quantity hovers around zero, so a
#: relative band is meaningless — the payload's own assertion gates
TOLERANCES = {"disabled_frac": 25.0, "traced_frac": 5.0}


@register_bench("obs_overhead", tier="smoke", tags=("obs", "micro"),
                tolerances=TOLERANCES)
def _smoke():
    """Disabled-tracer overhead vs the bare runtime (<= 2%), small config."""
    return _check(SMOKE, small_test_config())


@register_bench("obs_overhead_pubmed", tier="full", tags=("obs", "micro"),
                tolerances=TOLERANCES)
def _full():
    """Disabled-tracer overhead vs the bare runtime (<= 2%), PubMed on U250."""
    return _check(FULL, u250_default())
