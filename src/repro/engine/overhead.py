"""Facade-overhead measurement: ``Engine.infer`` vs direct ``run_strategy``.

The engine must be a zero-cost abstraction over the simulator: its per-run
work is a membership test on the backend name, a strategy check and a
record write — microseconds against a simulation that takes
milliseconds.  This
module measures that claim so the ``engine-bench`` CLI subcommand and
``benchmarks/bench_engine_overhead.py`` can enforce it (the smoke gate
asserts <= 5% overhead on the small config).

Both paths run the *same* compiled program on the *same* accelerator
instance, and best-of-N (timeit-style minimum) is reported, so the
comparison isolates the facade's own cost from simulation noise.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.config import AcceleratorConfig, small_test_config
from repro.engine.core import Engine
from repro.runtime.executor import run_strategy

__all__ = ["OverheadResult", "measure_facade_overhead"]


@dataclass(frozen=True)
class OverheadResult:
    """Best-of-N wall-clock seconds of each path, plus the verdict."""

    model: str
    dataset: str
    strategy: str
    repeats: int
    #: best-of-N seconds of Engine.infer (facade path)
    engine_s: float
    #: best-of-N seconds of run_strategy on the same program + device
    direct_s: float

    @property
    def overhead_fraction(self) -> float:
        """Facade time over direct time, minus one (0.0 = free)."""
        if self.direct_s <= 0:
            return 0.0
        return self.engine_s / self.direct_s - 1.0

    def format_report(self) -> str:
        return (
            f"engine facade overhead — {self.model} on {self.dataset}, "
            f"strategy {self.strategy}, best of {self.repeats}:\n"
            f"  direct run_strategy : {self.direct_s * 1e3:9.3f} ms\n"
            f"  Engine.infer        : {self.engine_s * 1e3:9.3f} ms\n"
            f"  facade overhead     : {self.overhead_fraction * 100:+.2f}%"
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "overhead_fraction": self.overhead_fraction}


def measure_facade_overhead(
    *,
    model: str = "GCN",
    dataset: str = "CO",
    scale: float | None = 0.25,
    strategy: str = "Dynamic",
    repeats: int = 9,
    config: AcceleratorConfig | None = None,
) -> OverheadResult:
    """Time ``Engine.infer`` against bare ``run_strategy``, same program,
    same device, best of ``repeats``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    engine = Engine(config or small_test_config())
    handle = engine.compile(model, dataset, scale=scale)
    device = engine.device(0)

    # interleave the two paths so drift (thermal, allocator state) hits
    # both equally; warm up each once before timing
    run_strategy(handle.program, strategy, accelerator=device)
    engine.infer(handle, strategy=strategy)
    direct_s = engine_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_strategy(handle.program, strategy, accelerator=device)
        direct_s = min(direct_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        engine.infer(handle, strategy=strategy)
        engine_s = min(engine_s, time.perf_counter() - t0)

    return OverheadResult(
        model=model,
        dataset=handle.data_name,
        strategy=strategy,
        repeats=repeats,
        engine_s=engine_s,
        direct_s=direct_s,
    )
