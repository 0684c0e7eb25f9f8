"""Hotspot profiling for registered benches (``repro bench --profile``).

Runs a spec's payload under :mod:`cProfile` and reports the top
functions by cumulative time.  This is the tool that surfaced the two
hot paths vectorised in this repo's first perf PR — the ``np.add.at``
scatter in ``formats/partition.block_nnz_grid`` and the per-pair
``Analyzer.decide`` calls in the runtime executor — and it stays wired
into the CLI so the next optimisation target is one flag away.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass

from repro.perf.spec import BenchSpec


@dataclass(frozen=True)
class Hotspot:
    """One row of the profile: where the time went."""

    function: str
    calls: int
    cumtime_s: float
    tottime_s: float


@dataclass(frozen=True)
class ProfileReport:
    bench: str
    tier: str
    total_s: float
    hotspots: tuple[Hotspot, ...]
    #: the raw pstats text, for humans
    text: str

    def format_table(self, top: int = 10) -> str:
        lines = [
            f"hotspots of {self.bench} (tier {self.tier}, "
            f"{self.total_s:.3f}s total):",
            f"  {'cum s':>8}  {'tot s':>8}  {'calls':>9}  function",
        ]
        for h in self.hotspots[:top]:
            lines.append(
                f"  {h.cumtime_s:>8.3f}  {h.tottime_s:>8.3f}  "
                f"{h.calls:>9}  {h.function}"
            )
        return "\n".join(lines)


def profile_bench(
    spec: BenchSpec, *, tier: str = "smoke", top: int = 25
) -> ProfileReport:
    """Run one payload under cProfile and extract the top hotspots."""
    if not spec.runs_in(tier):
        raise ValueError(
            f"bench {spec.name!r} does not run in tier {tier!r} "
            f"(tiers: {spec.tiers})"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        spec.fn()
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream).sort_stats("cumulative")
    stats.print_stats(top)

    hotspots = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda kv: -kv[1][3]
    )[:top]:
        filename, lineno, name = func
        where = (
            f"{name}"
            if filename.startswith("<") or filename == "~"
            else f"{name} ({filename.rsplit('/', 1)[-1]}:{lineno})"
        )
        hotspots.append(
            Hotspot(
                function=where,
                calls=int(nc),
                cumtime_s=float(cumtime),
                tottime_s=float(tottime),
            )
        )
    return ProfileReport(
        bench=spec.name,
        tier=tier,
        total_s=float(stats.total_tt),
        hotspots=tuple(hotspots),
        text=stream.getvalue(),
    )


__all__ = ["Hotspot", "ProfileReport", "profile_bench"]
