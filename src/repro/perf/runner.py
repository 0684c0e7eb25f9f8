"""The bench runner: execute specs, time them, emit ``BENCH_*.json``.

``run_bench`` executes one spec's payload ``repeats`` times, keeps the
payload's metrics from the *last* repeat (payload metrics are
deterministic or internally best-of-N; repeating is for the wall clock)
and appends a ``wall_s`` metric with the minimum wall time over the
repeats — the standard low-noise estimator.

``run_suite`` drives a selection of specs, writes one JSON per spec into
the output directory, and optionally compares against the baseline
store.  A payload that raises marks the suite failed but the remaining
specs still run (one broken bench must not hide another's regression).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.perf.baseline import Regression, compare
from repro.perf.schema import BenchResult, EnvFingerprint, Metric, load_dir
from repro.perf.spec import BenchSpec, normalise_metrics, select


def run_bench(
    spec: BenchSpec,
    *,
    tier: str = "smoke",
    repeats: int = 1,
    fingerprint: EnvFingerprint | None = None,
) -> BenchResult:
    """Execute one spec and wrap its metrics in a :class:`BenchResult`."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not spec.runs_in(tier):
        raise ValueError(
            f"bench {spec.name!r} does not run in tier {tier!r} "
            f"(tiers: {spec.tiers})"
        )
    fingerprint = fingerprint or EnvFingerprint.collect()
    raw = {}
    best_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        raw = spec.fn() or {}
        best_s = min(best_s, time.perf_counter() - t0)
    metrics = normalise_metrics(spec.name, raw)
    if "wall_s" not in {m.name for m in metrics}:
        metrics.append(Metric("wall_s", best_s, "s", "lower"))
    return BenchResult(
        name=spec.name,
        tier=tier,
        metrics=tuple(metrics),
        repeats=repeats,
        fingerprint=fingerprint,
        tags=spec.tags,
        tolerances=dict(spec.tolerances),
    )


@dataclass
class SuiteReport:
    """What ``repro bench`` did and what it concluded."""

    tier: str
    out_dir: Path
    results: list[BenchResult] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    comparisons: list[Regression] = field(default_factory=list)
    missing_baselines: list[str] = field(default_factory=list)
    #: what :meth:`promote` did (empty until it is called)
    promotion: str = ""

    @property
    def regressions(self) -> list[Regression]:
        return [c for c in self.comparisons if c.is_regression]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.regressions

    def promote(self, baseline_dir: Path) -> None:
        """Make this run the baseline, unless a bench failed.  Exactly
        this run's results are written: ``out_dir`` may hold stale
        ``BENCH_*.json`` from earlier, differently-selected runs."""
        if self.failures:
            self.promotion = (
                "baseline NOT refreshed: fix the failing bench(es) first"
            )
            return
        for result in self.results:
            result.write(baseline_dir)
        self.promotion = (
            f"baseline refreshed: {len(self.results)} file(s) "
            f"-> {baseline_dir}"
        )

    def format_report(self) -> str:
        lines = [
            f"ran {len(self.results)} bench(es) at tier {self.tier!r} "
            f"-> {self.out_dir}"
        ]
        for name, err in sorted(self.failures.items()):
            lines.append(f"  FAILED {name}: {err}")
        for c in self.comparisons:
            if c.classification != "within":
                lines.append("  " + c.describe())
        for name in self.missing_baselines:
            lines.append(f"  (no baseline yet for {name})")
        n_reg = len(self.regressions)
        if n_reg:
            lines.append(f"{n_reg} regression(s) beyond tolerance")
        if self.promotion:
            lines.append(self.promotion)
        return "\n".join(lines)


def run_suite(
    specs: list[BenchSpec] | None = None,
    *,
    tier: str = "smoke",
    names: list[str] | None = None,
    tags: list[str] | None = None,
    repeats: int = 1,
    out_dir: Path,
    baseline_dir: Path | None = None,
    scale_mode: str = "bench",
) -> SuiteReport:
    """Run a selection of registered specs and persist their results."""
    if specs is None:
        specs = select(tier=tier, names=names, tags=tags)
    if not specs:
        raise ValueError(
            f"no registered bench matches tier {tier!r}"
            + (f" and tags {list(tags)}" if tags else "")
        )
    out_dir = Path(out_dir)
    report = SuiteReport(tier=tier, out_dir=out_dir)
    fingerprint = EnvFingerprint.collect(scale_mode=scale_mode)
    for spec in specs:
        try:
            result = run_bench(
                spec, tier=tier, repeats=repeats, fingerprint=fingerprint
            )
        except Exception as exc:  # noqa: BLE001 - isolate bench failures
            report.failures[spec.name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
            continue
        result.write(out_dir)
        report.results.append(result)

    if baseline_dir is not None:
        baselines = load_dir(baseline_dir)
        for result in report.results:
            base = baselines.get(result.name)
            if base is None:
                report.missing_baselines.append(result.name)
                continue
            report.comparisons.extend(compare(result, base))
        report.comparisons.sort(
            key=lambda c: (not c.is_regression, c.bench, c.metric)
        )
    return report


__all__ = ["run_bench", "run_suite", "SuiteReport"]
