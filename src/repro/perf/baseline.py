"""Baseline store and tolerance-band comparison.

Baselines are committed ``BENCH_<name>.json`` files under
``results/baselines/`` — the perf trajectory of the repo.  A new result
is compared metric by metric against its baseline:

- the *relative change* is signed so that positive = worse, using the
  metric's declared ``direction`` (a latency going up is worse; a
  speedup going down is worse);
- a change is a **regression** when it is worse by more than the
  metric's tolerance, an **improvement** when it is better by more than
  the tolerance, and **within** the band otherwise.

Tolerances resolve in order: spec/result override (``tolerances``
mapping, by metric name) -> unit default.  Host wall-clock metrics get a
deliberately generous default (CI runners and laptops differ by integer
factors); dimensionless ratios (speedups, fractions) and counts are
machine-independent and sit in a much tighter band.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro.perf.schema import BenchResult, Metric, load_dir

#: relative tolerance for host wall-clock metrics: a committed baseline
#: must survive being replayed on a different machine class (CI runners,
#: laptops, loaded boxes differ by integer factors) — the band only
#: catches order-of-magnitude blowups; tight gating belongs to the
#: machine-independent metrics
TIME_TOLERANCE = 9.0
#: relative tolerance for machine-independent metrics (ratios, counts,
#: modelled cycles)
DEFAULT_TOLERANCE = 0.25


def default_baseline_dir() -> Path:
    """``baselines/`` inside the harness results root — repo-anchored
    (or ``$REPRO_RESULTS_DIR``), *not* cwd-anchored, so the perf gate
    finds the committed baselines no matter where it is invoked from."""
    from repro.harness import results_dir

    return results_dir() / "baselines"


@dataclass(frozen=True)
class Regression:
    """One metric's comparison against its baseline."""

    bench: str
    metric: str
    unit: str
    direction: str
    baseline_value: float
    new_value: float
    #: relative change, signed so that positive = worse
    worse_by: float
    tolerance: float
    #: "regression" | "improvement" | "within"
    classification: str

    @property
    def is_regression(self) -> bool:
        # a unit/direction mismatch is a hard gate failure: the numeric
        # comparison would have been made against the wrong tolerance
        # band, so it must fail CI until the baseline is refreshed
        return self.classification in ("regression", "mismatch")

    def describe(self) -> str:
        if self.classification == "mismatch":
            return (
                f"{self.bench}.{self.metric}: metric unit/direction changed "
                f"vs baseline ({self.unit}) — values are not comparable; "
                f"refresh the baseline (repro bench --update-baseline) "
                f"[MISMATCH]"
            )
        arrow = {"regression": "WORSE", "improvement": "better", "within": "ok"}
        # the change in the metric's own direction: how much worse, or how
        # much better, never a negative "worse"
        change, word = (
            (self.worse_by, "worse") if self.worse_by > 0 else (-self.worse_by, "better")
        )
        return (
            f"{self.bench}.{self.metric}: {self.baseline_value:g} -> "
            f"{self.new_value:g} {self.unit} "
            f"({change:+.1%} {word}, tol {self.tolerance:.0%}) "
            f"[{arrow[self.classification]}]"
        )


def metric_tolerance(metric: Metric, overrides: dict | None = None) -> float:
    if overrides and metric.name in overrides:
        return float(overrides[metric.name])
    return TIME_TOLERANCE if metric.is_time else DEFAULT_TOLERANCE


def _worse_by(new: Metric, base: Metric) -> float:
    """Relative change of ``new`` vs ``base``, positive = worse."""
    if base.value == 0.0:
        if new.value == 0.0:
            return 0.0
        # zero baseline: any appearance of a lower-is-better quantity is
        # "infinitely" worse; of a higher-is-better one, better
        worse = float("inf") if base.direction == "lower" else float("-inf")
        return worse if new.value > 0 else -worse
    delta = (new.value - base.value) / abs(base.value)
    return delta if base.direction == "lower" else -delta


def compare(
    result: BenchResult, baseline: BenchResult, *, tolerances: dict | None = None
) -> list[Regression]:
    """Classify every shared metric; regressions first, then the rest.

    Metrics present only on one side are skipped — adding a metric must
    not fail CI retroactively, and removing one is caught by refreshing
    the baseline.  Tolerance overrides merge result-over-baseline (the
    spec's declaration travels inside both files).
    """
    merged: dict = {}
    merged.update(baseline.tolerances)
    merged.update(result.tolerances)
    if tolerances:
        merged.update(tolerances)

    out: list[Regression] = []
    base_names = set(baseline.metric_names())
    for new in result.metrics:
        if new.name not in base_names:
            continue
        base = baseline.metric(new.name)
        if new.unit != base.unit or new.direction != base.direction:
            # pairing by name alone would classify e.g. a seconds ->
            # ratio change against the wrong tolerance band (and a
            # direction flip would invert worse/better); fail hard
            out.append(
                Regression(
                    bench=result.name,
                    metric=new.name,
                    unit=(
                        f"{base.unit}/{base.direction} -> "
                        f"{new.unit}/{new.direction}"
                    ),
                    direction=base.direction,
                    baseline_value=base.value,
                    new_value=new.value,
                    worse_by=float("inf"),
                    tolerance=0.0,
                    classification="mismatch",
                )
            )
            continue
        tol = metric_tolerance(base, merged)
        worse = _worse_by(new, base)
        if worse > tol:
            cls = "regression"
        elif worse < -tol:
            cls = "improvement"
        else:
            cls = "within"
        out.append(
            Regression(
                bench=result.name,
                metric=new.name,
                unit=base.unit,
                direction=base.direction,
                baseline_value=base.value,
                new_value=new.value,
                worse_by=worse,
                tolerance=tol,
                classification=cls,
            )
        )
    out.sort(key=lambda r: (not r.is_regression, r.bench, r.metric))
    return out


class DirComparison(NamedTuple):
    """``(comparisons, missing)`` of two result directories; ``missing``
    lists bench names that have no baseline yet (informational, not a
    failure — a brand-new bench cannot regress)."""

    comparisons: list[Regression]
    missing: list[str]

    @property
    def regressions(self) -> list[Regression]:
        return [c for c in self.comparisons if c.is_regression]

    def format_report(self, *, show_all: bool = False) -> str:
        """Every metric outside its tolerance band (all of them with
        ``show_all``), benches without a baseline, and the verdict."""
        lines = [
            c.describe() for c in self.comparisons
            if show_all or c.classification != "within"
        ]
        lines += [f"(no baseline for {name})" for name in self.missing]
        if not lines:
            lines.append(
                f"{len(self.comparisons)} metric(s) compared, all within "
                f"tolerance"
            )
        if self.regressions:
            lines.append(
                f"{len(self.regressions)} regression(s) beyond tolerance"
            )
        return "\n".join(lines)


def compare_dirs(new_dir: Path, base_dir: Path) -> DirComparison:
    """Compare every result in ``new_dir`` against ``base_dir``."""
    for label, d in (("result", new_dir), ("baseline", base_dir)):
        if not Path(d).is_dir():
            raise FileNotFoundError(f"{label} directory {d} does not exist")
    new_results = load_dir(new_dir)
    baselines = load_dir(base_dir)
    comparisons: list[Regression] = []
    missing: list[str] = []
    for name, result in new_results.items():
        base = baselines.get(name)
        if base is None:
            missing.append(name)
            continue
        comparisons.extend(compare(result, base))
    return DirComparison(comparisons, missing)


__all__ = [
    "TIME_TOLERANCE",
    "DEFAULT_TOLERANCE",
    "DirComparison",
    "Regression",
    "default_baseline_dir",
    "metric_tolerance",
    "compare",
    "compare_dirs",
]
