"""repro.perf — benchmark orchestration and performance-regression tracking.

The measurement substrate every scale/speed PR is judged by:

- a flat **bench registry** (:func:`register_bench`) that the scripts in
  ``benchmarks/`` populate at import time via :func:`discover`;
- a **runner** with ``smoke`` / ``full`` tiers emitting one canonical
  ``BENCH_<name>.json`` per spec (metrics with units and improvement
  direction, repeat count, environment fingerprint);
- a **baseline store** under ``results/baselines/`` with tolerance-band
  comparison (:func:`compare` -> :class:`Regression` list) gating CI;
- a cProfile-based **hotspot profiler** (``repro bench --profile``).

CLI: ``repro bench`` runs + emits + optionally gates; ``repro perf-diff``
compares two result directories or results against the baseline store.
"""

from repro.perf.baseline import (
    DEFAULT_TOLERANCE,
    TIME_TOLERANCE,
    Regression,
    compare,
    compare_dirs,
    default_baseline_dir,
)
from repro.perf.profiler import Hotspot, ProfileReport, profile_bench
from repro.perf.runner import SuiteReport, run_bench, run_suite
from repro.perf.schema import (
    SCHEMA_VERSION,
    BenchResult,
    EnvFingerprint,
    Metric,
    load_dir,
)
from repro.perf.spec import (
    TIERS,
    BenchSpec,
    all_benches,
    clear_registry,
    discover,
    get_bench,
    register_bench,
    select,
)

__all__ = [
    "SCHEMA_VERSION",
    "TIERS",
    "TIME_TOLERANCE",
    "DEFAULT_TOLERANCE",
    "BenchResult",
    "BenchSpec",
    "EnvFingerprint",
    "Hotspot",
    "Metric",
    "ProfileReport",
    "Regression",
    "SuiteReport",
    "all_benches",
    "clear_registry",
    "compare",
    "compare_dirs",
    "default_baseline_dir",
    "discover",
    "get_bench",
    "load_dir",
    "profile_bench",
    "register_bench",
    "run_bench",
    "run_suite",
    "select",
]
