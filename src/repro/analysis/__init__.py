"""Post-run analysis: run diffing.

:func:`~repro.analysis.compare.compare_runs` is a side-by-side diff of two
runs (e.g. Dynamic vs S1) with per-kernel speedups and primitive-mix
changes.
"""

from repro.analysis.compare import compare_runs

__all__ = ["compare_runs"]
