"""The ``repro bench`` and ``repro perf-diff`` subcommands (wired from
``repro.__main__``).

Both are gate runners over directories of ``BENCH_*.json``: what they
report on is the repository, not a run of the system.  Exit codes: 0
when every selected bench ran and nothing regressed beyond tolerance, 1
otherwise; a bad value or a missing directory raises, and exits through
``repro.__main__``'s one handler.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import Any

from repro.perf.baseline import compare_dirs, default_baseline_dir
from repro.perf.profiler import profile_bench
from repro.perf.runner import run_suite
from repro.perf.spec import discover, select


def _names(value: str | None) -> list[str] | None:
    """A comma-separated flag value as a list of names (unset stays unset)."""
    if value is None:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def add_parsers(sub: Any) -> None:
    p_bench = sub.add_parser(
        "bench",
        help="run registered benchmark specs and emit BENCH_<name>.json "
             "(repro.perf)",
    )
    p_bench.add_argument("--tier", choices=("smoke", "full"), default="smoke",
                         help="smoke: seconds-fast CI gate; full: the "
                              "complete paper suite")
    p_bench.add_argument("--names", default=None,
                         help="comma-separated bench names (default: all "
                              "in the tier)")
    p_bench.add_argument("--tags", default=None,
                         help="comma-separated tag filter")
    p_bench.add_argument("--out", default=None,
                         help="result directory (default: results/bench)")
    p_bench.add_argument("--repeats", type=int, default=1,
                         help="wall-clock repeats per spec (min is kept)")
    p_bench.add_argument("--benchmarks-dir", default=None,
                         help="directory with bench_*.py scripts "
                              "(default: $REPRO_BENCHMARKS_DIR or "
                              "./benchmarks)")
    p_bench.add_argument("--baseline-dir", default=None,
                         help="baseline store (default: results/baselines)")
    p_bench.add_argument("--check-baseline", action="store_true",
                         help="compare against the baseline store and exit "
                              "1 on any regression beyond tolerance")
    p_bench.add_argument("--update-baseline", action="store_true",
                         help="promote this run's results to the baseline "
                              "store")
    p_bench.add_argument("--list", action="store_true",
                         help="list the selected specs and exit")
    p_bench.add_argument("--profile", action="store_true",
                         help="run under cProfile and print hotspots "
                              "instead of emitting results")
    p_bench.set_defaults(func=bench)

    p_diff = sub.add_parser(
        "perf-diff",
        help="compare BENCH_*.json result directories; exit 1 on "
             "regression beyond tolerance",
    )
    p_diff.add_argument("new", help="directory with the new BENCH_*.json")
    p_diff.add_argument("baseline", nargs="?", default=None,
                        help="comparison directory (default: "
                             "results/baselines)")
    p_diff.add_argument("--all", action="store_true",
                        help="also print metrics within tolerance")
    p_diff.add_argument("--attribute", action="store_true",
                        help="on regression (or with --all), print the "
                             "new trace's critical-path attribution beside "
                             "the BENCH numbers")
    p_diff.add_argument("--trace", default=None, metavar="PATH",
                        help="new trace.json (default: <new>/trace.json)")
    p_diff.set_defaults(func=perf_diff)


def bench(args: argparse.Namespace) -> int:
    from repro.harness import results_dir

    discover(args.benchmarks_dir)
    names, tags = _names(args.names), _names(args.tags)
    if args.list or args.profile:
        # the same selection (names, tags AND tier) as the run path
        for spec in select(tier=args.tier, names=names, tags=tags):
            print(
                profile_bench(spec, tier=args.tier).format_table()
                if args.profile else spec.describe()
            )
        return 0
    baseline_dir = Path(args.baseline_dir) if args.baseline_dir else (
        default_baseline_dir()
    )
    check = args.check_baseline and not args.update_baseline
    if check and not baseline_dir.is_dir():
        # a missing store must fail loudly — comparing against nothing
        # would report a vacuously green gate
        raise FileNotFoundError(
            f"baseline directory {baseline_dir} does not exist "
            "(run --update-baseline first or pass --baseline-dir)"
        )
    report = run_suite(
        tier=args.tier,
        names=names,
        tags=tags,
        repeats=args.repeats,
        out_dir=Path(args.out) if args.out else results_dir() / "bench",
        baseline_dir=baseline_dir if check else None,
        scale_mode=(
            "full" if os.environ.get("REPRO_FULL_SCALE") == "1" else "bench"
        ),
    )
    if args.update_baseline:
        report.promote(baseline_dir)
    print(report.format_report())
    return 0 if report.ok else 1


def perf_diff(args: argparse.Namespace) -> int:
    new_dir = Path(args.new)
    base_dir = Path(args.baseline) if args.baseline else default_baseline_dir()
    diff = compare_dirs(new_dir, base_dir)
    if not diff.comparisons and not diff.missing:
        raise ValueError(
            f"no overlapping BENCH_*.json between {new_dir} and {base_dir}"
        )
    print(diff.format_report(show_all=args.all))
    if args.attribute and (diff.regressions or args.all):
        # pair the BENCH numbers with the trace artifact: where the
        # latency lives on the critical path
        from repro.obs import attribution_lines

        print("\n" + "\n".join(attribution_lines(
            Path(args.trace) if args.trace else new_dir / "trace.json"
        )))
    return 1 if diff.regressions else 0
