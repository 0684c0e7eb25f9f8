"""Compare two ledgers: ``python3 ledger/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change; each is a file
written by ``run.py --out``, or several of them joined by commas when a
side was run more than once (then medians are compared and the spread of
the base's runs is known).

One row per (workload, end-to-end metric): both values, the ratio with its
base, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          no worse than the bound allows
``improved``    better by more than the bound
``REGRESSION``  worse by more than the bound (exit status 1)
``unresolved``  the base's own runs spread wider than the bound, so the
                difference cannot be told from noise -- unless every run of
                the change reads better than every run of the base

Virtual-clock metrics (``modelled_*``) are held to 1e-9 relative instead of
the bound when both sides ran the same seed on a workload whose virtual
clock takes no host time (all but ``serve_churn``): the simulator is
deterministic, so any difference there is a change of the model, never
noise.  A changed ``modelled_digest`` is flagged for the same reason; it is
the proof a host-only speedup left every simulated statistic alone.
``failed_frac`` may not rise at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

EXACT_RTOL = 1e-9
#: workloads whose virtual clock is charged host-measured seconds
HOST_ON_VIRTUAL_CLOCK = ("serve_churn",)


def load(arg: str) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in arg.split(",")]


def values(runs: list[dict], workload: str, section: str, metric: str) -> list[float]:
    return [r["workloads"][workload][section][metric]["value"]
            for r in runs if metric in r["workloads"].get(workload, {}).get(section, {})]


def spread(vals: list[float]) -> float | None:
    """Interquartile distance over the median, as the contract takes it."""
    if len(vals) < 2 or not statistics.median(vals):
        return None
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(statistics.median(vals))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base, change = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (change - base) / abs(base) if base else 0.0
    if abs(worse) <= bound:
        return "ok"
    noise = spread(a)
    if noise is not None and noise > bound:
        clear = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        if not clear:
            return "unresolved"
    return "REGRESSION" if worse > 0 else "improved"


def compare(base: list[dict], change: list[dict], spec: dict, layers: bool = False) -> int:
    regressions = 0
    same_seed = {r["seed"] for r in base} == {r["seed"] for r in change}
    names = [w["name"] for w in spec["workloads"]
             if all(w["name"] in r["workloads"] for r in base + change)]
    print(f"{'workload':<13}{'metric':<26}{'base':>15}{'change':>15}"
          f"{'change/base':>13}{'bound':>8}  verdict")
    for name in names:
        exact = same_seed and name not in HOST_ON_VIRTUAL_CLOCK
        for m in spec["end_to_end"]:
            a = values(base, name, "end_to_end", m["name"])
            b = values(change, name, "end_to_end", m["name"])
            if not a or not b:
                continue
            bound = m["bound"]
            if exact and m["name"].startswith("modelled_"):
                bound = EXACT_RTOL
            word = verdict(a, b, m["better"], bound)
            regressions += word == "REGRESSION"
            ma, mb = statistics.median(a), statistics.median(b)
            print(f"{name:<13}{m['name']:<26}{ma:>15.6g}{mb:>15.6g}"
                  f"{mb / ma if ma else float('nan'):>13.4f}{bound:>8.2g}  {word}")
        fa = max(r["workloads"][name]["failed_frac"] for r in base)
        fb = max(r["workloads"][name]["failed_frac"] for r in change)
        word = "REGRESSION" if fb > fa else "ok"
        regressions += word == "REGRESSION"
        print(f"{name:<13}{'failed_frac':<26}{fa:>15.6g}{fb:>15.6g}{'':>13}{0:>8}  {word}")
        da = {r["workloads"][name]["modelled_digest"] for r in base}
        db = {r["workloads"][name]["modelled_digest"] for r in change}
        if exact:
            word = "identical" if da == db and len(da) == 1 else "CHANGED"
            print(f"{name:<13}{'modelled_digest':<26}{min(da)[:12]:>15}{min(db)[:12]:>15}"
                  f"{'':>13}{'':>8}  {word}")
        if layers:
            for m in spec["per_layer"]:
                a = values(base, name, "per_layer", m["name"])
                b = values(change, name, "per_layer", m["name"])
                if a and b:
                    ma, mb = statistics.median(a), statistics.median(b)
                    print(f"{name:<13}{m['name']:<26}{ma:>15.6g}{mb:>15.6g}"
                          f"{mb / ma if ma else float('nan'):>13.4f}{'':>8}  "
                          f"(per-layer, better: {m['better']})")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="ledger JSON of the base; commas join repeated runs")
    parser.add_argument("change", help="ledger JSON of the change")
    parser.add_argument("--layers", action="store_true",
                        help="also print the per-layer metrics (no verdict: they have no bound)")
    args = parser.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return compare(load(args.base), load(args.change), spec, args.layers)


if __name__ == "__main__":
    sys.exit(main())
