#!/usr/bin/env python
"""Post-run analysis: where Dynamic beats S1.

Runs GCN on PubMed under Dynamic and S1, then attributes the SO-S1
speedup kernel by kernel, with each kernel's primitive mix under both.
"""

from repro import Engine
from repro.analysis.compare import format_comparison


def main() -> None:
    engine = Engine()
    handle = engine.compile("GCN", "PU", seed=0)

    results = {
        strat: engine.infer(handle, strategy=strat)
        for strat in ("Dynamic", "S1")
    }

    dyn = results["Dynamic"]
    print(dyn.format_report())

    print("\n--- Dynamic vs S1, per kernel ---")
    print(format_comparison(dyn, results["S1"]))


if __name__ == "__main__":
    main()
