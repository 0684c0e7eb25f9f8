#!/usr/bin/env python
"""Modelled Dynamic latency (ms) over the two grids README "Which primitive
a pair takes" and CHANGES.md quote, one cell a line, so that two commits
can be diffed: the perf ledger's ``warm_sweep`` cells (PubMed at 0.25,
seed 0, weights dense and pruned to 90%, under S1 / S2 / Dynamic) and
{CO, CI, PU@0.5, FL@0.1, RE@0.02} x 4 models x prune {0, 0.5, 0.9, 0.99}
(seed 1, Dynamic).  The last column counts the output partitions that
left the core as COO (README "How an output leaves the core").

    PYTHONPATH=src python examples/k2p_cells.py > cells.txt
"""

from repro import Engine

MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")


def coo_writebacks(result) -> int:
    return sum(getattr(ks, "coo_writebacks", 0) for ks in result.kernel_stats)


def main() -> None:
    engine = Engine()
    for model in MODELS:
        for prune in (0.0, 0.9):
            handle = engine.compile(model, "PU", scale=0.25, seed=0, prune=prune)
            for strategy in ("S1", "S2", "Dynamic"):
                result = engine.infer(handle, strategy=strategy)
                print(f"warm_sweep {model}/p{prune:g}/{strategy} "
                      f"{result.latency_ms:.4f} {coo_writebacks(result)}")
    for dataset, scale in (("CO", 1.0), ("CI", 1.0), ("PU", 0.5), ("FL", 0.1), ("RE", 0.02)):
        for model in MODELS:
            for prune in (0.0, 0.5, 0.9, 0.99):
                engine = Engine()  # nothing cached between cells
                handle = engine.compile(model, dataset, scale=scale, seed=1, prune=prune)
                result = engine.infer(handle)
                print(f"matrix {dataset}@{scale:g}/{model}/p{prune:g} "
                      f"{result.latency_ms:.4f} {coo_writebacks(result)}")


if __name__ == "__main__":
    main()
