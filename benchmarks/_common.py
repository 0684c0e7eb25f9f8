"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Heavy
simulation results are cached per process, that is per ``repro bench``
run (datasets, compiled programs, inference runs), so benches that share
inputs — e.g. Table VII, Fig. 13 and Table VIII all consume
strategy-comparison runs — only simulate once.

Dataset scales: full-size graphs for CiteSeer/Cora/PubMed; Flickr, NELL
and Reddit run scaled down by default so the whole harness finishes in
minutes on a laptop (the kernel-to-primitive behaviour is governed by
densities, which the generators preserve — see DESIGN.md).  Set
``REPRO_FULL_SCALE=1`` for full-scale runs where memory permits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

from repro import Engine, load_dataset, u250_default
from repro.config import AcceleratorConfig
from repro.engine import ProgramHandle
from repro.harness import format_table, geomean, sci, speedup_fmt, write_result
from repro.perf import Metric, register_bench
from repro.runtime import end_to_end_seconds

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") == "1"

#: per-dataset generation parameters: (scale, feature_dim override)
BENCH_PROFILE = {
    "CI": (1.0, None),
    "CO": (1.0, None),
    "PU": (1.0, None),
    "FL": (0.25, None),
    "NE": (0.25, 16384),
    "RE": (0.05, None),
}
FULL_PROFILE = {
    "CI": (1.0, None),
    "CO": (1.0, None),
    "PU": (1.0, None),
    "FL": (1.0, None),
    "NE": (1.0, None),
    "RE": (0.2, None),
}
#: smaller instances for the pruning sweeps (many runs per dataset)
SWEEP_PROFILE = {
    "CI": (1.0, None),
    "CO": (1.0, None),
    "PU": (0.3, None),
    "FL": (0.1, None),
    "NE": (0.1, 8192),
    "RE": (0.02, None),
}

DATASETS = ("CI", "CO", "PU", "FL", "NE", "RE")
MODELS = ("GCN", "GraphSAGE", "GIN", "SGC")
STRATEGIES = ("S1", "S2", "Dynamic")


def profile(sweep: bool = False) -> dict:
    if FULL_SCALE:
        return FULL_PROFILE
    return SWEEP_PROFILE if sweep else BENCH_PROFILE


@lru_cache(maxsize=None)
def get_dataset(name: str, sweep: bool = False):
    scale, fdim = profile(sweep)[name]
    return load_dataset(name, scale=scale, feature_dim=fdim, seed=42)


def engine_for(config: AcceleratorConfig | None = None) -> Engine:
    """One Engine per accelerator config: program cache + device pool
    shared by every bench in the session (configs are frozen/hashable).
    The default config is normalised before the cache lookup so
    ``engine_for()`` and ``engine_for(u250_default())`` share an engine."""
    return _engine_for(config or u250_default())


@lru_cache(maxsize=None)
def _engine_for(config: AcceleratorConfig) -> Engine:
    return Engine(config, cache_capacity=256)


@lru_cache(maxsize=None)
def get_handle(model_name: str, ds_name: str, sparsity_pct: int = 0,
               sweep: bool = False) -> ProgramHandle:
    data = get_dataset(ds_name, sweep)
    return engine_for().compile(
        model_name, data, seed=7, prune=sparsity_pct / 100.0
    )


def get_program(model_name: str, ds_name: str, sparsity_pct: int = 0,
                sweep: bool = False):
    return get_handle(model_name, ds_name, sparsity_pct, sweep).program


@dataclass(frozen=True)
class RunSummary:
    """Scalar summary of one simulated run (results cached, outputs dropped)."""

    model: str
    dataset: str
    strategy: str
    sparsity_pct: int
    latency_ms: float
    total_cycles: float
    overhead_fraction: float
    runtime_overhead_s: float
    macs: int
    bytes_moved: int
    num_tasks: int
    num_pairs: int
    skipped_pairs: int
    load_balance: float
    end_to_end_s: float
    compile_ms: float


@lru_cache(maxsize=None)
def run(model_name: str, ds_name: str, strategy: str, sparsity_pct: int = 0,
        sweep: bool = False) -> RunSummary:
    """Simulate one (model, dataset, strategy, weight-sparsity) cell."""
    handle = get_handle(model_name, ds_name, sparsity_pct, sweep)
    program = handle.program
    result = engine_for().infer(handle, strategy=strategy)
    from repro.hw.report import Primitive

    return RunSummary(
        model=model_name,
        dataset=ds_name,
        strategy=strategy,
        sparsity_pct=sparsity_pct,
        latency_ms=result.latency_ms,
        total_cycles=result.total_cycles,
        overhead_fraction=result.overhead_fraction,
        runtime_overhead_s=result.runtime_overhead_seconds,
        macs=result.total_macs,
        bytes_moved=result.bytes_read + result.bytes_written,
        num_tasks=result.num_tasks,
        num_pairs=result.num_pairs,
        skipped_pairs=result.primitive_totals.get(Primitive.SKIP, 0),
        load_balance=result.load_balance(),
        end_to_end_s=end_to_end_seconds(program, result),
        compile_ms=program.timings.total_ms,
    )


def best_of(fn, repeats: int = 5):
    """``(fn()'s result, fastest wall seconds)`` over ``repeats`` calls."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def emit(name: str, table: str) -> str:
    """Print a rendered table and persist it under results/."""
    print("\n" + table)
    write_result(name, table)
    return table


__all__ = [
    "BENCH_PROFILE",
    "DATASETS",
    "MODELS",
    "STRATEGIES",
    "FULL_SCALE",
    "Metric",
    "RunSummary",
    "best_of",
    "emit",
    "engine_for",
    "format_table",
    "geomean",
    "get_dataset",
    "get_handle",
    "get_program",
    "profile",
    "register_bench",
    "run",
    "sci",
    "speedup_fmt",
]
