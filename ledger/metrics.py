"""From results, reports and spans to the ledger's named metrics.

Two clocks, kept apart by name: everything called ``modelled`` (and every
``runtime.*``/``hw.*``/``shard.*`` count) is read off result objects and
lives on the simulator's virtual clock; everything in ``*_ms`` without
``modelled`` in its name, ``host_*``, ``*_per_s`` and ``*_share`` is host
wall time measured by the ledger.

Where a per-layer number comes from (README, "Per-layer metrics"):

- a **time** is taken from the timed section when the workload's own
  operations call that layer, and otherwise from the *walk* -- the
  stepwise journey over the workload's probe cell that every traced run
  makes before timing -- so each time is a measurement on every workload;
- a **share** describes the timed section only, and a **count** its first
  pass (the part that is the same work on every host, so counts repeat
  exactly): zero means the layer did no work there.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict

PRIMITIVES = ("GEMM", "SpDMM", "SPMM", "SKIP")
#: the phases ``ServingReport.phase_breakdown`` splits a request into
SERVE_PHASES = ("queue_wait", "compile", "execute", "barrier")


# -- statistics ---------------------------------------------------------
def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def steady(values) -> float:
    """The fastest of one cell's host times: what the operation costs when
    the box leaves it alone.

    The reference box shares its memory system with neighbours.  Their
    interference only ever adds time, comes in bursts that can cover most
    of a run, and hits an operation harder the longer it is.  Over ten runs
    on ten seeds during one such spell the per-cell median moved 16-42%
    from run to run, the lower quartile 12-31%, the minimum 8-13% (31% on
    the 1 s operations ``cold_large`` then had); on a quiet box the three
    read 5.5%, 2.2% and 1.7% on ``cold_small``.  Every cell repeats one
    operation on inputs of one size, so the minimum is not picking an easy
    input.  Runs print the median beside it."""
    return min(values, default=0.0)


def by_cell_geomean(pairs) -> float:
    """Geometric mean over cells of each cell's steady time; ``pairs`` is
    an iterable of ``(cell, value)``.  Every cell weighs the same however
    many samples the time budget let it take."""
    cells: dict[str, list[float]] = defaultdict(list)
    for cell, value in pairs:
        cells[cell].append(value)
    return geomean(steady(v) for v in cells.values())


def tail(samples) -> tuple[float, str, int]:
    """Highest of p99/p95/p90 of per-sample (time / its cell's steady
    time) that has at least ten samples beyond it; under 100 samples none
    has, and the maximum is reported and labelled as such."""
    cells: dict[str, list[float]] = defaultdict(list)
    for cell, value in samples:
        cells[cell].append(value)
    ratios = sorted(
        value / steady(values)
        for values in cells.values() for value in values
    )
    n = len(ratios)
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            return ratios[min(n - 1, math.ceil(n * pct / 100) - 1)], f"p{pct}", n
    return ratios[-1], "max", n


# -- exact statistics of one result -------------------------------------
def inference_stats(result) -> dict:
    """Every virtual-clock statistic of a single-device result."""
    ks = result.kernel_stats
    to_ms = result.config.cycles_to_ms
    prims = {p.value: int(c) for p, c in result.primitive_totals.items()}
    out = {
        "latency_ms": result.latency_ms,
        "total_cycles": result.total_cycles,
        "exposed_overhead_cycles": result.exposed_overhead_cycles,
        "k2p_modelled_us": result.runtime_overhead_seconds * 1e6,
        "overhead_fraction": result.overhead_fraction,
        "load_balance": result.load_balance(),
        "tasks": result.num_tasks,
        "pairs": result.num_pairs,
        "skipped_pairs": sum(k.skipped_pairs for k in ks),
        "macs": int(result.total_macs),
        "bytes_read": int(result.bytes_read),
        "bytes_written": int(result.bytes_written),
        "compute_cycles": sum(k.compute_cycles for k in ks),
        "memory_cycles": sum(k.memory_cycles for k in ks),
        "transform_cycles": sum(k.transform_cycles for k in ks),
        "profile_cycles": sum(k.profile_cycles for k in ks),
        "aggregate_modelled_ms": to_ms(
            sum(k.cycles for k in ks if k.ktype.name == "AGGREGATE")),
        "update_modelled_ms": to_ms(
            sum(k.cycles for k in ks if k.ktype.name == "UPDATE")),
    }
    for name in PRIMITIVES:
        out[f"primitive.{name}"] = prims.get(name, 0)
    return out


def sharded_stats(result, single_latency_ms: float) -> dict:
    return {
        "latency_ms": result.latency_ms,
        "halo_fraction": result.halo_fraction,
        "halo_bytes": int(result.halo_bytes),
        "balance": result.load_balance(),
        "k2p_modelled_us": result.runtime_overhead_seconds * 1e6,
        "modelled_speedup_vs_1": single_latency_ms / result.latency_ms,
    }


def serve_stats(report) -> dict:
    phases = report.phase_breakdown
    return {
        "requests": report.num_requests,
        "throughput_rps": report.throughput_rps,
        "latency_p50_ms": report.latency_p50_s * 1e3,
        "latency_p99_ms": report.latency_p99_s * 1e3,
        "latency_mean_ms": report.latency_mean_s * 1e3,
        "makespan_ms": report.makespan_s * 1e3,
        "batches": report.num_batches,
        "avg_batch_size": report.avg_batch_size,
        "queue_p95_ms": report.queue_p95_s * 1e3,
        **{f"{phase}_p99_ms": phases[phase]["p99"] * 1e3 for phase in SERVE_PHASES},
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "pool_utilization": statistics.fmean(report.device_utilization),
        "pool_load_balance": report.load_balance,
        "shed": report.shed_requests,
        "mutations": report.num_mutations,
        "patches": report.num_patches,
        "patch_fallbacks": report.num_patch_fallbacks,
        "evictions": report.mutation_evictions,
        "patch_ms": report.patch_s * 1e3,
        "compile_ms": report.compile_s * 1e3,
    }


def digest(rows: list) -> str:
    """sha256 over exact statistics; floats go in as hex so the digest
    changes when and only when a bit of some statistic does."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: exact(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [exact(v) for v in value]
        return value
    return hashlib.sha256(json.dumps(exact(rows)).encode()).hexdigest()


# -- per-layer metrics of a traced run ----------------------------------
def _total(rows, key):
    return sum(r[key] for r in rows)


def _mean(rows, key):
    return statistics.fmean(r[key] for r in rows) if rows else 0.0


def per_layer(run) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    ``run`` is the ``run.Measurement`` of a traced run: its recorder, its
    timed samples and the exact statistics filed by phase.
    """
    rec = run.recorder
    timed_s = sum(s.seconds for s in run.samples)

    def span_ms(name: str) -> float:
        timed = rec.select(name, "timed")
        if timed:
            return by_cell_geomean((s.cell, s.dur * 1e3) for s in timed)
        return walk_ms(name)

    def walk_ms(name: str) -> float:
        return steady(s.dur * 1e3 for s in rec.select(name, "walk"))

    def share(name: str) -> float:
        return sum(s.dur for s in rec.select(name, "timed")) / timed_s

    def hosted(kind: str) -> list[dict]:
        """Rows that carry the host seconds of their span: the timed
        section's when its operations produce them, else the walk's."""
        for phase in ("timed", "walk"):
            found = [r for r in run.stats[kind, phase] if "host_s" in r]
            if found:
                return found
        return []

    m: dict[str, float] = {}

    # datasets
    m["datasets.load_ms"] = span_ms("datasets.load")
    m["datasets.load_share"] = share("datasets.load")
    loads = hosted("load")
    m["datasets.nnz_per_s"] = _total(loads, "nnz") / _total(loads, "host_s")

    # gnn and compiler: standalone probes of the walk, and the phase
    # clocks the compiler publishes on every program it builds
    m["gnn.adjacency_ms"] = walk_ms("gnn.adjacency")
    m["gnn.weights_ms"] = walk_ms("gnn.weights")
    m["compiler.compile_ms"] = walk_ms("compiler.compile")
    timings = run.stats["compile", "timed"] or run.stats["compile", "walk"]
    for phase in ("parse", "partition", "profile"):
        m[f"compiler.{phase}_ms"] = by_cell_geomean(
            (t["cell"], t[f"{phase}_ms"]) for t in timings)

    # engine
    m["engine.construct_ms"] = span_ms("engine.construct")
    m["engine.compile_ms"] = span_ms("engine.compile")
    m["engine.compile_share"] = share("engine.compile")
    m["engine.facade_self_ms"] = (
        walk_ms("engine.compile") - walk_ms("gnn.weights") - walk_ms("compiler.compile"))
    hits, misses, evictions = run.cache_delta
    m["engine.cache_lookups"] = hits + misses
    m["engine.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["engine.cache_evictions"] = evictions
    served = run.exact("serve")
    m["engine.pool_utilization"] = median([r["pool_utilization"] for r in served])
    m["engine.pool_load_balance"] = median([r["pool_load_balance"] for r in served])

    # runtime, host side
    m["runtime.first_infer_ms"] = span_ms("runtime.first_infer")
    m["runtime.warm_infer_ms"] = span_ms("runtime.warm_infer")
    m["runtime.view_build_ms"] = walk_ms("runtime.first_infer") - walk_ms("runtime.warm_infer")
    m["runtime.infer_share"] = share("runtime.first_infer") + share("runtime.warm_infer")
    inferred = hosted("inference")
    m["runtime.pairs_per_s"] = _total(inferred, "pairs") / _total(inferred, "host_s")
    m["runtime.sim_slowdown"] = geomean(
        r["host_s"] * 1e3 / r["latency_ms"] for r in inferred)

    # runtime and hw, virtual clock: one row per distinct operation
    exact = run.exact("inference")
    for key in ("tasks", "pairs", "skipped_pairs", "k2p_modelled_us",
                *(f"primitive.{p}" for p in PRIMITIVES)):
        m[f"runtime.{key}"] = _total(exact, key)
    m["runtime.overhead_fraction"] = _mean(exact, "overhead_fraction")
    m["runtime.load_balance"] = _mean(exact, "load_balance")
    for static in ("S1", "S2"):
        m[f"runtime.speedup_vs_{static.lower()}"] = (
            speedup(exact, static) or speedup(run.stats["inference", "walk"], static))
    for key in ("aggregate_modelled_ms", "update_modelled_ms", "compute_cycles",
                "memory_cycles", "transform_cycles", "profile_cycles", "macs",
                "bytes_read", "bytes_written"):
        m[f"hw.{key}"] = _total(exact, key)

    # shard
    m["shard.plan_ms"] = walk_ms("shard.plan")
    m["shard.infer_ms"] = span_ms("shard.infer")
    m["shard.infer_share"] = share("shard.infer")
    m["shard.host_overhead_vs_single"] = by_cell_geomean(
        (r["cell"], r["host_s"] / r["single_host_s"]) for r in hosted("sharded"))
    sharded = run.exact("sharded") or run.stats["sharded", "walk"][:1]
    m["shard.halo_fraction"] = _mean(sharded, "halo_fraction")
    m["shard.halo_bytes"] = _total(sharded, "halo_bytes")
    m["shard.balance"] = _mean(sharded, "balance")
    m["shard.modelled_speedup_vs_1"] = geomean(r["modelled_speedup_vs_1"] for r in sharded)

    # serve: the workload's own reports, else the walk's probe stream
    reports = hosted("serve")
    m["serve.serve_ms"] = span_ms("serve.serve")
    m["serve.serve_share"] = share("serve.serve")
    m["serve.host_us_per_request"] = median(
        [r["host_s"] * 1e6 / r["requests"] for r in reports])
    m["serve.batches"] = median([r["batches"] for r in reports])
    m["serve.avg_batch_size"] = median([r["avg_batch_size"] for r in reports])
    m["serve.queue_p95_ms"] = median([r["queue_p95_ms"] for r in reports])
    for phase in SERVE_PHASES:
        m[f"serve.phase.{phase}_p99_ms"] = median([r[f"{phase}_p99_ms"] for r in reports])
    m["serve.compile_ms_total"] = _total(served, "compile_ms")

    # dyngraph
    m["dyngraph.mutate_ms"] = walk_ms("dyngraph.mutate")
    patches = _total(served, "patches")
    if patches:
        m["dyngraph.patch_ms"] = _total(served, "patch_ms") / patches
    else:
        m["dyngraph.patch_ms"] = median([r["patch_ms"] for r in run.stats["patch", "walk"]])
    m["dyngraph.patches"] = patches
    m["dyngraph.patch_fallbacks"] = _total(served, "patch_fallbacks")
    m["dyngraph.evictions"] = _total(served, "evictions")

    # the trace itself
    spans_timed = sum(1 for s in rec.spans if s.phase == "timed")
    m["trace.overhead_frac"] = spans_timed * run.span_cost_s / timed_s
    m["trace.residual_frac"] = rec.residual_frac("timed")
    ratio, _, _ = tail((s.cell, s.seconds) for s in run.samples)
    m["op_wall_ms_tail"] = ratio * by_cell_geomean(
        (s.cell, s.seconds * 1e3) for s in run.samples)
    return m


def speedup(rows: list[dict], static: str) -> float:
    """Geomean over (model, graph, prune) groups of static / Dynamic
    modelled latency; groups lacking either strategy do not count."""
    groups: dict[str, dict[str, float]] = defaultdict(dict)
    for r in rows:
        groups[r["group"]][r["strategy"]] = r["latency_ms"]
    return geomean(
        g[static] / g["Dynamic"] for g in groups.values()
        if static in g and "Dynamic" in g
    )
