"""D1 — dyngraph: patch-vs-recompile cost and serving under graph churn.

Two claims, both measured (host wall-clock for the patch/compile costs,
virtual-clock serving metrics for the churn stream):

1. patching a compiled program for a <=1%-edge delta is more than 2x
   cheaper than a full recompile on the mid-size synthetic dataset
   (PubMed at full scale; more than 1x on the smoke instance, PubMed at
   half scale: on Cora a patch and a recompile cost about the same,
   because ``gcn_norm`` is most of each).  Both
   calls return a program that holds every censused view its kernels
   read.  The gate is a floor, not a goal: the ratio falls whenever a
   compile gets cheaper (it builds its adjacency with the patch's own
   statements and counts each operand once), and the committed baseline
   tracks where it stands;
2. under an interleaved infer/mutate stream, an engine that patches
   cached programs sustains higher throughput than one that evicts and
   recompiles.

Two specs run the two instances: ``dyngraph_churn`` (full: PubMed, both
claims) and ``dyngraph_churn_pu_half_cora`` (smoke: PubMed at half scale
for the patch, Cora for the stream; it only checks that patching beats
recompiling and that the stream patched).
"""

import time

from _common import Metric, emit, format_table, register_bench
from repro.compiler.compile import Compiler
from repro.config import u250_default
from repro.datasets import load_dataset
from repro.dyngraph import MutableGraph, ProgramPatcher, random_delta
from repro.gnn import build_model, init_weights
from repro.engine import Engine
from repro.serve import churn_stream

#: patch instances: (dataset, scale), ~1% edge churn per delta
MICRO, SMOKE_MICRO = ("PU", 1.0), ("PU", 0.5)
EDGE_FRACTION = 0.01
#: churn streams: (dataset, scale, events, edge fraction per mutation)
CHURN = ("PU", 0.25, 48, 0.005)
SMOKE_CHURN = ("CO", 1.0, 24, 0.01)
#: acceptance floor for the full-size microbenchmark (smoke: 1.0)
MIN_SPEEDUP = 2.0
#: both metrics are ratios of same-machine wall-clock costs: stable in
#: sign and magnitude class, but jittery enough to need a wide band
TOLERANCES = {"patch_speedup": 0.75, "patch_vs_evict_throughput": 0.75}


def _gcn(data):
    model = build_model("GCN", data.num_features, data.hidden_dim,
                        data.num_classes)
    return model, init_weights(model, seed=0)


def patch_speedup(dataset: str, scale: float, repeats: int) -> float:
    """Best-of-``repeats`` recompile seconds over patch seconds, one random
    delta per repeat (``EDGE_FRACTION`` of the edges, half inserted, half
    deleted, plus 8 feature updates); the patch table is emitted."""
    graph = MutableGraph(load_dataset(dataset, scale=scale, seed=0),
                         graph_id=f"{dataset}-bench")
    snapshot = graph.snapshot()
    model, weights = _gcn(snapshot)
    compiler = Compiler(u250_default())
    program = compiler.compile(model, snapshot, weights)
    patcher = ProgramPatcher()
    n_changes = max(1, int(graph.nnz * EDGE_FRACTION / 2))
    recompile_s = patch_s = float("inf")
    for rep in range(repeats):
        applied = graph.apply(random_delta(
            graph.num_vertices, snapshot.num_features, edge_inserts=n_changes,
            edge_deletes=n_changes, feature_updates=8, seed=101 * (rep + 1),
        ))
        snapshot = graph.snapshot()
        t0 = time.perf_counter()
        compiler.compile(model, snapshot, weights)
        recompile_s = min(recompile_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        program, report = patcher.patch(program, snapshot, applied)
        patch_s = min(patch_s, time.perf_counter() - t0)
        assert report.patched, f"the delta fell back to a recompile: {report.reason}"
    emit("bench_dyngraph_patch", format_table(
        ["dataset", "nnz(A)", "delta edges", "recompile (ms)", "patch (ms)",
         "speedup"],
        [[dataset, f"{graph.nnz:,}", 2 * n_changes, f"{recompile_s * 1e3:.2f}",
          f"{patch_s * 1e3:.2f}", f"{recompile_s / patch_s:.1f}x"]],
        title="D1a: program patch vs full recompile (<=1% edge delta)",
    ))
    return recompile_s / patch_s


def churn(dataset: str, scale: float, num_requests: int,
          edge_fraction: float) -> dict:
    """Mutation policy -> the report of one infer/mutate stream (every 6th
    event a mutation) on 2 devices; the churn table is emitted.

    Each policy gets its own engine and its own graph from one seed, so
    both see bit-identical graphs, deltas and arrivals.  The stream spans
    three measured compiles of virtual time: recompile stalls queue
    requests, but no single compile dominates the sweep.
    """
    data = load_dataset(dataset, scale=scale, seed=0)
    model, weights = _gcn(data)
    probe = Compiler(u250_default()).compile(model, data, weights)
    rate = num_requests / (3.0 * max(probe.timings.total_s, 1e-4))
    reports = {}
    for policy in ("patch", "evict"):
        graph = MutableGraph(load_dataset(dataset, scale=scale, seed=0),
                             graph_id=f"{dataset}-churn")
        engine = Engine(u250_default(), pool_size=2)
        engine.register_graph(graph)
        reports[policy] = engine.serve(churn_stream(
            num_requests, graph=graph, mutation_every=6,
            edge_fraction=edge_fraction, rate_rps=rate,
        ), max_batch_size=4, return_outputs=False, mutation_policy=policy)
    emit("bench_dyngraph_churn", format_table(
        ["policy", "throughput (req/s)", "p50 (ms)", "p95 (ms)", "hit rate",
         "compile (ms)", "patch (ms)", "patched", "evicted"],
        [[policy, f"{r.throughput_rps:,.0f}", f"{r.latency_p50_s * 1e3:.3f}",
          f"{r.latency_p95_s * 1e3:.3f}", f"{r.cache_hit_rate * 100:.0f}%",
          f"{r.compile_s * 1e3:.1f}", f"{r.patch_s * 1e3:.1f}",
          r.num_patches, r.mutation_evictions]
         for policy, r in reports.items()],
        title="D1b: churn serving — patch vs evict-and-recompile",
    ))
    return reports


def _metrics(speedup, patch_r, evict_r):
    return {
        "patch_speedup": Metric("patch_speedup", speedup, "x", "higher"),
        "patch_vs_evict_throughput": Metric(
            "patch_vs_evict_throughput",
            patch_r.throughput_rps / evict_r.throughput_rps,
            "x",
            "higher",
        ),
    }


@register_bench("dyngraph_churn", tier="full", tags=("dyngraph", "serve"),
                tolerances=TOLERANCES)
def _full():
    """Dyngraph: patch-vs-recompile speedup and churn serving, PubMed."""
    speedup = patch_speedup(*MICRO, repeats=5)
    reports = churn(*CHURN)
    patch_r, evict_r = reports["patch"], reports["evict"]
    # a floor only: regression tracking is the baseline comparison's job
    assert speedup > MIN_SPEEDUP, (
        f"patching must be >{MIN_SPEEDUP}x cheaper than recompiling, "
        f"got {speedup:.1f}x"
    )
    assert patch_r.num_patches > 0 and evict_r.mutation_evictions > 0
    assert patch_r.throughput_rps > evict_r.throughput_rps, (
        "the patch policy did not beat evict throughput"
    )
    return _metrics(speedup, patch_r, evict_r)


@register_bench("dyngraph_churn_pu_half_cora", tier="smoke",
                tags=("dyngraph", "serve"), tolerances=TOLERANCES)
def _smoke():
    """Dyngraph: patch-vs-recompile on PubMed@0.5, churn serving on Cora."""
    speedup = patch_speedup(*SMOKE_MICRO, repeats=3)
    reports = churn(*SMOKE_CHURN)
    assert speedup > 1.0, (
        f"patching barely beats recompiling: {speedup:.1f}x"
    )
    assert reports["patch"].num_patches > 0, "no program was patched in the stream"
    return _metrics(speedup, reports["patch"], reports["evict"])
