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
2. under an interleaved infer/mutate stream, a server that patches
   cached programs sustains higher throughput than one that evicts and
   recompiles.

Two specs run the two instances: ``dyngraph_churn`` (full: PubMed, both
claims) and ``dyngraph_churn_pu_half_cora`` (smoke: PubMed at half scale
for the patch, Cora for the stream; it only checks that patching beats
recompiling and that the stream patched).
"""

from _common import Metric, emit, format_table, register_bench
from repro.dyngraph import churn_experiment, patch_vs_recompile

#: microbenchmark instance: mid-size dataset, ~1% edge churn per delta
MICRO = dict(dataset="PU", scale=1.0, model_name="GCN", edge_fraction=0.01)
SMOKE_MICRO = dict(dataset="PU", scale=0.5, model_name="GCN", edge_fraction=0.01)
CHURN = dict(dataset="PU", scale=0.25, model_name="GCN", num_requests=48,
             mutation_every=6, edge_fraction=0.005, pool_size=2)
SMOKE_CHURN = dict(dataset="CO", scale=1.0, model_name="GCN", num_requests=24,
                   mutation_every=6, edge_fraction=0.01, pool_size=2)
#: acceptance floor for the full-size microbenchmark (smoke: 1.0)
MIN_SPEEDUP = 2.0
#: both metrics are ratios of same-machine wall-clock costs: stable in
#: sign and magnitude class, but jittery enough to need a wide band
TOLERANCES = {"patch_speedup": 0.75, "patch_vs_evict_throughput": 0.75}


def _micro_table(results) -> str:
    return format_table(
        ["dataset", "nnz(A)", "delta edges", "recompile (ms)", "patch (ms)",
         "speedup", "dirty blocks", "K2P re-decisions"],
        [[r.dataset, f"{r.nnz:,}", r.delta_edges,
          f"{r.recompile_s * 1e3:.2f}", f"{r.patch_s * 1e3:.2f}",
          f"{r.speedup:.1f}x", r.dirty_blocks, r.reanalyzed_pairs]
         for r in results],
        title="D1a: program patch vs full recompile (<=1% edge delta)",
    )


def _churn_table(reports) -> str:
    rows = []
    for policy in ("patch", "evict"):
        r = reports[policy]
        rows.append([
            policy, f"{r.throughput_rps:,.0f}",
            f"{r.latency_p50_s * 1e3:.3f}", f"{r.latency_p95_s * 1e3:.3f}",
            f"{r.cache_hit_rate * 100:.0f}%",
            f"{r.compile_s * 1e3:.1f}", f"{r.patch_s * 1e3:.1f}",
            r.num_patches, r.mutation_evictions,
        ])
    return format_table(
        ["policy", "throughput (req/s)", "p50 (ms)", "p95 (ms)", "hit rate",
         "compile (ms)", "patch (ms)", "patched", "evicted"],
        rows,
        title="D1b: churn serving — patch vs evict-and-recompile",
    )


def _measure(micro_cfg, churn_cfg, repeats):
    """The patch microbenchmark and the churn stream, tables emitted."""
    micro = patch_vs_recompile(**micro_cfg, repeats=repeats, seed=0)
    emit("bench_dyngraph_patch", _micro_table([micro]))
    reports = churn_experiment(**churn_cfg, seed=0)
    emit("bench_dyngraph_churn", _churn_table(reports))
    return micro, reports["patch"], reports["evict"]


def _metrics(micro, patch_r, evict_r):
    return {
        "patch_speedup": Metric("patch_speedup", micro.speedup, "x", "higher"),
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
    micro, patch_r, evict_r = _measure(MICRO, CHURN, repeats=5)
    assert micro.delta_edges <= 0.011 * micro.nnz
    # a floor only: regression tracking is the baseline comparison's job
    assert micro.speedup > MIN_SPEEDUP, (
        f"patching must be >{MIN_SPEEDUP}x cheaper than recompiling, "
        f"got {micro.speedup:.1f}x"
    )
    assert patch_r.num_patches > 0 and evict_r.mutation_evictions > 0
    assert patch_r.throughput_rps > evict_r.throughput_rps, (
        "the patch policy did not beat evict throughput"
    )
    return _metrics(micro, patch_r, evict_r)


@register_bench("dyngraph_churn_pu_half_cora", tier="smoke",
                tags=("dyngraph", "serve"), tolerances=TOLERANCES)
def _smoke():
    """Dyngraph: patch-vs-recompile on PubMed@0.5, churn serving on Cora."""
    micro, patch_r, evict_r = _measure(SMOKE_MICRO, SMOKE_CHURN, repeats=3)
    assert micro.speedup > 1.0, (
        f"patching barely beats recompiling: {micro.speedup:.1f}x"
    )
    assert patch_r.num_patches > 0, "no program was patched in the stream"
    return _metrics(micro, patch_r, evict_r)
