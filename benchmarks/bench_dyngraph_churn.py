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

Runs two ways:

- ``pytest benchmarks/bench_dyngraph_churn.py`` — the pytest-benchmark
  harness, rendering tables under results/;
- ``python benchmarks/bench_dyngraph_churn.py [--smoke]`` — standalone,
  used by CI's benchmark smoke job (``--smoke`` shrinks the instance and
  only sanity-checks that patching beats recompiling).
"""

import argparse
import sys

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


@register_bench(
    "dyngraph_churn",
    tier=("smoke", "full"),
    tags=("dyngraph", "serve"),
    # both metrics are ratios of same-machine wall-clock costs: stable in
    # sign and magnitude class, but jittery enough to need a wide band
    tolerances={"patch_speedup": 0.75, "patch_vs_evict_throughput": 0.75},
)
def _spec(ctx):
    """Dyngraph: patch-vs-recompile speedup and churn serving throughput."""
    micro_cfg, churn_cfg = (
        (SMOKE_MICRO, SMOKE_CHURN) if ctx.smoke else (MICRO, CHURN)
    )
    micro = patch_vs_recompile(
        **micro_cfg, repeats=3 if ctx.smoke else 5, seed=0
    )
    emit("bench_dyngraph_patch", _micro_table([micro]))
    reports = churn_experiment(**churn_cfg, seed=0)
    emit("bench_dyngraph_churn", _churn_table(reports))
    patch_r, evict_r = reports["patch"], reports["evict"]
    # a floor only: regression tracking is the baseline comparison's job
    assert micro.speedup > (1.0 if ctx.smoke else MIN_SPEEDUP), (
        f"patching barely beats recompiling: {micro.speedup:.1f}x"
    )
    assert patch_r.num_patches > 0
    return {
        "patch_speedup": Metric("patch_speedup", micro.speedup, "x", "higher"),
        "patch_vs_evict_throughput": Metric(
            "patch_vs_evict_throughput",
            patch_r.throughput_rps / evict_r.throughput_rps,
            "x",
            "higher",
        ),
    }


def test_patch_vs_recompile(benchmark):
    """More than 2x cheaper to patch a <=1% delta than to recompile."""
    result = benchmark.pedantic(
        lambda: patch_vs_recompile(**MICRO, repeats=5, seed=0),
        rounds=1, iterations=1,
    )
    emit("bench_dyngraph_patch", _micro_table([result]))
    assert result.delta_edges <= 0.011 * result.nnz
    assert result.speedup > MIN_SPEEDUP, (
        f"patching must be >{MIN_SPEEDUP}x cheaper than recompiling, "
        f"got {result.speedup:.1f}x"
    )


def test_churn_serving_throughput(benchmark):
    """Patching sustains higher churn throughput than evict-and-recompile."""
    reports = benchmark.pedantic(
        lambda: churn_experiment(**CHURN, seed=0), rounds=1, iterations=1
    )
    emit("bench_dyngraph_churn", _churn_table(reports))
    patch_r, evict_r = reports["patch"], reports["evict"]
    assert patch_r.num_patches > 0 and evict_r.mutation_evictions > 0
    assert patch_r.throughput_rps > evict_r.throughput_rps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small instance, relaxed assertion (CI smoke job)",
    )
    args = parser.parse_args(argv)

    micro_cfg, churn_cfg = (
        (SMOKE_MICRO, SMOKE_CHURN) if args.smoke else (MICRO, CHURN)
    )
    micro = patch_vs_recompile(**micro_cfg, repeats=3 if args.smoke else 5,
                               seed=0)
    print(_micro_table([micro]))
    reports = churn_experiment(**churn_cfg, seed=0)
    print()
    print(_churn_table(reports))

    patch_r, evict_r = reports["patch"], reports["evict"]
    failures = []
    if micro.speedup <= (1.0 if args.smoke else MIN_SPEEDUP):
        failures.append(
            f"patch speedup {micro.speedup:.1f}x below "
            f"{1.0 if args.smoke else MIN_SPEEDUP}x"
        )
    if patch_r.num_patches == 0:
        failures.append("no programs were patched in the churn stream")
    if not args.smoke and patch_r.throughput_rps <= evict_r.throughput_rps:
        failures.append("patch policy did not beat evict throughput")
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1
    print(f"\nOK: patch {micro.speedup:.1f}x cheaper than recompile; "
          f"churn throughput patch {patch_r.throughput_rps:,.0f} vs "
          f"evict {evict_r.throughput_rps:,.0f} req/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
