"""S1 — sharded scaling: modelled speedup and halo traffic vs devices.

Two claims, both on deterministic modelled numbers (no host wall-clock):

1. sharding one inference across 4 devices by nnz-balanced vertex
   ranges is >= 2x faster (modelled, per-layer barriers + PCIe halo
   exchange included) than the single-device run;
2. the sharded output is **bit-exact** against the single-device
   ``run_strategy`` result at every shard count.

Runs two ways:

- ``pytest benchmarks/bench_sharded_scaling.py`` — the pytest-benchmark
  harness, rendering tables under results/;
- ``python benchmarks/bench_sharded_scaling.py [--smoke]`` — standalone,
  used by CI's benchmark smoke job via the ``repro.perf`` registry.
"""

import argparse
import sys

from _common import Metric, emit, get_program, register_bench
from repro.shard.scaling import shard_scaling_sweep

SHARD_COUNTS = (2, 4)
#: PubMed at full scale: big enough that 28 Aggregate block rows split
#: cleanly over 4 devices; FL (scale 0.25) for the full tier
SMOKE = dict(model_name="GCN", ds_name="PU")
FULL = dict(model_name="GCN", ds_name="FL")
MIN_SPEEDUP_4DEV = 2.0


def sweep(model_name: str, ds_name: str):
    """Single-device baseline + one sharded run per shard count."""
    return shard_scaling_sweep(get_program(model_name, ds_name), SHARD_COUNTS)


@register_bench(
    "sharded_scaling",
    tier=("smoke", "full"),
    tags=("shard", "scaling", "serve"),
    # modelled (cycle-accurate + PCIe model) numbers: deterministic on
    # one instance, but the smoke/full instances differ, so the bands
    # stay moderate
    tolerances={"speedup_2dev": 0.2, "speedup_4dev": 0.2,
                "halo_fraction_4dev": 0.5},
)
def _spec(ctx):
    """Sharded multi-device scaling: speedup and halo fraction."""
    result = sweep(**(SMOKE if ctx.smoke else FULL))
    emit("bench_sharded_scaling", result.format_report())
    assert not result.mismatches, (
        "sharded output diverged from the single-device run"
    )
    single, r4 = result.single, result.runs[4]
    speedup4 = r4.speedup_vs(single)
    assert speedup4 >= MIN_SPEEDUP_4DEV, (
        f"4-device modelled speedup {speedup4:.2f}x below "
        f"{MIN_SPEEDUP_4DEV}x"
    )
    return {
        "speedup_2dev": Metric(
            "speedup_2dev", result.runs[2].speedup_vs(single), "x", "higher"
        ),
        "speedup_4dev": Metric("speedup_4dev", speedup4, "x", "higher"),
        "halo_fraction_4dev": Metric(
            "halo_fraction_4dev", r4.halo_fraction, "fraction", "lower"
        ),
        "single_latency_modelled_ms": Metric(
            "single_latency_modelled_ms", single.latency_ms, "ms", "lower"
        ),
    }


def test_sharded_bit_exact_and_scaling(benchmark):
    """>=2x modelled speedup at 4 devices, outputs bit-exact throughout."""
    result = benchmark.pedantic(
        lambda: sweep(**SMOKE), rounds=1, iterations=1
    )
    emit("bench_sharded_scaling", result.format_report())
    assert not result.mismatches
    assert result.runs[4].speedup_vs(result.single) >= MIN_SPEEDUP_4DEV
    assert 0.0 < result.runs[4].halo_fraction < 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke instance (PubMed; the full tier sweeps Flickr)",
    )
    args = parser.parse_args(argv)
    result = sweep(**(SMOKE if args.smoke else FULL))
    print(result.format_report())

    r4 = result.runs[4]
    speedup4 = r4.speedup_vs(result.single)
    if speedup4 < MIN_SPEEDUP_4DEV:
        print(f"\nFAIL: 4-device speedup {speedup4:.2f}x below "
              f"{MIN_SPEEDUP_4DEV}x")
    if result.mismatches or speedup4 < MIN_SPEEDUP_4DEV:
        return 1
    print(f"\nOK: bit-exact at {SHARD_COUNTS} shards; 4-device speedup "
          f"{speedup4:.2f}x, halo fraction {r4.halo_fraction:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
