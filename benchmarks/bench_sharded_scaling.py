"""S1 — sharded scaling: modelled speedup and halo traffic vs devices.

Three claims, all on deterministic modelled numbers (no host wall-clock):

1. sharding one inference across 4 devices by cycle-balanced vertex
   ranges is >= 2x faster (modelled, per-layer barriers + PCIe halo
   exchange streamed under compute included) than the single-device run;
2. the sharded output is **bit-exact** against the single-device
   ``run_strategy`` result at every shard count;
3. speedup keeps growing from 2 to 4 devices on PubMed at half scale,
   whose 14 one-wave, memory-bound block rows an nnz-balanced split
   served no faster on four devices than on two.

Runs two ways:

- ``pytest benchmarks/bench_sharded_scaling.py`` — the pytest-benchmark
  harness, rendering tables under results/;
- ``python benchmarks/bench_sharded_scaling.py [--smoke]`` — standalone,
  used by CI's benchmark smoke job via the ``repro.perf`` registry.
"""

import argparse
import sys

from _common import Metric, emit, engine_for, get_program, register_bench
from repro.datasets import load_dataset
from repro.shard.scaling import shard_scaling_sweep

SHARD_COUNTS = (2, 4)
#: PubMed at full scale: big enough that 28 Aggregate block rows split
#: cleanly over 4 devices; FL (scale 0.25) for the full tier
SMOKE = dict(model_name="GCN", ds_name="PU")
FULL = dict(model_name="GCN", ds_name="FL")
MIN_SPEEDUP_4DEV = 2.0
#: on PubMed at half scale four devices must beat two by this factor
HALF_SCALE = 0.5
MIN_GROWTH_2_TO_4 = 1.3


def sweep(model_name: str, ds_name: str):
    """One run per width: the single device, then each shard count."""
    return shard_scaling_sweep(get_program(model_name, ds_name), SHARD_COUNTS)


def half_scale_sweep():
    """The same sweep over GCN on PubMed at half scale."""
    data = load_dataset("PU", scale=HALF_SCALE, seed=42)
    program = engine_for().compile("GCN", data, seed=7).program
    return shard_scaling_sweep(program, SHARD_COUNTS)


def growth_2_to_4(result) -> float:
    """4-device speedup over 2-device speedup."""
    return result.runs[2].latency_s / result.runs[4].latency_s


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
    single, r4 = result.runs[1], result.runs[4]
    speedup4 = r4.speedup_vs(single)
    assert speedup4 >= MIN_SPEEDUP_4DEV, (
        f"4-device modelled speedup {speedup4:.2f}x below "
        f"{MIN_SPEEDUP_4DEV}x"
    )
    half = half_scale_sweep()
    assert not half.mismatches, (
        "sharded output diverged from the single-device run (PU half scale)"
    )
    assert growth_2_to_4(half) >= MIN_GROWTH_2_TO_4, (
        f"PU@{HALF_SCALE}: 4 devices only {growth_2_to_4(half):.2f}x faster "
        f"than 2, below {MIN_GROWTH_2_TO_4}x"
    )
    return {
        "pu_half_speedup_2dev": Metric(
            "pu_half_speedup_2dev", half.runs[2].speedup_vs(half.runs[1]),
            "x", "higher",
        ),
        "pu_half_speedup_4dev": Metric(
            "pu_half_speedup_4dev", half.runs[4].speedup_vs(half.runs[1]),
            "x", "higher",
        ),
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
    assert result.runs[4].speedup_vs(result.runs[1]) >= MIN_SPEEDUP_4DEV
    assert 0.0 < result.runs[4].halo_fraction < 1.0
    half = half_scale_sweep()
    assert not half.mismatches
    assert growth_2_to_4(half) >= MIN_GROWTH_2_TO_4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke instance (PubMed; the full tier sweeps Flickr)",
    )
    args = parser.parse_args(argv)
    result = sweep(**(SMOKE if args.smoke else FULL))
    print(result.format_report())

    half = half_scale_sweep()
    print()
    print(half.format_report())

    r4 = result.runs[4]
    speedup4 = r4.speedup_vs(result.runs[1])
    growth = growth_2_to_4(half)
    if speedup4 < MIN_SPEEDUP_4DEV:
        print(f"\nFAIL: 4-device speedup {speedup4:.2f}x below "
              f"{MIN_SPEEDUP_4DEV}x")
    if growth < MIN_GROWTH_2_TO_4:
        print(f"\nFAIL: PU@{HALF_SCALE}: 4 devices only {growth:.2f}x "
              f"faster than 2, below {MIN_GROWTH_2_TO_4}x")
    if (result.mismatches or half.mismatches or speedup4 < MIN_SPEEDUP_4DEV
            or growth < MIN_GROWTH_2_TO_4):
        return 1
    print(f"\nOK: bit-exact at {SHARD_COUNTS} shards; 4-device speedup "
          f"{speedup4:.2f}x, halo fraction {r4.halo_fraction:.1%}; "
          f"PU@{HALF_SCALE} 4 devices {growth:.2f}x faster than 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
