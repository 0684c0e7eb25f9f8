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

Two specs run the two instances of claims 1 and 2:
``sharded_scaling`` (smoke: PubMed) and ``sharded_scaling_flickr``
(full: Flickr at the bench profile's quarter scale); both check claim 3.
"""

from _common import Metric, emit, engine_for, get_program, register_bench
from repro.datasets import load_dataset
from repro.shard.scaling import shard_scaling_sweep

SHARD_COUNTS = (2, 4)
#: PubMed at full scale: big enough that 28 Aggregate block rows split
#: cleanly over 4 devices; FL (scale 0.25) for the full-tier spec
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


def _check(model_name: str, ds_name: str):
    """The three claims on one instance, and its metrics."""
    result = sweep(model_name, ds_name)
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
    assert 0.0 < r4.halo_fraction < 1.0, r4.halo_fraction
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


#: modelled (cycle-accurate + PCIe model) numbers, deterministic; the
#: bands are the ones the baseline was recorded with
TOLERANCES = {"speedup_2dev": 0.2, "speedup_4dev": 0.2,
              "halo_fraction_4dev": 0.5}


@register_bench("sharded_scaling", tier="smoke",
                tags=("shard", "scaling", "serve"), tolerances=TOLERANCES)
def _smoke():
    """Sharded multi-device scaling: speedup and halo fraction, PubMed."""
    return _check(**SMOKE)


@register_bench("sharded_scaling_flickr", tier="full",
                tags=("shard", "scaling", "serve"), tolerances=TOLERANCES)
def _full():
    """Sharded multi-device scaling: speedup and halo fraction, Flickr."""
    return _check(**FULL)
