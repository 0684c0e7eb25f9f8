"""Tests for the post-run analysis utilities."""

import pytest

from repro.analysis import (
    KernelRegime,
    classify_kernels,
    compare_runs,
    render_gantt,
)
from repro.analysis.compare import format_comparison
from repro.analysis.roofline import classify_kernel
from repro.runtime.executor import run_strategy


@pytest.fixture(scope="module")
def two_runs(tiny_gcn_program):
    program, _, _ = tiny_gcn_program
    return run_strategy(program, "Dynamic"), run_strategy(program, "S1")


class TestGantt:
    def test_renders_all_cores_and_kernels(self, two_runs):
        dyn, _ = two_runs
        chart = render_gantt(dyn, width=60)
        assert "CC0" in chart
        assert "legend:" in chart
        for ks in dyn.kernel_stats:
            assert ks.kernel_id in chart

    def test_rows_have_uniform_width(self, two_runs):
        dyn, _ = two_runs
        lines = render_gantt(dyn, width=50).splitlines()[1:-1]
        assert len({len(line) for line in lines}) == 1

    def test_empty_timeline(self, two_runs):
        dyn, _ = two_runs
        import dataclasses

        empty = dataclasses.replace(dyn, timeline_events=[])
        assert "empty" in render_gantt(empty)


class TestRoofline:
    def test_every_kernel_classified(self, two_runs):
        dyn, _ = two_runs
        cls = classify_kernels(dyn)
        assert len(cls) == len(dyn.kernel_stats)
        for c in cls:
            assert c.regime in KernelRegime
            assert c.intensity_ratio >= 0
            assert c.describe()

    def test_regime_thresholds(self, two_runs):
        dyn, _ = two_runs
        import dataclasses

        ks = dataclasses.replace(
            dyn.kernel_stats[0], compute_cycles=1000.0, memory_cycles=10.0,
            transform_cycles=0.0,
        )
        assert classify_kernel(ks).regime is KernelRegime.COMPUTE_BOUND
        ks = dataclasses.replace(ks, compute_cycles=10.0, memory_cycles=1000.0)
        assert classify_kernel(ks).regime is KernelRegime.MEMORY_BOUND
        ks = dataclasses.replace(ks, compute_cycles=100.0, memory_cycles=100.0)
        assert classify_kernel(ks).regime is KernelRegime.BALANCED

    def test_the_longer_data_stream_binds(self, two_runs):
        # the AHM transforms beside the transfer: 120 against max(100, 90)
        # is ratio 1.2, where against their sum (0.63) it was memory-bound
        dyn, _ = two_runs
        import dataclasses

        ks = dataclasses.replace(
            dyn.kernel_stats[0], compute_cycles=120.0, memory_cycles=100.0,
            transform_cycles=90.0,
        )
        c = classify_kernel(ks, balance_band=0.1)
        assert c.regime is KernelRegime.COMPUTE_BOUND
        assert (c.data_cycles, c.intensity_ratio) == (100.0, 1.2)
        assert classify_kernel(ks).regime is KernelRegime.BALANCED

    def test_zero_cycles_balanced(self, two_runs):
        dyn, _ = two_runs
        import dataclasses

        ks = dataclasses.replace(
            dyn.kernel_stats[0], compute_cycles=0.0, memory_cycles=0.0,
            transform_cycles=0.0,
        )
        assert classify_kernel(ks).regime is KernelRegime.BALANCED


class TestCompare:
    def test_per_kernel_deltas(self, two_runs):
        dyn, s1 = two_runs
        deltas = compare_runs(dyn, s1)
        assert len(deltas) == len(dyn.kernel_stats)
        # total speedup is consistent with per-kernel cycles
        total_a = sum(d.cycles_a for d in deltas)
        total_b = sum(d.cycles_b for d in deltas)
        assert total_b / total_a == pytest.approx(
            dyn.accel_cycles and s1.accel_cycles / dyn.accel_cycles, rel=1e-6
        )

    def test_dynamic_wins_where_primitives_differ(self, two_runs):
        dyn, s1 = two_runs
        deltas = compare_runs(dyn, s1)
        differing = [d for d in deltas if d.primitives_a != d.primitives_b]
        assert differing, "Dynamic should diverge from S1 somewhere"
        assert any(d.speedup_of_a > 1.0 for d in differing)

    def test_format_comparison(self, two_runs):
        dyn, s1 = two_runs
        text = format_comparison(dyn, s1)
        assert "TOTAL" in text and "Dynamic" in text and "S1" in text

    def test_mismatched_programs_rejected(self, two_runs, tiny_dataset,
                                          tiny_config):
        from repro import Compiler, build_model, init_weights

        dyn, _ = two_runs
        data = tiny_dataset
        model = build_model("SGC", data.num_features, 8, data.num_classes)
        other = Compiler(tiny_config).compile(
            model, data, init_weights(model)
        )
        res = run_strategy(other, "Dynamic")
        with pytest.raises(ValueError):
            compare_runs(dyn, res)
