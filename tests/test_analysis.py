"""Tests for the post-run analysis utilities."""

import pytest

from repro.analysis import compare_runs
from repro.analysis.compare import format_comparison
from repro.runtime.executor import run_strategy


@pytest.fixture(scope="module")
def two_runs(tiny_gcn_program):
    program, _, _ = tiny_gcn_program
    return run_strategy(program, "Dynamic"), run_strategy(program, "S1")


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
