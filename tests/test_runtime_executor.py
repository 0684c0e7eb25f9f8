"""Tests for the RuntimeSystem executor: correctness + accounting."""

import numpy as np
import pytest

from repro.compiler import Compiler
from repro.config import u250_default
from repro.gnn import build_model, init_weights, reference_inference
from repro.hw import Accelerator
from repro.hw.report import Primitive
from repro.runtime import RuntimeSystem, end_to_end_seconds, make_strategy
from repro.runtime.executor import run_strategy


@pytest.fixture(scope="module")
def gcn_setup(tiny_dataset, tiny_config):
    data = tiny_dataset
    model = build_model("GCN", data.num_features, data.hidden_dim, data.num_classes)
    weights = init_weights(model, seed=5)
    program = Compiler(tiny_config).compile(model, data, weights)
    return data, model, weights, program


@pytest.fixture(scope="module")
def u250_program(gcn_setup):
    """The same model on the configuration the soft processor's
    instruction counts are calibrated for."""
    data, model, weights, _ = gcn_setup
    return Compiler(u250_default()).compile(model, data, weights)


class TestExecutorCorrectness:
    @pytest.mark.parametrize("strategy", ["Dynamic", "S1", "S2", "Oracle"])
    def test_output_matches_reference(self, gcn_setup, strategy):
        data, model, weights, program = gcn_setup
        result = run_strategy(program, strategy)
        ref = reference_inference(model, data.a, data.h0, weights)
        np.testing.assert_allclose(
            result.output_dense(), ref, rtol=1e-3, atol=1e-5
        )

    def test_rerun_is_deterministic(self, gcn_setup):
        _, _, _, program = gcn_setup
        r1 = run_strategy(program, "Dynamic")
        r2 = run_strategy(program, "Dynamic")
        assert r1.total_cycles == r2.total_cycles
        np.testing.assert_array_equal(r1.output_dense(), r2.output_dense())

    def test_program_store_not_mutated(self, gcn_setup):
        _, _, _, program = gcn_setup
        before = set(program.store)
        run_strategy(program, "Dynamic")
        assert set(program.store) == before


class TestExecutorAccounting:
    def test_kernel_stats_cover_all_kernels(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        assert len(result.kernel_stats) == program.num_kernels
        assert result.accel_cycles == pytest.approx(
            sum(ks.cycles for ks in result.kernel_stats)
        )

    def test_every_pair_decided(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        for ks in result.kernel_stats:
            scheme = program.graph.kernel(ks.kernel_id).exec_scheme
            assert ks.num_pairs == scheme.num_tasks * scheme.pairs_per_task

    def test_dynamic_charges_analysis_static_does_not(self, gcn_setup):
        _, _, _, program = gcn_setup
        dyn = run_strategy(program, "Dynamic")
        s1 = run_strategy(program, "S1")
        assert dyn.runtime_overhead_seconds > 0
        assert s1.runtime_overhead_seconds == 0.0
        assert s1.exposed_overhead_cycles == 0.0

    def test_overhead_fraction_small(self, gcn_setup, u250_program):
        for program in (gcn_setup[3], u250_program):
            result = run_strategy(program, "Dynamic")
            assert 0.0 < result.overhead_fraction < 0.5

    def test_dynamic_skips_empty_pairs(self, gcn_setup):
        _, _, _, program = gcn_setup
        dyn = run_strategy(program, "Dynamic")
        s1 = run_strategy(program, "S1")
        assert dyn.primitive_totals[Primitive.SKIP] > 0
        assert s1.primitive_totals[Primitive.SKIP] == 0

    def test_traffic_and_macs_positive(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        assert result.total_macs > 0
        assert result.bytes_read > 0
        assert result.bytes_written > 0

    def test_latency_units(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        assert result.latency_ms == pytest.approx(result.latency_s * 1e3)
        assert result.total_cycles >= result.accel_cycles

    def test_load_balance_in_unit_interval(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        assert 0.0 < result.load_balance() <= 1.0

    def test_speedup_vs(self, gcn_setup):
        _, _, _, program = gcn_setup
        dyn = run_strategy(program, "Dynamic")
        s1 = run_strategy(program, "S1")
        assert dyn.speedup_vs(s1) == pytest.approx(
            s1.total_cycles / dyn.total_cycles
        )

    def test_end_to_end_includes_all_terms(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        exec_only = end_to_end_seconds(
            program, result, include_preprocessing=False, include_pcie=False
        )
        full = end_to_end_seconds(program, result)
        assert exec_only == pytest.approx(result.latency_s)
        assert full > exec_only


class TestExecutorPaperShapes:
    """Headline behavioural claims on the tiny integration dataset."""

    def test_dynamic_beats_or_ties_static(self, gcn_setup, u250_program):
        for program in (gcn_setup[3], u250_program):
            dyn = run_strategy(program, "Dynamic")
            s1 = run_strategy(program, "S1")
            s2 = run_strategy(program, "S2")
            # 5% tolerance: the Analyzer weighs Table IV's SpDMM / SPMM
            # while the simulator charges exact (ceil'd, per-pipeline)
            # cycles, and Dynamic alone pays its exposed analysis
            assert dyn.total_cycles <= s1.total_cycles * 1.05
            assert dyn.total_cycles <= s2.total_cycles * 1.05

    def test_all_models_execute_correctly(self, tiny_dataset, tiny_config):
        data = tiny_dataset
        for name in ["GraphSAGE", "GIN", "SGC"]:
            model = build_model(name, data.num_features, 8, data.num_classes)
            weights = init_weights(model, seed=9)
            program = Compiler(tiny_config).compile(model, data, weights)
            result = run_strategy(program, "Dynamic")
            ref = reference_inference(model, data.a, data.h0, weights)
            np.testing.assert_allclose(
                result.output_dense(), ref, rtol=1e-3, atol=2e-4,
                err_msg=f"{name} output mismatch",
            )

    def test_mismatched_configs_rejected(self, gcn_setup, tiny_config):
        _, _, _, program = gcn_setup
        acc = Accelerator(tiny_config.replace(psys=8))
        with pytest.raises(ValueError):
            RuntimeSystem(acc, make_strategy("Dynamic", tiny_config))


class TestReportFormatting:
    def test_format_report_contains_kernels(self, gcn_setup):
        _, _, _, program = gcn_setup
        result = run_strategy(program, "Dynamic")
        report = result.format_report()
        for ks in result.kernel_stats:
            assert ks.kernel_id in report
        assert "latency" in report and "Dynamic" in report

    def test_fixed_spmm_strategy_correct(self, gcn_setup):
        from repro.gnn import reference_inference

        data, model, weights, program = gcn_setup
        result = run_strategy(program, "Fixed-SPMM")
        ref = reference_inference(model, data.a, data.h0, weights)
        import numpy as np

        np.testing.assert_allclose(
            result.output_dense(), ref, rtol=1e-3, atol=1e-5
        )
