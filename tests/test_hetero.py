"""Tests for the heterogeneous-platform extension (paper §IX)."""

import numpy as np
import pytest

from repro import Compiler, build_model, init_weights, load_dataset, u250_default
from repro.hetero import FPGA_DEVICE, GPU_DEVICE, HeterogeneousRuntime
from repro.hetero.executor import materialize_intermediates
from repro.hw.report import Primitive


@pytest.fixture(scope="module")
def dense_program():
    """Reddit-like: 100%-dense features, where GEMM routing should win."""
    data = load_dataset("RE", scale=0.02, seed=5)
    model = build_model("GCN", data.num_features, data.hidden_dim,
                        data.num_classes)
    return Compiler(u250_default()).compile(model, data, init_weights(model))


@pytest.fixture(scope="module")
def sparse_program():
    """CiteSeer-like: sparse features, mostly SpDMM/SPMM work."""
    data = load_dataset("CI", scale=0.5, seed=6)
    model = build_model("GCN", data.num_features, data.hidden_dim,
                        data.num_classes)
    return Compiler(u250_default()).compile(model, data, init_weights(model))


class TestDeviceModels:
    def test_gpu_ignores_sparsity(self):
        cfg = u250_default()
        dense = GPU_DEVICE.pair_seconds(Primitive.GEMM, 64, 64, 64, 64 * 64, cfg)
        sparse = GPU_DEVICE.pair_seconds(Primitive.GEMM, 64, 64, 64, 1, cfg)
        assert dense == sparse

    def test_fpga_spdmm_scales_with_nnz(self):
        cfg = u250_default()
        t1 = FPGA_DEVICE.pair_seconds(Primitive.SPDMM, 512, 512, 128, 100, cfg)
        t2 = FPGA_DEVICE.pair_seconds(Primitive.SPDMM, 512, 512, 128, 10_000, cfg)
        assert t2 > t1

    def test_skip_free_everywhere(self):
        cfg = u250_default()
        for dev in (GPU_DEVICE, FPGA_DEVICE):
            assert dev.pair_seconds(Primitive.SKIP, 64, 64, 64, 0, cfg) == 0.0

    def test_gpu_beats_fpga_on_dense_gemm(self):
        cfg = u250_default()
        n = 1024
        gpu = GPU_DEVICE.pair_seconds(Primitive.GEMM, n, n, n, n * n, cfg)
        fpga = FPGA_DEVICE.pair_seconds(Primitive.GEMM, n, n, n, n * n, cfg)
        assert gpu < fpga


class TestMaterializeIntermediates:
    def test_all_kernel_outputs_present(self, sparse_program):
        store = materialize_intermediates(sparse_program)
        for kernel in sparse_program.graph.topo_order():
            assert kernel.out_name in store

    def test_final_output_matches_reference(self, sparse_program):
        from repro import reference_inference
        from repro.datasets import load_dataset

        store = materialize_intermediates(sparse_program)
        data = load_dataset("CI", scale=0.5, seed=6)
        model = build_model("GCN", data.num_features, data.hidden_dim,
                            data.num_classes)
        ref = reference_inference(model, data.a, data.h0,
                                  init_weights(model))
        np.testing.assert_allclose(store["H_out"], ref, rtol=1e-3, atol=1e-5)


class TestHeterogeneousRuntime:
    def test_routing_rule(self):
        rt = HeterogeneousRuntime()
        assert rt.device_for(Primitive.GEMM).name == "GPU"
        assert rt.device_for(Primitive.SPDMM).name == "FPGA"
        assert rt.device_for(Primitive.SPMM).name == "FPGA"

    def test_dense_workload_benefits(self, dense_program):
        het = HeterogeneousRuntime().run(dense_program)
        fpga_only = HeterogeneousRuntime(gpu=FPGA_DEVICE).run(dense_program)
        assert het.device_pairs.get("GPU", 0) > 0
        assert set(fpga_only.device_seconds) == {"FPGA"}
        assert het.total_seconds < fpga_only.total_seconds

    def test_sparse_workload_mostly_fpga(self, sparse_program):
        het = HeterogeneousRuntime().run(sparse_program)
        assert het.device_pairs["FPGA"] > het.device_pairs.get("GPU", 0)
        # no dense work -> hetero cannot be much worse than FPGA-only
        fpga_only = HeterogeneousRuntime(gpu=FPGA_DEVICE).run(sparse_program)
        assert het.total_seconds <= fpga_only.total_seconds * 1.1

    def test_result_accessors(self, dense_program):
        het = HeterogeneousRuntime().run(dense_program)
        assert het.latency_ms == pytest.approx(het.total_seconds * 1e3)
        assert max(het.device_seconds, key=het.device_seconds.get) in ("GPU", "FPGA")
        assert sum(het.primitive_counts.values()) > 0

    def test_result_carries_devices_pairs_and_transfers(self, sparse_program):
        het = HeterogeneousRuntime().run(sparse_program)
        assert set(het.device_seconds) == {"GPU", "FPGA"}
        executed = sum(count for prim, count in het.primitive_counts.items()
                       if prim is not Primitive.SKIP)
        assert sum(het.device_pairs.values()) == executed > 0
        assert het.transfer_seconds >= 0.0

    def test_fpga_parallel_cores_scaling(self, dense_program):
        r1 = HeterogeneousRuntime(fpga_parallel_cores=1).run(dense_program)
        r7 = HeterogeneousRuntime(fpga_parallel_cores=7).run(dense_program)
        assert r7.total_seconds < r1.total_seconds
