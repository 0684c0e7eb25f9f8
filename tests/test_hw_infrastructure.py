"""Tests for buffer capacity, memory, soft processor and resources."""

import pytest

from repro.config import u250_default
from repro.hw.buffers import max_partition_dim
from repro.hw.memory import ExternalMemory, pcie_transfer_seconds
from repro.hw.resources import (
    U250_AVAILABLE,
    estimate_cc_resources,
    estimate_resources,
)
from repro.hw.soft_processor import SoftProcessor


class TestMaxPartitionDim:
    def test_g_of_so(self):
        assert max_partition_dim(512 * 1024, align=16) == 720
        assert max_partition_dim(100, align=1) == 10

    def test_alignment(self):
        assert max_partition_dim(1025, align=16) == 32


class TestExternalMemory:
    def test_cycles_and_ledger(self):
        cfg = u250_default()
        mem = ExternalMemory(cfg)
        # 308 bytes/cycle aggregate, 7 cores share
        cycles = mem.read_cycles(308 * 7)
        assert cycles == pytest.approx(49.0)
        assert mem.ledger.bytes_read == 308 * 7
        mem.write_cycles(616, active_cores=1)
        assert mem.ledger.bytes_written == 616
        assert mem.ledger.total == 308 * 7 + 616

    def test_active_cores_share(self):
        cfg = u250_default()
        mem = ExternalMemory(cfg)
        c_all = mem.read_cycles(1000)
        c_two = mem.read_cycles(1000, active_cores=2)
        assert c_all == pytest.approx(c_two * 7 / 2)

    def test_reset(self):
        mem = ExternalMemory(u250_default())
        mem.read_cycles(100)
        mem.reset()
        assert mem.ledger.total == 0

    def test_pcie_model(self):
        cfg = u250_default()
        assert pcie_transfer_seconds(11.2e9, cfg) == pytest.approx(1.0)


class TestSoftProcessor:
    def test_k2p_cost(self):
        cfg = u250_default()
        soft = SoftProcessor(cfg)
        s = soft.k2p_decision_seconds(1000)
        expect = 1000 * cfg.soft_processor.instructions_per_k2p_decision / 500e6
        assert s == pytest.approx(expect)
        assert soft.stats.k2p_decisions == 1000

    def test_dispatch_includes_axi(self):
        cfg = u250_default()
        soft = SoftProcessor(cfg)
        s = soft.dispatch_seconds(10)
        instr = 10 * cfg.soft_processor.instructions_per_dispatch / 500e6
        axi = 10 * 2 / 370e6
        assert s == pytest.approx(instr + axi)

    def test_conversion_to_accel_cycles(self):
        soft = SoftProcessor(u250_default())
        assert soft.seconds_to_accel_cycles(1.0) == pytest.approx(250e6)

    def test_reset(self):
        soft = SoftProcessor(u250_default())
        soft.k2p_decision_seconds(5)
        soft.reset()
        assert soft.stats.seconds == 0.0


class TestResources:
    def test_fig9_reproduced_at_default(self):
        report = estimate_resources(u250_default())
        assert report.per_cc["DSP"] == 1024
        assert report.per_cc["LUT"] == 118_000
        assert report.per_cc["BRAM"] == 96
        assert report.per_cc["URAM"] == 120
        assert report.total["DSP"] == 7 * 1024 + 6 + 13
        assert report.total["URAM"] == 840
        assert report.fits

    def test_fig9_utilization_band(self):
        report = estimate_resources(u250_default())
        util = report.utilization
        # paper: 58.6% LUT, 58.4% DSP, 42.6% BRAM, 87.5% URAM
        assert util["DSP"] == pytest.approx(0.584, abs=0.01)
        assert util["URAM"] == pytest.approx(0.875, abs=0.01)
        assert util["LUT"] == pytest.approx(0.586, abs=0.02)
        assert util["BRAM"] == pytest.approx(0.426, abs=0.02)

    def test_dsp_scales_quadratically(self):
        cfg8 = u250_default().replace(psys=8)
        assert estimate_cc_resources(cfg8)["DSP"] == 256

    def test_psys32_does_not_fit(self):
        cfg = u250_default().replace(psys=32)
        report = estimate_resources(cfg)
        assert report.total["DSP"] > U250_AVAILABLE["DSP"]
        assert not report.fits

    def test_format_table_renders(self):
        table = estimate_resources(u250_default()).format_table()
        assert "One CC" in table and "Utilization" in table
