"""Tests for TimingModel and SimConfig."""

import pytest

from repro._units import GB, MB, US
from repro.core.architectures import Architecture
from repro.core.config import SimConfig, TimingModel
from repro.core.policies import WritebackPolicy
from repro.errors import ConfigError
from repro.flash.timing import FlashTiming


class TestArchitecture:
    def test_parse(self):
        assert Architecture.parse("Naive") is Architecture.NAIVE
        assert Architecture.parse("UNIFIED") is Architecture.UNIFIED

    def test_parse_unknown(self):
        with pytest.raises(ConfigError):
            Architecture.parse("hybrid")

    def test_subset_property(self):
        assert Architecture.NAIVE.ram_is_subset_of_flash
        assert Architecture.LOOKASIDE.ram_is_subset_of_flash
        assert not Architecture.UNIFIED.ram_is_subset_of_flash

    def test_integration_property(self):
        assert Architecture.UNIFIED.needs_integrated_management
        assert not Architecture.NAIVE.needs_integrated_management


class TestTimingModelTable1:
    """Pin every Table 1 value."""

    def test_ram(self):
        timing = TimingModel.paper_default()
        assert timing.ram_read_ns == 400
        assert timing.ram_write_ns == 400

    def test_flash(self):
        timing = TimingModel.paper_default()
        assert timing.flash.read_ns == 88 * US
        assert timing.flash.write_ns == 21 * US

    def test_network(self):
        timing = TimingModel.paper_default()
        assert timing.network.base_latency_ns == 8_200
        assert timing.network.per_bit_ns == 1.0

    def test_filer(self):
        timing = TimingModel.paper_default()
        assert timing.filer.fast_read_ns == 92 * US
        assert timing.filer.slow_read_ns == 7_952 * US
        assert timing.filer.write_ns == 92 * US
        assert timing.filer.fast_read_rate == 0.90

    def test_as_table_lists_all_ten_parameters(self):
        table = TimingModel.paper_default().as_table()
        assert len(table.splitlines()) == 10

    def test_with_flash(self):
        timing = TimingModel.paper_default().with_flash(FlashTiming(1, 2))
        assert timing.flash.read_ns == 1
        assert timing.ram_read_ns == 400

    def test_with_prefetch_rate(self):
        timing = TimingModel.paper_default().with_prefetch_rate(0.8)
        assert timing.filer.fast_read_rate == 0.8


class TestSimConfig:
    def test_baseline_sizes(self):
        config = SimConfig.baseline()
        assert config.ram_bytes == 8 * GB
        assert config.flash_bytes == 64 * GB
        assert config.architecture is Architecture.NAIVE
        assert config.ram_policy.label == "p1"
        assert config.flash_policy.label == "a"

    def test_baseline_scaled(self):
        config = SimConfig.baseline_scaled(1024)
        assert config.ram_bytes == 8 * MB
        assert config.flash_bytes == 64 * MB

    def test_baseline_scaled_validation(self):
        with pytest.raises(ConfigError):
            SimConfig.baseline_scaled(0)

    def test_block_geometry(self):
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=8 * MB)
        assert config.ram_blocks == 256
        assert config.flash_blocks == 2048

    def test_no_flash(self):
        config = SimConfig(flash_bytes=0)
        assert not config.has_flash

    def test_no_ram(self):
        config = SimConfig(ram_bytes=0, flash_bytes=8 * MB)
        assert not config.has_ram

    def test_subset_architectures_need_flash_at_least_ram(self):
        with pytest.raises(ConfigError):
            SimConfig(ram_bytes=8 * MB, flash_bytes=1 * MB)

    def test_unified_allows_flash_smaller_than_ram(self):
        config = SimConfig(
            architecture=Architecture.UNIFIED, ram_bytes=8 * MB, flash_bytes=1 * MB
        )
        assert config.flash_blocks < config.ram_blocks

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(ram_bytes=-1)

    def test_with_helpers(self):
        config = SimConfig.baseline()
        assert config.with_architecture(Architecture.UNIFIED).architecture is Architecture.UNIFIED
        updated = config.with_policies(
            ram_writeback=WritebackPolicy.sync(),
            flash_writeback=WritebackPolicy.none(),
        )
        assert updated.ram_policy.label == "s"
        assert updated.flash_policy.label == "n"
        # The policies are keyword-only: the old positional form is gone.
        with pytest.raises(TypeError):
            config.with_policies(WritebackPolicy.sync(), WritebackPolicy.none())
        resized = config.with_sizes(MB, 2 * MB)
        assert resized.ram_bytes == MB

    def test_describe_mentions_everything(self):
        text = SimConfig.baseline().describe()
        assert "naive" in text
        assert "8.0 GB" in text
        assert "p1" in text
