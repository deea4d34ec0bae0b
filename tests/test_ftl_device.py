"""Tests for the FTL-backed flash device extension."""

import pytest

from repro._units import KB
from repro.core.machine import System
from repro.core.simulator import run_simulation
from repro.engine.simulation import Simulator
from repro.errors import ConfigError
from repro.flash.ftl_device import FTLFlashDevice

from tests.helpers import make_trace, tiny_config
from tests.test_host_naive import timed


def make_device(sim=None, capacity=64, **kwargs):
    sim = sim or Simulator()
    return sim, FTLFlashDevice(sim, capacity_blocks=capacity, **kwargs)


def run_gen(sim, gen):
    sim.run_until_complete(gen)
    return sim.now


class TestDeviceBasics:
    def test_first_write_costs_one_page_write(self):
        sim, device = make_device()
        start = sim.now
        run_gen(sim, device.write_block(100))
        assert sim.now - start == device.timing.write_ns

    def test_read_costs_read_latency(self):
        sim, device = make_device()
        run_gen(sim, device.write_block(100))
        start = sim.now
        run_gen(sim, device.read_block(100))
        assert sim.now - start == device.timing.read_ns

    def test_capacity_enforced(self):
        sim, device = make_device(capacity=4)
        for block in range(4):
            run_gen(sim, device.write_block(block))
        with pytest.raises(Exception):
            run_gen(sim, device.write_block(99))

    def test_trim_releases_capacity(self):
        sim, device = make_device(capacity=4)
        for block in range(4):
            run_gen(sim, device.write_block(block))
        device.trim_block(0)
        run_gen(sim, device.write_block(99))  # must not raise

    def test_trim_absent_is_noop(self):
        _sim, device = make_device()
        device.trim_block(12345)


class TestWriteAmplification:
    def test_starts_at_zero(self):
        # A fresh device has amplified nothing (0.0, not 1.0/NaN).
        _sim, device = make_device()
        assert device.write_amplification == 0.0

    def test_sequential_overwrites_do_not_amplify(self):
        """Uniform whole-space overwrites leave GC victims fully
        invalid, so greedy GC relocates nothing — WA stays 1."""
        sim, device = make_device(capacity=128, overprovision=0.10)

        def churn():
            for _round in range(40):
                for block in range(128):
                    yield from device.write_block(block)

        run_gen(sim, churn())
        assert device.write_amplification == pytest.approx(1.0, abs=0.05)
        assert device.ftl.erases > 0

    def test_random_overwrites_amplify(self):
        """Random overwrites mix valid and invalid pages in every erase
        block, forcing GC to relocate survivors — WA exceeds 1."""
        import random

        rng = random.Random(3)
        sim, device = make_device(
            capacity=128, overprovision=0.10, pages_per_block=16
        )

        def churn():
            for block in range(128):  # fill once
                yield from device.write_block(block)
            for _ in range(5000):
                yield from device.write_block(rng.randrange(128))

        run_gen(sim, churn())
        assert device.write_amplification > 1.05
        assert device.ftl.erases > 0

    def test_gc_cost_reflected_in_time(self):
        """A churned device takes longer per write than WA=1 would."""
        sim, device = make_device(capacity=128, overprovision=0.10)

        def churn():
            for round_number in range(40):
                for block in range(128):
                    yield from device.write_block(block)

        run_gen(sim, churn())
        ideal = 40 * 128 * device.timing.write_ns
        assert sim.now > ideal


class TestEndToEnd:
    def test_simulation_reports_write_amplification(self):
        trace = make_trace([("w", i % 32) for i in range(600)], file_blocks=256)
        config = tiny_config(ram_bytes=4 * KB, flash_bytes=64 * KB, ftl_model=True)
        results = run_simulation(trace, config)
        assert results.flash_write_amplification is not None
        assert results.flash_write_amplification >= 1.0

    def test_plain_device_reports_none(self):
        trace = make_trace([("w", 0)])
        results = run_simulation(trace, tiny_config())
        assert results.flash_write_amplification is None

    def test_ftl_run_matches_plain_when_gc_idle(self):
        """With ample space and no churn, the FTL device behaves like
        the average-latency model."""
        trace = make_trace([("r", i) for i in range(16)], file_blocks=256)
        plain = run_simulation(trace, tiny_config())
        ftl = run_simulation(trace, tiny_config(ftl_model=True))
        assert ftl.read_latency.mean_ns == plain.read_latency.mean_ns

    def test_eviction_trims_pages(self):
        config = tiny_config(ram_bytes=4 * KB, flash_bytes=32 * KB, ftl_model=True)
        system = System(config, 1)
        host = system.hosts[0]
        # Push many blocks through an 8-block flash; without TRIM on
        # eviction the device would run out of logical pages.
        for block in range(100):
            timed(system, host.read_block(block))
        assert len(host.flash) <= 8

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(ftl_model=True, flash_parallelism=4)
        with pytest.raises(ConfigError):
            tiny_config(ftl_overprovision=1.5)
