"""Tests for the System replay driver (machine.py)."""

import pytest

from repro.core.architectures import Architecture
from repro.core.machine import System, _stores_of
from repro.core.simulator import mean_in_order, results_from_system, run_simulation
from repro.errors import ConfigError
from repro.traces.records import Trace

from tests.helpers import make_trace, tiny_config


class TestConstruction:
    def test_hosts_get_private_segments_and_devices(self):
        system = System(tiny_config(), 3)
        assert len(system.hosts) == 3
        assert len(system.segments) == 3
        assert len({id(seg) for seg in system.segments}) == 3
        assert all(device is not None for device in system.flash_devices)

    def test_no_flash_means_no_devices(self):
        system = System(tiny_config(flash_bytes=0), 2)
        assert all(device is None for device in system.flash_devices)

    @pytest.mark.parametrize("n_hosts", [0, -1])
    def test_fewer_than_one_host_rejected(self, n_hosts):
        with pytest.raises(ConfigError, match="at least one host"):
            System(tiny_config(), n_hosts)
        trace = make_trace([("r", 0)])
        with pytest.raises(ConfigError, match="at least one host"):
            run_simulation(trace, tiny_config(), n_hosts=n_hosts)
        with pytest.raises(ConfigError, match="at least one host"):
            run_simulation(trace, tiny_config(), n_hosts=n_hosts, parallel_hosts=2)

    def test_stores_of_by_architecture(self):
        naive = System(tiny_config(), 1).hosts[0]
        assert [name for name, _ in _stores_of(naive)] == ["ram", "flash"]
        unified = System(tiny_config(architecture=Architecture.UNIFIED), 1).hosts[0]
        assert [name for name, _ in _stores_of(unified)] == ["unified"]


class TestReplayValidation:
    def test_trace_host_out_of_range(self):
        trace = make_trace([("r", 0, 5)])
        system = System(tiny_config(), 2)
        with pytest.raises(ValueError, match="host 5"):
            system.replay(trace)

    def test_bad_host_leaves_system_untouched(self):
        """The host check runs before the first issuer is spawned and
        before a zero-warmup trace starts measuring."""
        trace = make_trace([("r", 0, 0), ("r", 1, 1)])
        system = System(tiny_config(), 1)
        with pytest.raises(ValueError, match="host 1"):
            system.replay(trace)
        assert system.sim.pending_events == 0
        assert system._active_threads == 0
        assert system._measurement_started_at is None

    def test_run_simulation_sizes_hosts_from_trace(self):
        trace = make_trace([("r", 0, 0), ("r", 1, 3)])
        results = run_simulation(trace, tiny_config())
        assert results.read_latency.count == 2

    def test_empty_trace(self):
        results = run_simulation(Trace([], [16]), tiny_config())
        assert results.records_replayed == 0
        assert results.read_latency.count == 0


class TestWarmupBoundary:
    def test_boundary_at_warmup_volume(self):
        # 4 single-block records, 2 warmup: measurement starts once two
        # blocks' worth of volume has completed.
        trace = make_trace([("r", 0), ("r", 1), ("r", 2), ("r", 3)], warmup=2)
        system = System(tiny_config(), 1)
        system.replay(trace)
        assert system._measurement_started_at is not None
        assert results_from_system(system, tiny_config(), len(trace)).measured_ns > 0

    def test_no_warmup_measures_from_start(self):
        trace = make_trace([("r", 0)])
        system = System(tiny_config(), 1)
        system.replay(trace)
        assert system.metrics.measurement_start_ns == 0

    def test_filer_counters_cover_measurement_only(self):
        # Warmup read misses everything (1 filer read); the measured
        # read hits RAM (0 filer reads).
        trace = make_trace([("r", 0), ("r", 0)], warmup=1)
        system = System(tiny_config(), 1)
        system.replay(trace)
        assert system.filer.reads == 0

    def test_tier_stats_reset_at_boundary(self):
        trace = make_trace([("r", 0), ("r", 0)], warmup=1)
        results = run_simulation(trace, tiny_config())
        ram = results.tier_stats["ram"]
        assert ram["hits"] == 1
        assert ram["misses"] == 0  # the warmup miss is excluded


class TestAggregation:
    def test_tier_stats_summed_across_hosts(self):
        trace = make_trace([("r", 0, 0), ("r", 100, 1)])
        system = System(tiny_config(), 2)
        system.replay(trace)
        totals = results_from_system(system, tiny_config(), len(trace)).tier_stats
        assert totals["ram"]["misses"] == 2

    def test_network_utilization_mean(self):
        system = System(tiny_config(), 2)
        assert results_from_system(system, tiny_config(), 0).network_utilization == 0.0

    def test_means_sum_left_to_right(self):
        # Python >= 3.12's compensated sum() gives exactly 1.0 here;
        # summing in order gives 3.11's result on every interpreter
        assert mean_in_order([0.1] * 10) == 0.9999999999999999 / 10

    def test_flash_traffic_totals(self):
        trace = make_trace([("r", 0, 0), ("r", 0, 1)])
        system = System(tiny_config(), 2)
        system.replay(trace)
        results = results_from_system(system, tiny_config(), len(trace))
        assert results.flash_blocks_written == 2  # one fill per host
        assert results.flash_blocks_read == 0

    def test_write_amplification_none_without_ftl(self):
        system = System(tiny_config(), 1)
        assert results_from_system(system, tiny_config(), 0).flash_write_amplification is None
