"""Fleet-scale consistency: holder-map properties, the directory latency
model, and the multi-tenant scenario family."""

import random
from dataclasses import replace

import pytest

from repro._units import MB
from repro.core.consistency import ConsistencyDirectory
from repro.core.machine import System
from repro.core.simulator import run_simulation
from repro.engine.compiled import kernel_eligible
from repro.errors import ConfigError
from repro.net.directory import DirectoryTiming
from repro.tracegen.fleet import SCENARIOS, FleetSpec, _interleave, fleet_trace
from repro.traces.records import Trace, TraceOp, TraceRecord

from tests.helpers import tiny_config


def _random_ops(rng, n_hosts, n_blocks, n_ops):
    """A reproducible interleaving of directory operations."""
    ops = []
    for _ in range(n_ops):
        kind = rng.randrange(3)
        host = rng.randrange(n_hosts)
        block = rng.randrange(n_blocks)
        ops.append((kind, host, block, rng.random() < 0.7))
    return ops


def _apply(directory, ops):
    for kind, host, block, measured in ops:
        if kind == 0:
            directory.note_copy(host, block)
        elif kind == 1:
            directory.note_drop(host, block)
        else:
            directory.on_block_write(host, block, measured)


class TestShardingProperties:
    """The directory's one holder map under random operations."""

    def test_invalidating_writes_never_exceed_block_writes(self):
        rng = random.Random(0xF1EE7)
        for trial in range(20):
            directory = ConsistencyDirectory(8)
            _apply(directory, _random_ops(rng, 8, 64, 400))
            assert (
                directory.writes_requiring_invalidation <= directory.block_writes
            )
            assert directory.copies_invalidated >= (
                directory.writes_requiring_invalidation
            )

    def test_holder_map_matches_set_model_on_same_ops(self):
        rng = random.Random(0x5EED)
        ops = _random_ops(rng, 12, 200, 1000)
        directory = ConsistencyDirectory(12)
        drops = {h: [] for h in range(12)}
        for host in range(12):
            directory.register_host(host, drops[host].append)
        _apply(directory, ops)
        # Reference: a set of holder hosts per block; a write drops the
        # other hosts' copies in host-id order.
        model = {}
        model_drops = {h: [] for h in range(12)}
        writes = requiring = copies = 0
        for kind, host, block, measured in ops:
            holders = model.setdefault(block, set())
            if kind == 0:
                holders.add(host)
            elif kind == 1:
                holders.discard(host)
            else:
                others = sorted(holders - {host})
                holders &= {host}
                for other in others:
                    model_drops[other].append(block)
                if measured:
                    writes += 1
                    requiring += bool(others)
                    copies += len(others)
        assert drops == model_drops
        assert directory.block_writes == writes
        assert directory.writes_requiring_invalidation == requiring
        assert directory.copies_invalidated == copies
        for block in range(200):
            assert directory.holders_of(block) == model.get(block, set())
        assert set(directory.holders) == {b for b, h in model.items() if h}

    def test_thousand_host_system_builds(self):
        system = System(tiny_config(), 1000)
        assert len(system.hosts) == 1000
        # Slotted host stacks: no per-instance dict on the plain paths.
        assert not hasattr(system.hosts[0], "__dict__")


class TestDirectoryTiming:
    def test_defaults_are_instant(self):
        timing = DirectoryTiming.paper_default()
        assert timing.is_instant
        assert tiny_config().timing.directory.is_instant

    def test_rejects_negative_latencies(self):
        with pytest.raises(ConfigError):
            DirectoryTiming(lookup_ns=-1)
        with pytest.raises(ConfigError):
            DirectoryTiming(invalidate_ns=-1)

    def _shared_write_trace(self):
        """Two hosts ping-pong writes over one shared file: every
        measured write by one host invalidates the other's copy."""
        records = []
        for round_index in range(40):
            for host in (0, 1):
                records.append(TraceRecord(TraceOp.READ, host, 0, 0, 0, 4))
                records.append(TraceRecord(TraceOp.WRITE, host, 0, 0, 0, 4))
        return Trace(records, [16], warmup_records=len(records) // 2)

    def _modeled_config(self):
        config = tiny_config()
        return replace(
            config,
            timing=config.timing.with_directory(
                DirectoryTiming(lookup_ns=5_000, invalidate_ns=20_000)
            ),
        )

    def test_instant_default_reports_zero_stall(self):
        results = run_simulation(self._shared_write_trace(), tiny_config())
        assert results.invalidation_latency_ns == 0

    def test_modeled_latency_surfaces_in_results(self):
        results = run_simulation(self._shared_write_trace(), self._modeled_config())
        assert results.writes_requiring_invalidation > 0
        assert results.invalidation_latency_ns > 0
        # Every measured write pays at least the lookup; invalidating
        # writes add a per-victim charge on top.
        floor = results.block_writes * 5_000 + (
            results.copies_invalidated * 20_000
        )
        assert results.invalidation_latency_ns == floor

    def test_modeled_latency_slows_writes(self):
        trace = self._shared_write_trace()
        instant = run_simulation(trace, tiny_config())
        modeled = run_simulation(trace, self._modeled_config())
        assert modeled.write_latency_us > instant.write_latency_us

    def test_breakdown_attributes_invalidation_component(self):
        from repro.obs import Observation

        obs = Observation()
        run_simulation(self._shared_write_trace(), self._modeled_config(), obs=obs)
        breakdown = obs.breakdown
        assert breakdown.write_ns["invalidation"] > 0
        assert breakdown.unattributed_ns == 0

    def test_modeled_latency_disables_compiled_kernel(self):
        system = System(self._modeled_config(), 2)
        assert not kernel_eligible(system)
        assert kernel_eligible(System(tiny_config(), 2))


class TestFleetSpec:
    def test_group_size_and_shares(self):
        spec = FleetSpec(n_hosts=12, n_tenants=3, tenant_skew=0.0)
        assert spec.group_size == 4
        assert spec.tenant_shares() == pytest.approx([1 / 3] * 3)

    def test_skew_orders_shares(self):
        shares = FleetSpec(n_hosts=8, n_tenants=4, tenant_skew=1.0).tenant_shares()
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)

    def test_rejects_uneven_groups(self):
        with pytest.raises(ConfigError):
            FleetSpec(n_hosts=10, n_tenants=4)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError):
            fleet_trace(FleetSpec(n_hosts=4, n_tenants=2, ws_bytes=1 * MB), "nope")

    def test_failover_needs_two_host_groups(self):
        with pytest.raises(ConfigError):
            fleet_trace(
                FleetSpec(n_hosts=4, n_tenants=4, ws_bytes=1 * MB), "failover_storm"
            )


class TestFleetScenarios:
    SPEC = FleetSpec(n_hosts=8, n_tenants=4, ws_bytes=1 * MB, threads_per_host=2)

    def test_scenarios_cover_all_hosts(self):
        for scenario in SCENARIOS:
            trace = fleet_trace(self.SPEC, scenario)
            hosts = trace.hosts()
            assert min(hosts) == 0
            assert max(hosts) == self.SPEC.n_hosts - 1

    def test_generation_is_deterministic(self):
        for scenario in SCENARIOS:
            first = fleet_trace(self.SPEC, scenario)
            second = fleet_trace(self.SPEC, scenario)
            assert first.records == second.records
            assert first.warmup_records == second.warmup_records

    def test_tenants_use_disjoint_files(self):
        trace = fleet_trace(self.SPEC, "steady")
        group = self.SPEC.group_size
        tenant_files = {}
        for record in trace.records:
            tenant_files.setdefault(record.host // group, set()).add(record.file_id)
        tenants = sorted(tenant_files)
        for a in tenants:
            for b in tenants:
                if a < b:
                    assert not (tenant_files[a] & tenant_files[b])

    def test_rolling_restart_adds_rewarm_reads(self):
        steady = fleet_trace(self.SPEC, "steady")
        rolling = fleet_trace(self.SPEC, "rolling_restart")
        assert len(rolling) > len(steady)
        assert rolling.warmup_records == steady.warmup_records
        extra = len(rolling) - len(steady)
        reads = lambda t: sum(1 for r in t.records if not r.is_write)  # noqa: E731
        assert reads(rolling) - reads(steady) == extra

    def test_failover_standbys_idle_before_switch(self):
        trace = fleet_trace(self.SPEC, "failover_storm")
        group = self.SPEC.group_size
        n_primary = (group + 1) // 2
        standbys = set(range(n_primary, group))
        first_standby = next(
            index
            for index, record in enumerate(trace.records)
            if record.host in standbys
        )
        # Standbys are silent through warmup and only wake mid-measurement.
        assert first_standby >= trace.warmup_records
        # After the switch the tenant's primaries go quiet: the last
        # primary record precedes the last standby record.
        last_primary = max(
            index
            for index, record in enumerate(trace.records)
            if record.host < n_primary
        )
        assert last_primary < len(trace.records) - 1

    def test_interleave_matches_lag_scan(self):
        def scan(groups):
            # every record: the unfinished group with the lowest
            # (lag, index), as a strict-< scan over the groups picks
            cursors = [0] * len(groups)
            out = []
            for _ in range(sum(map(len, groups))):
                _lag, best = min(
                    (cursors[index] / len(group), index)
                    for index, group in enumerate(groups)
                    if cursors[index] < len(group)
                )
                out.append(groups[best][cursors[best]])
                cursors[best] += 1
            return out

        rng = random.Random(5)
        for _ in range(200):
            # lengths sharing factors make equal lags, so ties are common
            groups = [
                [(group, k) for k in range(rng.choice((0, 1, 2, 3, 4, 6, 8, 12)))]
                for group in range(rng.randint(1, 6))
            ]
            assert _interleave(groups) == scan(groups)

    def test_replay_counts_invalidations(self):
        for scenario in SCENARIOS:
            results = run_simulation(
                fleet_trace(self.SPEC, scenario),
                tiny_config(),
                n_hosts=self.SPEC.n_hosts,
            )
            assert results.writes_requiring_invalidation > 0
            assert results.writes_requiring_invalidation <= results.block_writes
