"""White-box tests of the unified architecture (single LRU over RAM+flash)."""

import pytest

from repro._units import KB, MB
from repro.cache.block import Medium
from repro.core.architectures import Architecture
from repro.core.machine import System
from repro.core.policies import WritebackPolicy
from repro.engine.periodic import spawn_periodic

from tests.helpers import (
    FILER_WRITE_PATH_NS,
    FLASH_READ_NS,
    FLASH_WRITE_NS,
    RAM_READ_NS,
    RAM_WRITE_NS,
    tiny_config,
)
from tests.test_host_naive import timed


def unified_config(**overrides):
    return tiny_config(architecture=Architecture.UNIFIED, **overrides)


def media_census(host):
    counts = {Medium.RAM: 0, Medium.FLASH: 0}
    for block in host.cache.blocks():
        counts[host.cache.peek(block).medium] += 1
    return counts


class TestCapacityAndPlacement:
    def test_capacity_is_sum_of_media(self):
        config = unified_config(ram_bytes=1 * MB, flash_bytes=8 * MB)
        system = System(config, 1)
        assert system.hosts[0].cache.capacity_blocks == 256 + 2048

    def test_placement_proportional_to_media(self):
        config = unified_config(ram_bytes=1 * MB, flash_bytes=8 * MB)
        system = System(config, 1)
        host = system.hosts[0]

        def fill():
            for block in range(2304):  # exactly fill the cache
                yield from host.write_block(block)

        system.sim.run_until_complete(fill())
        counts = media_census(host)
        assert counts[Medium.RAM] == 256
        assert counts[Medium.FLASH] == 2048

    def test_ram_share_is_one_ninth_early(self):
        """'No attempt is made to prefer RAM to flash': while filling,
        RAM receives ~1/9 of insertions (1 MB of 9 MB total)."""
        config = unified_config(ram_bytes=1 * MB, flash_bytes=8 * MB)
        system = System(config, 1)
        host = system.hosts[0]

        def fill():
            for block in range(1152):  # half the cache
                yield from host.write_block(block)

        system.sim.run_until_complete(fill())
        counts = media_census(host)
        ram_share = counts[Medium.RAM] / (counts[Medium.RAM] + counts[Medium.FLASH])
        assert ram_share == pytest.approx(1 / 9, abs=0.04)

    def test_no_migration_between_media(self):
        config = unified_config(ram_bytes=1 * MB, flash_bytes=8 * MB)
        system = System(config, 1)
        host = system.hosts[0]
        timed(system, host.write_block(0))
        medium_before = host.cache.peek(0).medium
        for _ in range(5):
            timed(system, host.read_block(0))
            timed(system, host.write_block(0))
        assert host.cache.peek(0).medium is medium_before


class TestLatencies:
    def _single_block_system(self, medium_rng_outcome_seed=7):
        return System(unified_config(ram_bytes=1 * MB, flash_bytes=8 * MB), 1)

    def test_hit_latency_matches_medium(self):
        system = self._single_block_system()
        host = system.hosts[0]

        def fill():
            for block in range(200):
                yield from host.write_block(block)

        system.sim.run_until_complete(fill())
        for block in range(200):
            medium = host.cache.peek(block).medium
            expected = RAM_READ_NS if medium is Medium.RAM else FLASH_READ_NS
            assert timed(system, host.read_block(block)) == expected

    def test_write_latency_matches_medium(self):
        system = self._single_block_system()
        host = system.hosts[0]
        timed(system, host.write_block(0))
        medium = host.cache.peek(0).medium
        expected = RAM_WRITE_NS if medium is Medium.RAM else FLASH_WRITE_NS
        assert timed(system, host.write_block(0)) == expected

    def test_mean_write_latency_is_mostly_flash(self):
        """§7.1: "since only 1/9 of the data is placed in RAM and the
        rest in flash, on average we see 8/9 of the 21 us flash latency."""
        system = self._single_block_system()
        host = system.hosts[0]
        total = 0
        n = 300
        for block in range(n):
            total += timed(system, host.write_block(block))
        mean = total / n
        expected = (1 / 9) * RAM_WRITE_NS + (8 / 9) * FLASH_WRITE_NS
        assert mean == pytest.approx(expected, rel=0.15)


class TestPolicies:
    def test_policy_follows_buffer_medium(self):
        """Dirty RAM-buffer blocks follow the RAM policy, dirty
        flash-buffer blocks the flash policy."""
        config = unified_config(
            ram_bytes=1 * MB,
            flash_bytes=8 * MB,
            ram_policy=WritebackPolicy.none(),
            flash_policy=WritebackPolicy.sync(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        for block in range(100):
            duration = timed(system, host.write_block(block))
            medium = host.cache.peek(block).medium
            if medium is Medium.FLASH:
                # sync policy: charged the filer round trip
                assert duration == FLASH_WRITE_NS + FILER_WRITE_PATH_NS
                assert not host.cache.peek(block).dirty
            else:
                assert duration == RAM_WRITE_NS
                assert host.cache.peek(block).dirty

    def test_eviction_writes_back_dirty_victim(self):
        config = unified_config(
            ram_bytes=4 * KB,
            flash_bytes=8 * KB,  # 3 buffers total
            ram_policy=WritebackPolicy.none(),
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        for block in range(3):
            timed(system, host.write_block(block))
        assert system.filer.writes == 0
        timed(system, host.write_block(3))  # evicts a dirty victim
        assert system.filer.writes == 1

    def test_per_medium_syncers_flush_their_medium(self):
        """RAM-buffer dirt follows the RAM policy's syncer; flash-buffer
        dirt follows the flash policy's — here only the RAM syncer runs."""
        config = unified_config(
            ram_bytes=1 * MB,
            flash_bytes=8 * MB,
            ram_policy=WritebackPolicy.periodic(0.001),
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        for block in range(60):
            timed(system, host.write_block(block))
        ram_dirty_before = sum(
            1
            for block in host.cache.dirty_blocks()
            if host.cache.peek(block).medium is Medium.RAM
        )
        flash_dirty_before = host.cache.dirty_count - ram_dirty_before
        assert flash_dirty_before > 0

        spawn_periodic(
            system.sim, host.periodic_tasks(), lambda: system.sim.now < 3_000_000
        )
        system.sim.run()

        remaining = host.cache.dirty_blocks()
        assert all(
            host.cache.peek(block).medium is Medium.FLASH for block in remaining
        )
        assert len(remaining) == flash_dirty_before

    def test_drop_block_releases_buffer(self):
        config = unified_config(ram_bytes=4 * KB, flash_bytes=8 * KB)
        system = System(config, 1)
        host = system.hosts[0]
        for block in range(3):
            timed(system, host.write_block(block))
        host.drop_block(1)
        assert 1 not in host.cache
        # The freed buffer is reusable without eviction.
        timed(system, host.write_block(9))
        assert 9 in host.cache
        assert host.cache.stats.evictions == 0
