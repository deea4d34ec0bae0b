"""White-box tests of the naive architecture's exact path latencies.

These drive the host stack directly through a System with deterministic
timing (prefetch rate 1.0 so every filer read is fast), asserting exact
nanosecond latencies for every hit level and policy behavior.
"""


from repro._units import KB
from repro.core.machine import System
from repro.core.policies import WritebackPolicy
from repro.engine.periodic import spawn_periodic

from tests.helpers import (
    FILER_WRITE_PATH_NS,
    FLASH_HIT_READ_NS,
    FLASH_WRITE_NS,
    MISS_READ_NOFLASH_NS,
    MISS_READ_NS,
    RAM_HIT_READ_NS,
    RAM_WRITE_NS,
    tiny_config,
)


def timed(system, gen):
    """Run one host-stack operation; return the duration the *requester*
    observed (background flushes it spawned drain afterwards and do not
    count, exactly as the application would see it)."""
    start = system.sim.now
    finished_at = []
    process = system.sim.spawn(gen)
    process.completion.add_callback(lambda _value: finished_at.append(system.sim.now))
    system.sim.run()
    assert finished_at, "operation did not complete"
    return finished_at[0] - start


class TestReadPath:
    def test_cold_miss_exact_latency(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        assert timed(system, host.read_block(0)) == MISS_READ_NS

    def test_ram_hit_exact_latency(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        timed(system, host.read_block(0))
        assert timed(system, host.read_block(0)) == RAM_HIT_READ_NS

    def test_flash_hit_after_ram_eviction(self):
        config = tiny_config(ram_bytes=8 * KB)  # 2 RAM blocks
        system = System(config, 1)
        host = system.hosts[0]
        for block in (0, 1, 2):  # block 0 falls out of RAM, stays in flash
            timed(system, host.read_block(block))
        assert 0 not in host.ram
        assert 0 in host.flash
        assert timed(system, host.read_block(0)) == FLASH_HIT_READ_NS

    def test_miss_without_flash(self):
        system = System(tiny_config(flash_bytes=0), 1)
        host = system.hosts[0]
        assert timed(system, host.read_block(0)) == MISS_READ_NOFLASH_NS

    def test_read_fill_populates_both_tiers(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        timed(system, host.read_block(5))
        assert 5 in host.ram
        assert 5 in host.flash
        assert not host.flash.peek(5).dirty

    def test_clean_ram_eviction_is_free(self):
        config = tiny_config(ram_bytes=8 * KB)
        system = System(config, 1)
        host = system.hosts[0]
        for block in (0, 1):
            timed(system, host.read_block(block))
        # Block 2 evicts clean block 0: no writeback charge beyond the miss.
        assert timed(system, host.read_block(2)) == MISS_READ_NS


class TestWritePath:
    def test_write_is_ram_speed_under_async_policy(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        assert timed(system, host.write_block(0)) == RAM_WRITE_NS

    def test_write_hit_is_ram_speed(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        timed(system, host.read_block(0))
        assert timed(system, host.write_block(0)) == RAM_WRITE_NS

    def test_sync_ram_policy_blocks_until_flash(self):
        config = tiny_config(ram_policy=WritebackPolicy.sync())
        system = System(config, 1)
        host = system.hosts[0]
        assert timed(system, host.write_block(0)) == RAM_WRITE_NS + FLASH_WRITE_NS

    def test_sync_sync_chain_blocks_until_filer(self):
        config = tiny_config(
            ram_policy=WritebackPolicy.sync(), flash_policy=WritebackPolicy.sync()
        )
        system = System(config, 1)
        host = system.hosts[0]
        expected = RAM_WRITE_NS + FLASH_WRITE_NS + FILER_WRITE_PATH_NS
        assert timed(system, host.write_block(0)) == expected

    def test_async_policy_cleans_block_in_background(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        timed(system, host.write_block(0))  # async flush spawned and drained
        assert not host.ram.peek(0).dirty
        assert 0 in host.flash

    def test_none_policy_leaves_block_dirty(self):
        config = tiny_config(
            ram_policy=WritebackPolicy.none(), flash_policy=WritebackPolicy.none()
        )
        system = System(config, 1)
        host = system.hosts[0]
        timed(system, host.write_block(0))
        assert host.ram.peek(0).dirty
        assert 0 not in host.flash  # not flushed yet

    def test_dirty_ram_eviction_charges_flash_write(self):
        config = tiny_config(
            ram_bytes=8 * KB,  # 2 RAM blocks
            ram_policy=WritebackPolicy.none(),
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        timed(system, host.write_block(0))
        timed(system, host.write_block(1))
        # The third write must evict dirty block 0 -> synchronous flash write.
        expected = RAM_WRITE_NS + FLASH_WRITE_NS
        assert timed(system, host.write_block(2)) == expected
        assert host.flash.peek(0).dirty

    def test_full_dirty_flash_eviction_exposes_filer(self):
        config = tiny_config(
            ram_bytes=4 * KB,  # 1 RAM block
            flash_bytes=8 * KB,  # 2 flash blocks
            ram_policy=WritebackPolicy.none(),
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        # Fill both flash blocks with dirty data via RAM evictions.
        for block in (0, 1, 2):
            timed(system, host.write_block(block))
        # Now the next dirty RAM eviction must evict dirty flash -> filer.
        duration = timed(system, host.write_block(3))
        assert duration >= FILER_WRITE_PATH_NS


class TestSubsetPlacement:
    def test_flash_entries_pinned_while_in_ram(self):
        system = System(tiny_config(), 1)
        host = system.hosts[0]
        timed(system, host.read_block(0))
        assert host.flash.peek(0).pinned
        # Evict block 0 from RAM by filling it.
        ram_capacity = host.ram.capacity_blocks
        for block in range(1, ram_capacity + 1):
            timed(system, host.read_block(block))
        assert 0 not in host.ram
        assert not host.flash.peek(0).pinned

    def test_ram_resident_blocks_survive_flash_pressure(self):
        config = tiny_config(ram_bytes=4 * KB, flash_bytes=16 * KB)  # 1 + 4 blocks
        system = System(config, 1)
        host = system.hosts[0]
        # Read block 0 so it is in both tiers, then push many blocks
        # through the flash.
        timed(system, host.read_block(0))
        timed(system, host.read_block(0))  # keep it hot in RAM
        for block in range(1, 10):
            timed(system, host.read_block(block))
            # Re-touch block 0 in RAM so it stays resident.
            timed(system, host.read_block(0))
        assert 0 in host.ram
        assert 0 in host.flash  # pinning kept the subset property


class TestSyncer:
    def test_periodic_syncer_flushes_dirty_blocks(self):
        config = tiny_config(
            ram_policy=WritebackPolicy.periodic(0.001),  # 1 ms period
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        timed(system, host.write_block(0))
        assert host.ram.peek(0).dirty
        spawn_periodic(  # two periods
            system.sim, host.periodic_tasks(), lambda: system.sim.now < 2_000_000
        )
        system.sim.run()
        assert not host.ram.peek(0).dirty
        assert 0 in host.flash
