"""Tests for the global consistency directory."""

import pytest

from repro.core.architectures import Architecture
from repro.core.consistency import ConsistencyDirectory
from repro.core.machine import System

from tests.helpers import tiny_config


def directory_with_hosts(n=2):
    directory = ConsistencyDirectory(n)
    dropped = {host: [] for host in range(n)}
    for host in range(n):
        directory.register_host(host, dropped[host].append)
    return directory, dropped


class TestCopyTracking:
    def test_note_copy_and_holders(self):
        directory, _dropped = directory_with_hosts()
        directory.note_copy(0, 42)
        directory.note_copy(1, 42)
        assert directory.holders_of(42) == {0, 1}

    def test_note_drop(self):
        directory, _dropped = directory_with_hosts()
        directory.note_copy(0, 42)
        directory.note_drop(0, 42)
        assert directory.holders_of(42) == set()

    def test_note_drop_without_copy_is_noop(self):
        directory, _dropped = directory_with_hosts()
        directory.note_drop(0, 42)  # must not raise


class TestInvalidation:
    def test_write_invalidates_remote_copies(self):
        directory, dropped = directory_with_hosts()
        directory.note_copy(1, 7)
        count = directory.on_block_write(0, 7)
        assert count == 1
        assert dropped[1] == [7]
        assert dropped[0] == []
        assert directory.holders_of(7) == set()

    def test_write_keeps_local_copy(self):
        directory, dropped = directory_with_hosts()
        directory.note_copy(0, 7)
        directory.note_copy(1, 7)
        directory.on_block_write(0, 7)
        assert directory.holders_of(7) == {0}
        assert dropped[0] == []

    def test_write_with_no_copies(self):
        directory, dropped = directory_with_hosts()
        assert directory.on_block_write(0, 7) == 0
        assert dropped[1] == []

    def test_three_hosts(self):
        directory, dropped = directory_with_hosts(3)
        for host in (1, 2):
            directory.note_copy(host, 5)
        assert directory.on_block_write(0, 5) == 2
        assert dropped[1] == [5]
        assert dropped[2] == [5]


class TestMeasurementGating:
    def test_unmeasured_writes_invalidate_but_do_not_count(self):
        directory, dropped = directory_with_hosts()
        directory.note_copy(1, 7)
        directory.on_block_write(0, 7, measured=False)
        assert dropped[1] == [7]  # the invalidation itself still happens
        assert directory.block_writes == 0
        assert directory.writes_requiring_invalidation == 0

    def test_measured_writes_count(self):
        directory, _dropped = directory_with_hosts()
        directory.note_copy(1, 7)
        directory.on_block_write(0, 7)  # requires invalidation
        directory.on_block_write(0, 8)  # does not
        assert directory.block_writes == 2
        assert directory.writes_requiring_invalidation == 1
        assert directory.copies_invalidated == 1
        assert directory.invalidation_fraction == pytest.approx(0.5)

    def test_reset_counters(self):
        directory, _dropped = directory_with_hosts()
        directory.on_block_write(0, 1)
        directory.reset_counters()
        assert directory.block_writes == 0

    def test_fraction_empty(self):
        directory, _dropped = directory_with_hosts()
        assert directory.invalidation_fraction == 0.0


class TestTrafficHook:
    def test_hook_fires_per_dropped_copy(self):
        directory, _dropped = directory_with_hosts(3)
        messages = []
        directory.traffic_hook = lambda writer, victim: messages.append(
            (writer, victim)
        )
        directory.note_copy(1, 7)
        directory.note_copy(2, 7)
        directory.on_block_write(0, 7)
        assert sorted(messages) == [(0, 1), (0, 2)]

    def test_hook_silent_without_remote_copies(self):
        directory, _dropped = directory_with_hosts()
        messages = []
        directory.traffic_hook = lambda writer, victim: messages.append(victim)
        directory.on_block_write(0, 7)
        assert messages == []

    def test_system_charges_victim_wire(self):
        from repro.core.machine import System
        from tests.helpers import tiny_config
        from tests.test_host_naive import timed

        config = tiny_config(model_invalidation_traffic=True)
        system = System(config, 2)
        timed(system, system.hosts[1].read_block(0))
        packets_before = system.segments[1].packets_sent
        timed(system, system.hosts[0].write_block(0))
        assert system.invalidation_messages == 1
        assert system.segments[1].packets_sent == packets_before + 1

    def test_disabled_by_default(self):
        from repro.core.machine import System
        from tests.helpers import tiny_config

        system = System(tiny_config(), 2)
        assert system.directory.traffic_hook is None

    def test_hook_silent_for_unregistered_victim(self):
        # A holder that never registered a dropper drops nothing, so no
        # invalidation message may be charged for it — but the copy is
        # still invalidated and counted (the directory is the truth).
        directory = ConsistencyDirectory(3)
        dropped = []
        directory.register_host(0, dropped.append)
        directory.register_host(1, dropped.append)
        messages = []
        directory.traffic_hook = lambda writer, victim: messages.append(
            (writer, victim)
        )
        directory.note_copy(2, 7)
        assert directory.on_block_write(0, 7) == 1
        assert directory.copies_invalidated == 1
        assert directory.holders_of(7) == set()
        assert messages == []


class TestSingleHostDirectory:
    """With one host no write can find another host's copy, so the
    directory tracks none; block writes are still counted."""

    def test_tracks_copies_from_two_hosts(self):
        assert not ConsistencyDirectory(1).tracks_copies
        assert ConsistencyDirectory(2).tracks_copies
        assert ConsistencyDirectory(64).tracks_copies

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_one_host_keeps_no_holders_but_counts_writes(self, architecture):
        system = System(tiny_config(architecture=architecture), 1)
        directory = system.directory
        host = system.hosts[0]

        def worker():
            for block in range(12):
                yield from host.read_block(block)
                yield from host.write_block(block, measured=block % 3 != 0)

        system.sim.run_until_complete(worker())
        assert not directory.holders
        assert directory.block_writes == 8
        assert directory.writes_requiring_invalidation == 0

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_two_hosts_track_copies(self, architecture):
        system = System(tiny_config(architecture=architecture), 2)
        system.sim.run_until_complete(system.hosts[0].read_block(5))
        assert system.directory.holders_of(5) == {0}


class TestRestartHolderState:
    def test_restart_mid_demote_leaves_no_stale_holder(self):
        # A demotion suspended on its flash write must not re-register
        # the host as a holder after a volatile restart wiped the block.
        from repro.core.architectures import Architecture
        from repro.core.machine import System
        from tests.helpers import tiny_config

        config = tiny_config(architecture=Architecture.EXCLUSIVE)
        system = System(config, 2)
        host = system.hosts[0]
        gen = host._demote_install(42, False)
        next(gen)  # block 42 is in flash; the device write is in flight
        assert 42 in host.flash
        host.apply_restart(volatile_flash=True, scan_ns_per_block=0)
        for _ in gen:  # the suspended demotion resumes after the reboot
            pass
        assert 0 not in system.directory.holders_of(42)

    def test_drop_host_forgets_every_copy(self):
        directory, _dropped = directory_with_hosts(3)
        for block in (3, 70, 141):
            directory.note_copy(0, block)
            directory.note_copy(2, block)
        directory.on_block_write(1, 3)
        counters = (
            directory.block_writes,
            directory.writes_requiring_invalidation,
            directory.copies_invalidated,
        )
        directory.note_copy(0, 9)
        directory.drop_host(0)
        for block in (3, 9, 70, 141):
            assert 0 not in directory.holders_of(block)
        assert directory.holders_of(70) == {2}
        # drop_host is state cleanup, not an invalidation: counters stay.
        assert counters == (
            directory.block_writes,
            directory.writes_requiring_invalidation,
            directory.copies_invalidated,
        )
