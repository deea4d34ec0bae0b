"""Tests for writeback policies."""

import pytest

from repro._units import SECOND
from repro.core.policies import PolicyKind, WritebackPolicy
from repro.errors import ConfigError


class TestConstruction:
    def test_sync(self):
        policy = WritebackPolicy.sync()
        assert policy.kind is PolicyKind.SYNC
        assert policy.blocks_requester
        assert policy.writes_through
        assert not policy.has_syncer

    def test_async(self):
        policy = WritebackPolicy.asynchronous()
        assert not policy.blocks_requester
        assert policy.writes_through

    def test_periodic(self):
        policy = WritebackPolicy.periodic(5)
        assert policy.has_syncer
        assert policy.period_ns == 5 * SECOND
        assert not policy.writes_through

    def test_none(self):
        policy = WritebackPolicy.none()
        assert not policy.writes_through
        assert not policy.has_syncer
        assert not policy.blocks_requester

    def test_periodic_requires_period(self):
        with pytest.raises(ConfigError):
            WritebackPolicy(PolicyKind.PERIODIC)

    def test_non_periodic_rejects_period(self):
        with pytest.raises(ConfigError):
            WritebackPolicy(PolicyKind.SYNC, period_ns=1)

    def test_zero_period_rejected(self):
        with pytest.raises(ConfigError):
            WritebackPolicy(PolicyKind.PERIODIC, period_ns=0)


class TestParseAndLabel:
    @pytest.mark.parametrize("label", ["s", "a", "p1", "p5", "p15", "p30", "n"])
    def test_round_trip(self, label):
        assert WritebackPolicy.parse(label).label == label

    def test_parse_case_and_whitespace(self):
        assert WritebackPolicy.parse(" S ").kind is PolicyKind.SYNC

    def test_parse_fractional_period(self):
        policy = WritebackPolicy.parse("p0.5")
        assert policy.period_ns == SECOND // 2

    def test_parse_unknown_rejected(self):
        with pytest.raises(ConfigError):
            WritebackPolicy.parse("x")

    def test_parse_bad_period_rejected(self):
        with pytest.raises(ConfigError):
            WritebackPolicy.parse("pfast")

    def test_str(self):
        assert str(WritebackPolicy.periodic(15)) == "p15"


class TestExtendedPolicies:
    """The §3.6 policies the paper names but does not evaluate."""

    def test_trickle(self):
        policy = WritebackPolicy.trickle(1)
        assert policy.kind is PolicyKind.TRICKLE
        assert policy.has_syncer
        assert not policy.writes_through
        assert policy.label == "t1"

    def test_delayed(self):
        policy = WritebackPolicy.delayed(5)
        assert policy.kind is PolicyKind.DELAYED
        assert not policy.has_syncer
        assert policy.flush_delay_ns == 5 * SECOND
        assert policy.label == "d5"

    def test_parse_round_trip(self):
        for label in ("t1", "t30", "d1", "d0.5"):
            assert WritebackPolicy.parse(label).label == label

    def test_flush_delay_only_for_delayed(self):
        assert WritebackPolicy.periodic(1).flush_delay_ns is None
        assert WritebackPolicy.trickle(1).flush_delay_ns is None

    def test_period_required(self):
        with pytest.raises(ConfigError):
            WritebackPolicy(PolicyKind.TRICKLE)
        with pytest.raises(ConfigError):
            WritebackPolicy(PolicyKind.DELAYED)

    def test_behavior_trickle_flushes_eventually(self):
        from repro.core.machine import System
        from repro.engine.periodic import spawn_periodic
        from tests.helpers import tiny_config
        from tests.test_host_naive import timed

        config = tiny_config(
            ram_policy=WritebackPolicy.trickle(0.001),
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        for block in range(4):
            timed(system, host.write_block(block))
        assert host.ram.dirty_count == 4
        spawn_periodic(
            system.sim, host.periodic_tasks(), lambda: system.sim.now < 3_000_000
        )
        system.sim.run()
        assert host.ram.dirty_count == 0

    def test_behavior_delayed_flush_waits(self):
        from repro.core.machine import System
        from tests.helpers import tiny_config

        config = tiny_config(
            ram_policy=WritebackPolicy.delayed(0.001),
            flash_policy=WritebackPolicy.none(),
        )
        system = System(config, 1)
        host = system.hosts[0]
        process = system.sim.spawn(host.write_block(0))
        system.sim.run(until=500_000)  # half the delay
        assert process.finished
        assert host.ram.peek(0).dirty  # not flushed yet
        system.sim.run()
        assert not host.ram.peek(0).dirty  # flushed after the delay
        assert 0 in host.flash


class TestAllSeven:
    def test_seven_policies_in_paper_order(self):
        labels = [policy.label for policy in WritebackPolicy.all_seven()]
        assert labels == ["s", "a", "p1", "p5", "p15", "p30", "n"]

    def test_policies_hashable_and_distinct(self):
        assert len(set(WritebackPolicy.all_seven())) == 7
