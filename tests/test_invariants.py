"""Tests for the repro.invariants sanitizer."""

import random

import pytest

from repro.cache.store import BlockStore
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.machine import System
from repro.core.simulator import run_simulation
from repro.engine.events import Completion
from repro.engine.simulation import Simulator
from repro.errors import ConfigError, InvariantViolation, SimulationError
from repro.flash.ftl import FTLConfig, PageMappedFTL
from repro.flash.ftl_device import FTLFlashDevice
from repro.invariants import (
    ENV_FLAG,
    Checker,
    build_suite,
    check_ftl,
    check_ftl_device,
    check_store,
    env_enabled,
    registered,
    resolve_enabled,
)
from tests.helpers import make_trace, tiny_config


def small_trace(n_ops=400, write_ratio=0.3, n_hosts=2, seed=9, warmup=100):
    rng = random.Random(seed)
    ops = [
        ("w" if rng.random() < write_ratio else "r", rng.randrange(700), rng.randrange(n_hosts))
        for _ in range(n_ops)
    ]
    return make_trace(ops, file_blocks=4096, warmup=warmup)


class TestInvariantViolation:
    def test_carries_structured_fields(self):
        exc = InvariantViolation("ftl", 1234, "drift", {"valid": 3})
        assert exc.checker == "ftl"
        assert exc.simulated_ns == 1234
        assert exc.snapshot == {"valid": 3}
        assert "'ftl'" in str(exc) and "t=1234 ns" in str(exc) and "drift" in str(exc)

    def test_is_a_simulation_error(self):
        assert issubclass(InvariantViolation, SimulationError)

    def test_without_sim_time(self):
        exc = InvariantViolation("cache.ram", None, "oops")
        assert "no sim time" in str(exc)
        assert exc.snapshot == {}


class TestCheckStore:
    def make(self, capacity=4):
        store = BlockStore(capacity, "lru", name="probe")
        store.put(1, dirty=True)
        store.put(2)
        return store

    def test_consistent_store_passes(self):
        check_store(self.make())

    def test_dirty_set_desync_detected(self):
        store = self.make()
        store._entries[1].dirty = False  # flag cleared behind the set's back
        with pytest.raises(InvariantViolation) as info:
            check_store(store)
        assert info.value.checker == "cache.probe"
        assert info.value.snapshot["only_in_set"] == [1]

    def test_policy_desync_detected(self):
        store = BlockStore(4, "slru", name="probe")
        store.put(1)
        store.put(2)
        store.get(2)  # promoted to the protected segment
        check_store(store)
        del store._policy._protected[2]  # dropped behind the store's back
        with pytest.raises(InvariantViolation, match="policy"):
            check_store(store)

    def test_clock_reference_bit_desync_detected(self):
        store = BlockStore(4, "clock", name="probe")
        store.put(1)
        store.get(1)
        check_store(store)
        store._policy._refs.add(9)  # a reference bit for an absent block
        with pytest.raises(InvariantViolation, match="policy"):
            check_store(store)

    def test_lifetime_identity_detected(self):
        store = self.make()
        store.lifetime_insertions += 1
        with pytest.raises(InvariantViolation, match="lifetime"):
            check_store(store)

    def test_lookup_identity_detected(self):
        store = self.make()
        store.stats.hits += 1
        with pytest.raises(InvariantViolation, match="lookups"):
            check_store(store)

    def test_occupancy_overflow_detected(self):
        store = self.make()
        store.capacity_blocks = 1
        with pytest.raises(InvariantViolation, match="capacity"):
            check_store(store)


class TestCheckFTL:
    def make(self):
        ftl = PageMappedFTL(
            FTLConfig(n_blocks=8, pages_per_block=4, overprovision=0.2)
        )
        rng = random.Random(0)
        for _ in range(60):
            ftl.write(rng.randrange(ftl.config.logical_pages))
        return ftl

    def test_consistent_ftl_passes(self):
        check_ftl(self.make())

    def test_valid_count_desync_detected(self):
        ftl = self.make()
        victim = next(blk for blk in ftl._blocks if blk.valid > 0)
        victim.valid += 1
        with pytest.raises(InvariantViolation, match="valid pages"):
            check_ftl(ftl)

    def test_open_block_on_free_list_detected(self):
        ftl = self.make()
        ftl._free.append(ftl._open.index)
        ftl._free_set.add(ftl._open.index)
        with pytest.raises(InvariantViolation, match="open block"):
            check_ftl(ftl)

    def test_amplification_below_one_detected(self):
        ftl = self.make()
        ftl.host_writes = ftl.flash_writes + 1
        with pytest.raises(InvariantViolation, match="amplification"):
            check_ftl(ftl)

    def test_stale_mapping_detected(self):
        ftl = self.make()
        lpn, (block_index, page_index) = next(iter(ftl._map.items()))
        ftl._blocks[block_index].pages[page_index] = None
        ftl._blocks[block_index].valid -= 1
        ftl._map[lpn] = (block_index, page_index)
        with pytest.raises(InvariantViolation):
            check_ftl(ftl)


class TestCheckFTLDevice:
    def test_duplicate_logical_page_detected(self):
        device = FTLFlashDevice(Simulator(), capacity_blocks=16)
        for block in (5, 6):
            list(device.write_block(block))
        device._lpn_of[6] = device._lpn_of[5]
        with pytest.raises(InvariantViolation, match="share"):
            check_ftl_device(device)


class TestKernelAccounting:
    def test_leaked_waiter_counted(self):
        sim = Simulator()
        never = Completion()

        def waiter():
            yield never

        sim.spawn(waiter())
        sim.run()
        assert sim.blocked_processes == 1

    def test_fired_completion_releases_waiter(self):
        sim = Simulator()
        done = Completion()

        def waiter():
            yield done

        def firer():
            yield 10
            done.fire("ok")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert sim.blocked_processes == 0

    def test_already_fired_completion_never_blocks(self):
        sim = Simulator()
        done = Completion()
        done.fire(1)

        def waiter():
            value = yield done
            assert value == 1

        sim.spawn(waiter())
        sim.run()
        assert sim.blocked_processes == 0


class TestEnablement:
    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not env_enabled()
        for value in ("0", "false", "no", ""):
            monkeypatch.setenv(ENV_FLAG, value)
            assert not env_enabled()
        monkeypatch.setenv(ENV_FLAG, "1")
        assert env_enabled()

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        off = SimConfig(check_invariants=False)
        on = SimConfig(check_invariants=True)
        assert resolve_enabled(None, off) is False
        assert resolve_enabled(None, on) is True
        assert resolve_enabled(False, on) is False  # explicit wins
        assert resolve_enabled(True, off) is True
        monkeypatch.setenv(ENV_FLAG, "1")
        assert resolve_enabled(None, off) is True

    def test_interval_validated(self):
        with pytest.raises(ConfigError):
            SimConfig(invariant_check_interval=0)


class TestReplayWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        system = System(tiny_config(), 1)
        assert system.invariants is None

    def test_clean_replay_runs_checks(self):
        trace = small_trace()
        config = tiny_config(check_invariants=True, invariant_check_interval=10)
        system = System(config, 2)
        system.replay(trace)
        # interval checks plus the final pass all ran without raising
        assert system.invariants.checks_run >= len(trace.records) // 10

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_all_architectures_pass_checking(self, architecture):
        trace = small_trace(n_ops=250)
        config = tiny_config(
            architecture=architecture,
            check_invariants=True,
            invariant_check_interval=8,
        )
        run_simulation(trace, config)

    def test_ftl_model_passes_checking(self):
        trace = small_trace(n_ops=250)
        config = tiny_config(
            ftl_model=True, check_invariants=True, invariant_check_interval=8
        )
        run_simulation(trace, config)

    def test_explicit_argument_enables(self):
        trace = small_trace(n_ops=120)
        system_config = tiny_config()  # check_invariants=False
        results = run_simulation(trace, system_config, check_invariants=True)
        assert results.records_replayed == 120

    def test_violation_surfaces_from_replay(self):
        class AlwaysFails(Checker):
            name = "always-fails"

            def check(self, system):
                raise InvariantViolation(self.name, system.sim.now, "boom")

        trace = small_trace(n_ops=60, warmup=0)
        config = tiny_config(check_invariants=True, invariant_check_interval=1)
        with registered(lambda _system: [AlwaysFails()]):
            with pytest.raises(InvariantViolation, match="always-fails"):
                run_simulation(trace, config)

    def test_registered_factory_is_scoped(self):
        factory = lambda _system: [Checker()]
        with registered(factory):
            suite = build_suite(System(tiny_config(check_invariants=True), 1))
            assert any(type(c) is Checker for c in suite.checkers)
        suite = build_suite(System(tiny_config(check_invariants=True), 1))
        assert not any(type(c) is Checker for c in suite.checkers)


class TestCLIFlag:
    def test_check_flag_sets_environment(self, monkeypatch):
        from repro.experiments import runner

        # setenv (not delenv): when the flag is absent, delenv records
        # nothing and the value runner.main writes would leak into the
        # rest of the suite; setenv records the prior state either way.
        monkeypatch.setenv(ENV_FLAG, "0")
        args = runner.build_parser().parse_args(["--check", "--fast"])
        assert args.check
        calls = []
        monkeypatch.setattr(
            runner, "run_one", lambda *a, **k: calls.append(env_enabled()) or ("", None)
        )
        monkeypatch.setattr(runner, "write_report", lambda *a, **k: None)
        assert runner.main(["figure4", "--check", "--fast"]) == 0
        assert calls == [True]
