"""Periodic processes and their golden identity gate.

:func:`repro.engine.periodic.spawn_periodic` ticks every host's syncers
and aged cleaners from one process per period.  The unit tests pin its
contract; :class:`TestGoldenIdentity` replays a host-count x
architecture x writeback matrix and requires every result to match the
digests recorded from the per-host syncer processes it replaced
(``tests/periodic_golden.json``).

Regenerate the digests only for an intended behaviour change::

    PYTHONPATH=src python tests/test_periodic.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.policies import WritebackPolicy
from repro.core.simulator import run_simulation
from repro.engine.periodic import spawn_periodic
from repro.engine.simulation import Simulator
from repro.experiments.common import baseline_config, scaled_policy
from repro.obs import Observation
from repro.obs.events import EventKind
from repro.policies.cleaning import AgedClean
from repro.tracegen.fleet import FleetSpec, fleet_trace
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.validation.differential import full_signature

GOLDEN = Path(__file__).with_name("periodic_golden.json")

#: Geometry divisor: 512 KB RAM, 4 MB flash, p1 ticks every 61 us.
SCALE = 16384
#: host count -> tenant groups of the fleet trace
HOSTS = {1: 1, 4: 2, 16: 4}
ARCHITECTURES = ("naive", "lookaside", "unified", "exclusive")
#: RAM/flash writeback pairs: equal periods, coinciding unequal
#: periods (every fifth p1 tick meets a p5 tick), trickle, and a
#: flash-only syncer.
WRITEBACK_PAIRS = ("p1/p1", "p1/p5", "p5/p1", "t1/a", "t1/t1", "n/p1")
#: aged cleaning replaces the flash syncer on the layered stacks
CLEANED = ("naive", "lookaside")


@lru_cache(maxsize=None)
def _trace(n_hosts: int) -> CompiledTrace:
    spec = FleetSpec(
        n_hosts=n_hosts,
        n_tenants=HOSTS[n_hosts],
        ws_bytes=2 * MB,
        write_fraction=0.5,
        volume_multiple=2.0,
        seed=7,
    )
    return compile_trace(fleet_trace(spec, "steady"))


def _config(architecture: str, pair: str, cleaning: bool) -> SimConfig:
    ram, flash = (WritebackPolicy.parse(label) for label in pair.split("/"))
    config = baseline_config(
        scale=SCALE,
        architecture=Architecture(architecture),
        ram_policy=ram,
        flash_policy=flash,
    )
    if cleaning:
        config = config.with_policies(flash_cleaning=AgedClean().scaled(SCALE))
    return config


def golden_points() -> Iterator[Tuple[str, int, SimConfig]]:
    """Every ``(name, n_hosts, config)`` point of the identity matrix."""
    for n_hosts in HOSTS:
        for architecture in ARCHITECTURES:
            for pair in WRITEBACK_PAIRS:
                name = "%dh %s %s" % (n_hosts, architecture, pair)
                yield name, n_hosts, _config(architecture, pair, False)
        for architecture in CLEANED:
            name = "%dh %s p1/p1 alru" % (n_hosts, architecture)
            yield name, n_hosts, _config(architecture, "p1/p1", True)


def point_digest(n_hosts: int, config: SimConfig) -> str:
    result = run_simulation(_trace(n_hosts), config, n_hosts=n_hosts)
    encoded = json.dumps(full_signature(result), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def golden_digests() -> Dict[str, str]:
    return {
        name: point_digest(n_hosts, config)
        for name, n_hosts, config in golden_points()
    }


class TestGoldenIdentity:
    def test_matrix_covers_the_recorded_points(self):
        recorded = json.loads(GOLDEN.read_text())
        assert sorted(recorded) == sorted(name for name, _, _ in golden_points())

    def test_periods_coincide(self):
        # The matrix exercises merged groups that meet other groups.
        p1 = scaled_policy(WritebackPolicy.parse("p1"), SCALE).period_ns
        p5 = scaled_policy(WritebackPolicy.parse("p5"), SCALE).period_ns
        assert p5 % p1 == 0
        assert AgedClean().scaled(SCALE).period_ns == p1

    @pytest.mark.parametrize("n_hosts", sorted(HOSTS))
    def test_every_digest_matches(self, n_hosts):
        recorded = json.loads(GOLDEN.read_text())
        drifted = [
            name
            for name, hosts, config in golden_points()
            if hosts == n_hosts and point_digest(hosts, config) != recorded[name]
        ]
        assert drifted == []


class TestObservedReplay:
    def test_one_spawn_per_period_and_syncer_runs_per_host(self):
        obs = Observation()
        config = _config("naive", "p1/p5", False)
        run_simulation(_trace(4), config, n_hosts=4, obs=obs)
        spawned = [
            event.info["name"]
            for event in obs.events
            if event.kind == EventKind.PROCESS_SPAWN
        ]
        assert [name for name in spawned if name.startswith("periodic.")] == [
            "periodic.%dns" % config.ram_policy.period_ns,
            "periodic.%dns" % config.flash_policy.period_ns,
        ]
        rounds = {
            (event.host, event.tier)
            for event in obs.events
            if event.kind == EventKind.SYNCER_RUN
        }
        assert {host for host, _ in rounds} == set(range(4))
        assert {tier for _, tier in rounds} == {"ram", "flash"}


class TestSpawnPeriodic:
    @staticmethod
    def _ticks(calls, sim, label):
        return lambda: calls.append((sim.now, label))

    def test_groups_by_period_in_first_appearance_order(self):
        sim = Simulator()
        calls = []
        tasks = [
            (10, self._ticks(calls, sim, "a")),
            (20, self._ticks(calls, sim, "b")),
            (10, self._ticks(calls, sim, "c")),
        ]
        processes = spawn_periodic(sim, tasks, lambda: sim.now < 40)
        assert [process.name for process in processes] == [
            "periodic.10ns", "periodic.20ns"
        ]
        sim.run()
        # Same-period ticks run back to back in task order; where the
        # periods coincide, the group whose wakeup was pushed first (the
        # longer period) runs first.
        assert calls == [
            (10, "a"), (10, "c"),
            (20, "b"), (20, "a"), (20, "c"),
            (30, "a"), (30, "c"),
            (40, "b"), (40, "a"), (40, "c"),
        ]
        assert all(process.finished for process in processes)

    def test_one_heap_event_per_period_per_tick(self):
        def pushes(tasks_per_period: int) -> Tuple[int, int]:
            sim = Simulator()
            tasks = [
                (period, lambda: None)
                for _ in range(tasks_per_period)
                for period in (10, 25)
            ]
            spawn_periodic(sim, tasks, lambda: sim.now < 200)
            spawned = sim.pending_events
            sim.run()
            return spawned, sim._seq

        # Every heap push takes one sequence number; eight tasks per
        # period cost exactly the pushes of one.
        assert pushes(1) == pushes(8)
        assert pushes(8)[0] == 2

    def test_stops_once_keep_running_turns_false(self):
        sim = Simulator()
        calls = []
        processes = spawn_periodic(
            sim, [(10, self._ticks(calls, sim, "x"))], lambda: len(calls) < 3
        )
        assert sim.run() == 30
        assert calls == [(10, "x"), (20, "x"), (30, "x")]
        assert processes[0].finished
        assert sim.pending_events == 0

    def test_no_tasks_spawns_nothing(self):
        sim = Simulator()
        assert spawn_periodic(sim, [], lambda: True) == []
        assert sim.pending_events == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_periodic.py --write")
    GOLDEN.write_text(json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n")
    print("wrote %s" % GOLDEN)
