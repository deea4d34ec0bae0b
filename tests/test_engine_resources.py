"""Tests for FIFO resources."""

import pytest

from repro.engine.events import WaitQueue
from repro.engine.resources import Resource
from repro.engine.simulation import Simulator
from repro.errors import SimulationError


def hold(sim, resource, duration, log, tag):
    yield resource.acquire()
    log.append(("start", tag, sim.now))
    yield duration
    resource.release()
    log.append(("end", tag, sim.now))


class TestResourceSerialization:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        log = []
        sim.spawn(hold(sim, link, 100, log, "a"))
        sim.spawn(hold(sim, link, 100, log, "b"))
        sim.run()
        assert log == [
            ("start", "a", 0),
            ("end", "a", 100),
            ("start", "b", 100),
            ("end", "b", 200),
        ]

    def test_fifo_grant_order(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        log = []
        for tag in ("a", "b", "c", "d"):
            sim.spawn(hold(sim, link, 10, log, tag))
        sim.run()
        starts = [entry[1] for entry in log if entry[0] == "start"]
        assert starts == ["a", "b", "c", "d"]

    def test_capacity_two_allows_overlap(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        log = []
        for tag in ("a", "b", "c"):
            sim.spawn(hold(sim, pool, 100, log, tag))
        sim.run()
        # a and b start immediately; c waits for the first release.
        assert ("start", "a", 0) in log
        assert ("start", "b", 0) in log
        assert ("start", "c", 100) in log

    def test_use_helper(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)

        def proc():
            yield from link.use(300)

        sim.spawn(proc())
        sim.run()
        assert sim.now == 300
        assert link.in_use == 0


class TestResourceAccounting:
    def test_acquisition_count(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        log = []
        for tag in range(5):
            sim.spawn(hold(sim, link, 10, log, tag))
        sim.run()
        assert link.total_acquisitions == 5

    def test_utilization_full_busy(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        log = []
        sim.spawn(hold(sim, link, 100, log, "a"))
        sim.spawn(hold(sim, link, 100, log, "b"))
        sim.run()
        assert link.utilization() == pytest.approx(1.0)

    def test_utilization_half_busy(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        log = []

        def idle_then_use():
            yield 100
            yield from hold(sim, link, 100, log, "a")

        sim.spawn(idle_then_use())
        sim.run()
        assert link.utilization() == pytest.approx(0.5)

    def test_queue_length_visible(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        log = []
        sim.spawn(hold(sim, link, 100, log, "a"))
        sim.spawn(hold(sim, link, 100, log, "b"))
        sim.spawn(hold(sim, link, 100, log, "c"))
        sim.run(until=50)
        assert link.queue_length == 2


class TestResourceParking:
    def test_queued_acquire_parks_in_the_wait_queue(self):
        sim = Simulator()
        link = Resource(sim, capacity=1)
        granted = []

        def holder():
            granted.append((yield link.acquire()))
            yield 10
            link.release()

        sim.spawn(holder())
        sim.spawn(holder())
        sim.run(until=5)
        assert link.queue_length == 1
        assert sim.blocked_processes == 1
        # A full resource hands out its queue, not a grant completion.
        assert type(link.acquire()) is WaitQueue
        sim.run()
        # Free and queued acquires both resume with the resource.
        assert granted == [link, link]
        assert link.total_acquisitions == 2
        assert link.in_use == 0
        assert sim.blocked_processes == 0
        assert sim.now == 20


class TestResourceErrors:
    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_release_without_acquire(self):
        link = Resource(Simulator(), capacity=1)
        with pytest.raises(SimulationError):
            link.release()
