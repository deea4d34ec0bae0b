"""Tests for the kernel's synchronization primitives: Completion and
WaitQueue."""

import pytest

from repro.engine.events import Completion, WaitQueue, all_of
from repro.engine.simulation import Simulator
from repro.errors import SimulationError


class TestCompletion:
    def test_initially_pending(self):
        comp = Completion()
        assert not comp.fired
        assert comp.value is None

    def test_fire_sets_value(self):
        comp = Completion()
        comp.fire(42)
        assert comp.fired
        assert comp.value == 42

    def test_double_fire_rejected(self):
        comp = Completion()
        comp.fire()
        with pytest.raises(SimulationError):
            comp.fire()

    def test_callback_before_fire(self):
        comp = Completion()
        seen = []
        comp.add_callback(seen.append)
        assert seen == []
        comp.fire("x")
        assert seen == ["x"]

    def test_callback_after_fire_runs_immediately(self):
        comp = Completion()
        comp.fire("y")
        seen = []
        comp.add_callback(seen.append)
        assert seen == ["y"]

    def test_process_waits_for_completion(self):
        sim = Simulator()
        comp = Completion()
        log = []

        def waiter():
            value = yield comp
            log.append((sim.now, value))

        def firer():
            yield 100
            comp.fire("done")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert log == [(100, "done")]

    def test_waiting_on_fired_completion_resumes_immediately(self):
        sim = Simulator()
        comp = Completion()
        comp.fire(7)
        results = []

        def waiter():
            value = yield comp
            results.append(value)

        sim.spawn(waiter())
        sim.run()
        assert results == [7]

    def test_multiple_waiters_resume_in_subscription_order(self):
        sim = Simulator()
        comp = Completion()
        order = []

        def waiter(tag):
            yield comp
            order.append(tag)

        sim.spawn(waiter("a"))
        sim.spawn(waiter("b"))
        sim.spawn(waiter("c"))

        def firer():
            yield 10
            comp.fire()

        sim.spawn(firer())
        sim.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    def test_empty_list_fires_immediately(self):
        combined = all_of([])
        assert combined.fired
        assert combined.value == []

    def test_collects_values_in_order(self):
        a, b = Completion(), Completion()
        combined = all_of([a, b])
        b.fire(2)
        assert not combined.fired
        a.fire(1)
        assert combined.fired
        assert combined.value == [1, 2]

    def test_already_fired_inputs(self):
        a = Completion()
        a.fire("x")
        combined = all_of([a])
        assert combined.fired
        assert combined.value == ["x"]

    def test_empty_list_in_kernel_resumes_without_suspending(self):
        # Contract: the vacuous conjunction is already fired when
        # all_of() returns, so a process yielding it resumes at the
        # current instant without waiting on anything.
        sim = Simulator()
        log = []

        def waiter():
            value = yield all_of([])
            log.append((sim.now, value))

        sim.spawn(waiter())
        sim.run()
        assert log == [(0, [])]

    def test_empty_list_callbacks_run_synchronously(self):
        combined = all_of([])
        seen = []
        combined.add_callback(seen.append)
        assert seen == [[]]

    def test_single_element_in_kernel_waits_for_that_completion(self):
        # A one-element all_of must behave exactly like yielding the
        # completion directly, with the value wrapped in a list.
        sim = Simulator()
        inner = Completion()
        log = []

        def waiter():
            value = yield all_of([inner])
            log.append((sim.now, value))

        def firer():
            yield 50
            inner.fire("v")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert log == [(50, ["v"])]

    def test_doc_and_behavior_agree_on_empty_input(self):
        # Regression: the docstring used to claim the empty conjunction
        # "fires as soon as the first process waits on it" while the
        # implementation created it already fired.
        assert "already" in all_of.__doc__ and "fired" in all_of.__doc__
        assert all_of([]).fired


class TestWaitQueue:
    """A process that yields a WaitQueue parks until ``wake_first``."""

    def test_waiters_resume_fifo_at_the_release_instant(self):
        sim = Simulator()
        queue = WaitQueue()
        log = []

        def waiter(tag):
            value = yield queue
            log.append((tag, sim.now, value))

        def releaser():
            yield 100
            queue.wake_first("x")
            yield 50
            queue.wake_first("y")
            queue.wake_first()

        for tag in "abc":
            sim.spawn(waiter(tag))
        sim.spawn(releaser())
        sim.run()
        assert log == [("a", 100, "x"), ("b", 150, "y"), ("c", 150, None)]

    def test_blocked_processes_rise_and_fall_with_waiters(self):
        sim = Simulator()
        queue = WaitQueue()

        def waiter():
            yield queue

        for _ in range(3):
            sim.spawn(waiter())
        sim.run()
        assert sim.blocked_processes == 3
        assert len(queue) == 3
        queue.wake_first()
        assert sim.blocked_processes == 2
        sim.run()
        assert sim.blocked_processes == 2
        queue.wake_first()
        queue.wake_first()
        sim.run()
        assert sim.blocked_processes == 0
        assert not queue

    def test_waiter_never_woken_is_a_deadlock(self):
        sim = Simulator()
        queue = WaitQueue()

        def proc():
            yield queue

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc())
        assert sim.blocked_processes == 1

    def test_bounded_run_parks_and_resumes(self):
        sim = Simulator()
        queue = WaitQueue()
        log = []

        def waiter():
            yield 10
            value = yield queue
            log.append((sim.now, value))

        def releaser():
            yield 40
            queue.wake_first("go")

        sim.spawn(waiter())
        sim.spawn(releaser())
        assert sim.run(until=20) == 20
        assert sim.blocked_processes == 1
        assert len(queue) == 1
        sim.run(until=100)
        assert log == [(40, "go")]
        assert sim.blocked_processes == 0

    def test_wake_pushes_the_entry_a_fired_completion_pushes(self):
        """Parking on a queue instead of a per-waiter grant completion
        moves no event: the resume is the same heap entry."""
        pushed = []
        for make in (Completion, WaitQueue):
            sim = Simulator()
            gate = make()

            def proc(gate=gate):
                yield 5
                yield gate

            process = sim.spawn(proc())
            sim.run()
            assert sim.blocked_processes == 1
            assert sim._heap == []
            if make is Completion:
                gate.fire("v")
            else:
                gate.wake_first("v")
            ((when, seq, resumed, value),) = sim._heap
            pushed.append((when, seq, resumed is process, value, sim.blocked_processes))
        assert pushed[0] == pushed[1] == (5, 2, True, "v", 0)
