"""Synchronization primitives of the simulation kernel.

A :class:`Completion` is a one-shot event that processes may ``yield``
to suspend until some other process (or the kernel itself) fires it.
Firing delivers an optional value, which becomes the result of the
``yield`` expression in every waiting process.

A :class:`WaitQueue` is a FIFO queue of parked processes, the queue of
a server (a network wire, a :class:`~repro.engine.resources.Resource`):
a process that finds the server busy yields the queue and parks, and
the server's release resumes the first waiter.  Parking allocates
nothing, where waiting on a grant completion would allocate one.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List

from repro.errors import SimulationError


class Completion:
    """A one-shot event carrying an optional value.

    Processes wait on a completion by yielding it; non-process code can
    observe it via :meth:`add_callback`.  A completion fires exactly
    once; firing twice raises :class:`SimulationError`.

    The kernel resumes waiters *through the event queue* (at the same
    simulated time), so wakeup order is deterministic: waiters resume
    in the order they subscribed.
    """

    __slots__ = ("fired", "value", "_waiters", "_callbacks")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: List[Any] = []  # Process objects
        self._callbacks: List[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters with ``value``.

        Waiters subscribed after the event has fired resume
        immediately (the event stays fired forever).
        """
        if self.fired:
            raise SimulationError("Completion fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        for process in waiters:
            process._resume_soon(value)
        for callback in callbacks:
            callback(value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires.

        If the event already fired, the callback runs synchronously.
        """
        if self.fired:
            callback(self.value)
        else:
            self._callbacks.append(callback)

    def _subscribe(self, process: Any) -> None:
        """Called by the kernel when a process yields this completion."""
        if self.fired:
            process._resume_soon(self.value)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return "<Completion %s waiters=%d>" % (state, len(self._waiters))


class WaitQueue(deque):
    """A FIFO queue of parked processes.

    Beside an ``int`` delay and a :class:`Completion`, the third thing
    a process may yield.  A process that yields a ``WaitQueue`` is
    appended to it and stays parked, counted in
    :attr:`Simulator.blocked_processes` like a waiter on an unfired
    :class:`Completion`, until the queue's owner calls
    :meth:`wake_first`.  That resumes the longest-parked process at the
    current simulated time with the same ``(now, seq, process, value)``
    heap push that firing a completion makes for its waiter, so parking
    here instead of waiting on a per-waiter grant completion moves no
    event.

    The kernel recognizes the exact type (``type(command) is
    WaitQueue``), as it does ``int``.  A process must yield the queue in
    the same step that found its server busy; waiters nobody wakes stay
    blocked, which :meth:`Simulator.run_until_complete` reports as a
    deadlock.
    """

    __slots__ = ()

    def wake_first(self, value: Any = None) -> None:
        """Resume the longest-parked process with ``value``."""
        self.popleft()._resume_soon(value)


def all_of(completions: List[Completion]) -> Completion:
    """Return a completion that fires once every input completion has fired.

    The combined completion's value is the list of individual values, in
    input order.  An empty list yields a completion that is *already
    fired* when this function returns (there is nothing to wait for, and
    the vacuous conjunction holds immediately): its value is ``[]``, a
    process yielding it resumes without suspending, and callbacks added
    to it run synchronously.  A single-element list behaves exactly like
    waiting on that completion directly, with the value wrapped in a
    one-element list.
    """
    combined = Completion()
    remaining = len(completions)
    values: List[Any] = [None] * remaining
    if remaining == 0:
        combined.fire([])
        return combined

    def make_collector(index: int) -> Callable[[Any], None]:
        def collect(value: Any) -> None:
            nonlocal remaining
            values[index] = value
            remaining -= 1
            if remaining == 0:
                combined.fire(values)

        return collect

    for i, completion in enumerate(completions):
        completion.add_callback(make_collector(i))
    return combined
