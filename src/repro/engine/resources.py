"""Contended resources for the simulation kernel.

:class:`Resource` is a FIFO semaphore: up to ``capacity`` holders at a
time, strict arrival-order granting.  A flash device with limited
internal parallelism is a ``capacity=k`` resource.  (The network
segment's two capacity-1 wires run the same protocol inline, in
:mod:`repro.net.link`.)

The idiomatic usage inside a process generator::

    yield resource.acquire()
    try:
        yield service_time
    finally:
        resource.release()

(The ``try/finally`` matters only for processes that can be interrupted;
the cache stack's I/O paths never are, so they use the plain form.)

An acquire that finds every slot taken parks the process in the
resource's :class:`~repro.engine.events.WaitQueue`; :meth:`release`
hands the slot straight to the first waiter and resumes it, so a queued
acquire allocates nothing.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.events import Completion, WaitQueue
from repro.engine.simulation import Simulator
from repro.errors import SimulationError


class Resource:
    """A FIFO semaphore with ``capacity`` concurrent holders.

    Tracks simple utilization statistics: total acquisitions and busy
    time (:meth:`utilization`).
    """

    __slots__ = (
        "_sim",
        "capacity",
        "name",
        "_in_use",
        "_waiters",
        "_granted",
        "total_acquisitions",
        "_busy_since",
        "busy_time",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1, got %d" % capacity)
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: processes parked until a slot frees, in arrival order
        self._waiters = WaitQueue()
        #: what an acquire that finds a free slot returns: a fired
        #: completion, so the yield resumes in place with this resource
        self._granted = Completion()
        self._granted.fire(self)
        # statistics
        self.total_acquisitions = 0
        self._busy_since: Optional[int] = None
        self.busy_time = 0

    # --- core protocol ----------------------------------------------

    def acquire(self) -> Union[Completion, WaitQueue]:
        """Request a slot; yield the result at once to wait for it.

        A free slot is granted now and the yield resumes in place; a
        full resource returns its wait queue, where the yielding process
        parks until a :meth:`release` hands it the slot.  Either way the
        yield's value is this resource.  The caller *must* later call
        :meth:`release` exactly once per granted acquire.
        """
        if self.try_acquire():
            return self._granted
        return self._waiters

    def try_acquire(self) -> bool:
        """Uncontended fast path: grant a free slot synchronously.

        Returns True (slot granted, :meth:`release` owed) without
        touching the event heap when a slot is free; False when the
        resource is at capacity, in which case the caller must fall
        back to :meth:`acquire` and wait.
        """
        if self._in_use < self.capacity:
            if self._in_use == 0 and self._busy_since is None:
                self._busy_since = self._sim.now
            self._in_use += 1
            self.total_acquisitions += 1
            return True
        return False

    def release(self) -> None:
        """Release a previously granted slot, waking the next waiter."""
        if self._in_use <= 0:
            raise SimulationError("release() of %r without matching acquire" % self.name)
        if self._waiters:
            # Hand the slot over: it stays in use, the waiter resumes.
            self.total_acquisitions += 1
            self._waiters.wake_first(self)
            return
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self._sim.now - self._busy_since
            self._busy_since = None

    # --- introspection ----------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes still waiting for a slot."""
        return len(self._waiters)

    def utilization(self) -> float:
        """Fraction of simulated time the resource has been non-idle."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self._sim.now - self._busy_since
        if self._sim.now == 0:
            return 0.0
        return busy / self._sim.now

    def use(self, service_time: int):
        """Generator helper: acquire, hold for ``service_time``, release.

        Use with ``yield from``::

            yield from link.use(packet_time)
        """
        if not self.try_acquire():
            yield self._waiters
        yield service_time
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Resource %s %d/%d queue=%d>" % (
            self.name,
            self._in_use,
            self.capacity,
            len(self._waiters),
        )
