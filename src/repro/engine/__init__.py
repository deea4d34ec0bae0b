"""Discrete-event simulation kernel.

A deliberately small, fast kernel in the style of SimPy: simulation
*processes* are Python generators that ``yield`` an integer delay
(nanoseconds), a :class:`Completion` to wait on, or a
:class:`WaitQueue` to park in until a busy server releases them.

Shared contention points are FIFO servers whose busy callers park in a
:class:`WaitQueue`: the network segment's two capacity-1 wires run
that protocol inline (:class:`repro.net.link.NetworkSegment`, which
also owns the filer round trip), and a flash device with limited
internal parallelism queues on a :class:`Resource`.  Pure-latency
devices use plain timeouts.

Typical usage::

    sim = Simulator()
    link = Resource(sim, capacity=1)

    def sender():
        yield link.acquire()
        yield 8_200            # hold the link for 8.2 us
        link.release()

    sim.spawn(sender())
    sim.run()
"""

from repro.engine.events import Completion, WaitQueue
from repro.engine.simulation import Process, Simulator
from repro.engine.periodic import spawn_periodic
from repro.engine.resources import Resource
from repro.engine.rng import RngStreams

__all__ = [
    "Completion",
    "Process",
    "Simulator",
    "Resource",
    "RngStreams",
    "WaitQueue",
    "spawn_periodic",
]
