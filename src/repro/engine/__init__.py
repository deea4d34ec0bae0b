"""Discrete-event simulation kernel.

A deliberately small, fast kernel in the style of SimPy: simulation
*processes* are Python generators that ``yield`` either an integer delay
(nanoseconds) or a :class:`Completion` to wait on.  Shared contention
points (the network segment, optionally the flash device) are modeled
with :class:`Resource`; pure-latency devices use plain timeouts.

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

from repro.engine.events import Completion
from repro.engine.simulation import Process, Simulator
from repro.engine.periodic import spawn_periodic
from repro.engine.resources import Resource
from repro.engine.rng import RngStreams

__all__ = ["Completion", "Process", "Simulator", "Resource", "RngStreams", "spawn_periodic"]
