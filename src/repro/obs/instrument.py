"""Wire an :class:`~repro.obs.Observation` into a built System.

Span attribution needs no wiring: the host stacks' block paths
(:mod:`repro.core.host`, :mod:`repro.core.migration`) fill the span the
replay driver passes them when an Observation is attached.  What needs wiring is the event
stream — :func:`attach_observation` hands the Observation's recorder to
every layer that emits events (hosts, segments, flash devices, filer,
cache stores and the simulator's spawn hook).  :class:`StoreObserver`
gives a :class:`~repro.cache.store.BlockStore` the context its events
need (clock, host, tier name).
"""

from __future__ import annotations

from repro.obs.events import EventKind


class StoreObserver:
    """Adapter giving a :class:`~repro.cache.store.BlockStore` an event
    sink with the context it lacks (clock, host, tier name)."""

    __slots__ = ("_rec", "_sim", "_host", "_tier")

    def __init__(self, rec, sim, host_id: int, tier: str) -> None:
        self._rec = rec
        self._sim = sim
        self._host = host_id
        self._tier = tier

    def evicted(self, block: int, dirty: bool) -> None:
        self._rec.emit(
            self._sim.now,
            EventKind.EVICTION,
            self._host,
            block,
            tier=self._tier,
            info={"dirty": dirty},
        )

    def invalidated(self, block: int) -> None:
        self._rec.emit(
            self._sim.now, EventKind.INVALIDATION, self._host, block, tier=self._tier
        )

    def wrote_back(self, block: int) -> None:
        self._rec.emit(
            self._sim.now, EventKind.WRITEBACK, self._host, block, tier=self._tier
        )


def attach_observation(system, obs) -> None:
    """Wire an Observation's recorder into every layer of a built System.

    A no-op when the observation is breakdown-only: span attribution
    needs no wiring (spans ride the block paths' arguments).
    """
    rec = obs.recorder
    if rec is None:
        return
    sim = system.sim
    system.filer.obs = rec

    def spawn_hook(name: str, _emit=rec.emit, _sim=sim) -> None:
        _emit(_sim.now, EventKind.PROCESS_SPAWN, info={"name": name})

    sim.trace_hook = spawn_hook
    from repro.core.machine import _stores_of

    for host_id, stack in enumerate(system.hosts):
        stack._obs_rec = rec
        system.segments[host_id].obs = rec
        device = system.flash_devices[host_id]
        if device is not None:
            device.obs = rec
        for tier_name, store in _stores_of(stack):
            store.obs_hook = StoreObserver(rec, sim, host_id, tier_name)


__all__ = ["StoreObserver", "attach_observation"]
