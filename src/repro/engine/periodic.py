"""Periodic background work: one kernel process per period.

Every host runs a syncer per tier with a periodic or trickle writeback
policy, and a layered host may run an aged flash cleaner; on a fleet,
hosts with the same configuration wake in lockstep.  Each such job is a
``(period_ns, work, tick)`` triple — ``work`` the container the job
drains (a store's dirty set), ``tick`` a plain callable that does one
round of work at the current simulated time (it may spawn processes but
never suspends, and does nothing at all while ``work`` is empty) — and
:func:`spawn_periodic` drives all of a run's triples with one process
per distinct period, so a tick costs a function call instead of a heap
round trip, and a round with nothing to do costs a truth test.

The schedule is exactly that of one process per job (DESIGN.md §11):
jobs of equal period spawned back to back always sit next to each
other in the event heap, so running their ticks in one step changes
nothing, while different periods keep separate processes whose wakeups
order by push time, as before.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Iterable, Iterator, List, Tuple

from repro.engine.simulation import Process, Simulator

#: One round of periodic work, run at the current simulated time.
Tick = Callable[[], None]

#: ``(period_ns, work, tick)``: ``tick`` runs every ``period_ns`` while
#: ``work`` is non-empty.
PeriodicTask = Tuple[int, Collection, Tick]


def spawn_periodic(
    sim: Simulator,
    tasks: Iterable[PeriodicTask],
    keep_running: Callable[[], bool],
) -> List[Process]:
    """Spawn one process per distinct period in ``tasks``.

    Periods are spawned in the order they first appear, and each
    process runs its period's ticks in task order, skipping a tick
    whose ``work`` is empty.  A process checks ``keep_running()``
    before every sleep and finishes once it is false, letting the
    event queue drain.
    """
    groups: Dict[int, List[Tuple[Collection, Tick]]] = {}
    for period_ns, work, tick in tasks:
        groups.setdefault(period_ns, []).append((work, tick))
    return [
        sim.spawn(_ticker(period_ns, ticks, keep_running), name="periodic.%dns" % period_ns)
        for period_ns, ticks in groups.items()
    ]


def _ticker(
    period_ns: int, ticks: List[Tuple[Collection, Tick]], keep_running: Callable[[], bool]
) -> Iterator:
    while keep_running():
        yield period_ns
        for work, tick in ticks:
            if work:
                tick()
