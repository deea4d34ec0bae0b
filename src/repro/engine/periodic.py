"""Periodic background work: one kernel process per period.

Every host runs a syncer per tier with a periodic or trickle writeback
policy, and a layered host may run an aged flash cleaner; on a fleet,
hosts with the same configuration wake in lockstep.  Each such job is a
``(period_ns, tick)`` pair — ``tick`` a plain callable that does one
round of work at the current simulated time (it may spawn processes but
never suspends) — and :func:`spawn_periodic` drives all of a run's
pairs with one process per distinct period, so a tick costs a function
call instead of a heap round trip.

The schedule is exactly that of one process per pair (DESIGN.md §11):
pairs of equal period spawned back to back always sit next to each
other in the event heap, so running their ticks in one step changes
nothing, while different periods keep separate processes whose wakeups
order by push time, as before.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from repro.engine.simulation import Process, Simulator

#: One round of periodic work, run at the current simulated time.
Tick = Callable[[], None]


def spawn_periodic(
    sim: Simulator,
    tasks: Iterable[Tuple[int, Tick]],
    keep_running: Callable[[], bool],
) -> List[Process]:
    """Spawn one process per distinct period in ``tasks``.

    Periods are spawned in the order they first appear, and each
    process runs its period's ticks in task order.  A process checks
    ``keep_running()`` before every sleep and finishes once it is
    false, letting the event queue drain.
    """
    groups: Dict[int, List[Tick]] = {}
    for period_ns, tick in tasks:
        groups.setdefault(period_ns, []).append(tick)
    return [
        sim.spawn(_ticker(period_ns, ticks, keep_running), name="periodic.%dns" % period_ns)
        for period_ns, ticks in groups.items()
    ]


def _ticker(period_ns: int, ticks: List[Tick], keep_running: Callable[[], bool]) -> Iterator:
    while keep_running():
        yield period_ns
        for tick in ticks:
            tick()
