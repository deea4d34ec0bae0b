"""Pausing the cyclic garbage collector around allocation-heavy loops.

Trace generation and replay allocate objects by the million: trace
records, generator frames, event-heap tuples.  None of them is part of
a reference cycle, so reference counting frees every one that dies,
but the cyclic collector still runs a collection every few hundred
allocations, and each full collection rescans every live tracked
object, the records already built included.  Pausing the collector
for such a loop removes those scans and changes no result; any cycle
made meanwhile is found by the first collection after the pause.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore it.

    ``gc.isenabled()`` reads after the block what it read before, also
    when the block raises: a collector that was already off stays off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
