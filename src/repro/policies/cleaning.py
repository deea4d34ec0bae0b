"""Flash cleaning policies: when dirty flash blocks flush to the filer.

The paper cleans the flash tier with the writeback policy's periodic
syncer (``p<seconds>``) — every dirty block, every period.  Open-CAS
ships two alternatives that trade filer traffic against dirty-backlog
exposure, modeled here:

* :class:`PeriodicClean` — the paper default.  The host stack keeps its
  existing syncer loop (driven by ``SimConfig.flash_policy``); like
  :class:`~repro.policies.admission.AlwaysAdmit` this compiles to no
  new code at all, preserving bit-identical paper-default replays.
* :class:`AgedClean` — ALRU-style: a periodic pass flushes only dirty
  blocks that have been *idle* (not re-written) for at least
  ``idle_ns``.  Hot blocks keep absorbing overwrites in flash instead
  of being flushed mid-burst.
* :class:`AggressiveClean` — ACP-style: event-driven draining.  When
  the dirty backlog crosses ``high_fraction`` of the flash capacity,
  the oldest dirty blocks are drained (in parallel, like a syncer
  batch) until the backlog falls to ``low_fraction``.  The invariant
  suite asserts the bound ``dirty - in_flight <= high`` at every check
  boundary.

Specs are immutable/hashable/picklable (they live in frozen
``SimConfig`` instances); per-host mutable state is the *controller*
built by :meth:`CleaningPolicy.controller`, which the layered host
stacks drive through two hooks: ``note_dirtied(block, now)`` after any
flash ``mark_dirty``, and ``periodic_tasks()`` in place of the flash
syncer.

A non-default cleaning policy replaces the flash tier's *background*
syncer only; the write-path behavior of the flash writeback policy
(sync/async/delayed propagation) is unchanged.  On the lookaside
architecture the flash never holds dirty data, so cleaning is a
documented no-op there.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro._units import SECOND
from repro.engine.periodic import PeriodicTask
from repro.errors import ConfigError


class CleaningPolicy:
    """Spec base class for flash cleaning policies (see module docs)."""

    __slots__ = ()
    name = "cleaning"
    _fields: tuple = ()

    @property
    def is_periodic(self) -> bool:
        """True for the paper-default syncer-driven cleaning (which the
        host stacks compile to a no-op)."""
        return False

    @property
    def label(self) -> str:
        params = tuple(getattr(self, f) for f in self._fields)
        if not params:
            return self.name
        return "%s:%s" % (self.name, ":".join("%g" % p for p in params))

    def controller(self, stack) -> Optional["CleaningController"]:
        """Fresh per-host controller bound to one layered host stack
        (None for the periodic default)."""
        raise NotImplementedError

    def scaled(self, scale: int) -> "CleaningPolicy":
        """Spec adjusted for geometry divided by ``scale`` — time-based
        thresholds shrink with the trace's simulated duration, exactly
        like :func:`repro.experiments.common.scaled_policy`."""
        return self

    def _key(self):
        return (type(self).__name__,) + tuple(
            getattr(self, f) for f in self._fields
        )

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        params = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__name__, params)

    def __getstate__(self):
        return {f: getattr(self, f) for f in self._fields}

    def __setstate__(self, state) -> None:
        for f, value in state.items():
            object.__setattr__(self, f, value)


class PeriodicClean(CleaningPolicy):
    """The paper default: the flash writeback policy's own syncer."""

    __slots__ = ()
    name = "periodic"

    @property
    def is_periodic(self) -> bool:
        return True

    def controller(self, stack) -> None:
        return None


class AgedClean(CleaningPolicy):
    """ALRU-style aged cleaning: flush dirty blocks idle >= ``idle_ns``."""

    __slots__ = ("idle_ns", "period_ns")
    name = "alru"
    _fields = ("idle_ns", "period_ns")

    def __init__(
        self, *, idle_ns: int = 30 * SECOND, period_ns: Optional[int] = None
    ) -> None:
        if idle_ns < 0:
            raise ConfigError("aged cleaning needs idle_ns >= 0")
        if period_ns is None:
            period_ns = min(SECOND, max(1_000, idle_ns))
        if period_ns < 1:
            raise ConfigError("aged cleaning needs period_ns >= 1")
        object.__setattr__(self, "idle_ns", int(idle_ns))
        object.__setattr__(self, "period_ns", int(period_ns))

    def __setattr__(self, key, value):
        raise AttributeError("CleaningPolicy specs are immutable")

    @property
    def label(self) -> str:
        return "alru:%gs" % (self.idle_ns / SECOND)

    def scaled(self, scale: int) -> "AgedClean":
        if scale <= 1:
            return self
        return AgedClean(
            idle_ns=max(1_000, self.idle_ns // scale),
            period_ns=max(1_000, self.period_ns // scale),
        )

    def controller(self, stack) -> "AgedCleanController":
        return AgedCleanController(self, stack)


class AggressiveClean(CleaningPolicy):
    """ACP-style watermark draining of the dirty backlog."""

    __slots__ = ("high_fraction", "low_fraction")
    name = "acp"
    _fields = ("high_fraction", "low_fraction")

    def __init__(
        self, *, high_fraction: float = 0.5, low_fraction: Optional[float] = None
    ) -> None:
        if not 0.0 < high_fraction <= 1.0:
            raise ConfigError("ACP high watermark must be in (0, 1]")
        if low_fraction is None:
            low_fraction = high_fraction / 2.0
        if not 0.0 <= low_fraction < high_fraction:
            raise ConfigError("ACP low watermark must be in [0, high)")
        object.__setattr__(self, "high_fraction", float(high_fraction))
        object.__setattr__(self, "low_fraction", float(low_fraction))

    def __setattr__(self, key, value):
        raise AttributeError("CleaningPolicy specs are immutable")

    def controller(self, stack) -> "AggressiveCleanController":
        return AggressiveCleanController(self, stack)


class CleaningController:
    """Per-host cleaning state driven by the layered host stack."""

    __slots__ = ("spec", "stack", "store", "flushes")

    def __init__(self, spec: CleaningPolicy, stack) -> None:
        self.spec = spec
        self.stack = stack
        self.store = stack.flash
        #: cleaning flushes initiated (monotone; reporting only)
        self.flushes = 0

    def periodic_tasks(self) -> List[PeriodicTask]:
        """``(period_ns, work, tick)`` rounds run in place of the flash
        syncer (see :func:`repro.engine.spawn_periodic`)."""
        return []

    def note_dirtied(self, block: int, now: int) -> None:
        """A flash block just went (or stayed) dirty at ``now``."""

    def counters(self) -> Dict[str, int]:
        return {"flushes": self.flushes}


class AgedCleanController(CleaningController):
    __slots__ = ("_dirtied_at", "_flush_name")

    def __init__(self, spec: AgedClean, stack) -> None:
        super().__init__(spec, stack)
        self._flush_name = "aged-flush.h%d" % stack.host_id
        # block -> last-dirtied timestamp, insertion-ordered oldest
        # first; entries of since-cleaned blocks are pruned lazily.
        self._dirtied_at: Dict[int, int] = {}

    def note_dirtied(self, block: int, now: int) -> None:
        dirtied = self._dirtied_at
        if block in dirtied:
            del dirtied[block]
        dirtied[block] = now

    def periodic_tasks(self) -> List[PeriodicTask]:
        return [(self.spec.period_ns, self.store._dirty, self._tick)]

    def _tick(self) -> None:
        # Runs only while the flash has dirty blocks.
        stack = self.stack
        dirty_set = self.store._dirty
        now = stack.sim.now
        idle_ns = self.spec.idle_ns
        flush_block = stack._flush_flash_block
        spawn = stack.sim.spawn
        name = self._flush_name
        dirtied = self._dirtied_at
        for block in dirty_set:
            # Unknown blocks (defensive) count as infinitely idle.
            if now - dirtied.get(block, 0) >= idle_ns:
                self.flushes += 1
                spawn(flush_block(block), name)
        # Bound the ledger: drop entries for blocks no longer dirty.
        if len(self._dirtied_at) > 2 * len(dirty_set) + 64:
            self._dirtied_at = {
                b: t for b, t in self._dirtied_at.items() if b in dirty_set
            }


class AggressiveCleanController(CleaningController):
    __slots__ = (
        "high_blocks", "low_blocks", "pending", "_order", "_draining", "_drain_name",
    )

    def __init__(self, spec: AggressiveClean, stack) -> None:
        super().__init__(spec, stack)
        self._drain_name = "acp-drain.h%d" % stack.host_id
        capacity = self.store.capacity_blocks
        self.high_blocks = max(1, int(capacity * spec.high_fraction))
        self.low_blocks = min(int(capacity * spec.low_fraction), self.high_blocks - 1)
        #: drains spawned but not yet finished (1:1 with ``_draining``)
        self.pending = 0
        # dirty blocks in first-dirtied order (re-dirty moves to back);
        # an OrderedDict, so each drain scan starts at the front in O(1)
        self._order: Dict[int, None] = OrderedDict()
        self._draining: set = set()

    def note_dirtied(self, block: int, now: int) -> None:
        order = self._order
        order[block] = None
        order.move_to_end(block)
        self._recheck()

    def _recheck(self) -> None:
        store = self.store
        backlog = store.dirty_count - self.pending
        if backlog <= self.high_blocks:
            return
        # Drain oldest dirty blocks until the backlog (net of drains
        # already in flight) reaches the low watermark.  Every dirty
        # block not already draining is a valid target, and there are
        # at least ``backlog`` of those, so the loop always reaches it.
        need = backlog - self.low_blocks
        order = self._order
        draining = self._draining
        dirty_set = store._dirty
        targets = []
        stale = []
        for candidate in order:
            if len(targets) >= need:
                break
            if candidate not in dirty_set:
                if candidate not in draining:
                    stale.append(candidate)
                continue
            if candidate in draining:
                continue
            targets.append(candidate)
        for block_ in stale:
            del order[block_]
        stack = self.stack
        for target in targets:
            draining.add(target)
            self.pending += 1
            self.flushes += 1
            stack.sim.spawn(self._drain(target), self._drain_name)

    def _drain(self, block: int) -> Iterator:
        try:
            yield from self.stack._flush_flash_block(block)
        finally:
            self.pending -= 1
            self._draining.discard(block)
        # A write that re-dirtied the block mid-flush leaves it dirty
        # with this drain no longer in flight — re-check the watermark
        # immediately so the backlog bound holds without waiting for
        # the next dirtying write.
        self._recheck()
