"""Eviction (replacement) policies for block stores.

The paper fixes LRU ("we use LRU") and explicitly leaves replacement
policy out of its design space; :class:`LRUPolicy` is therefore the
default everywhere.  FIFO, CLOCK and SLRU are provided for the ablation
benchmarks that quantify how much the paper's conclusions depend on
that choice.

A policy owns its tier's block index: one map from block key to value
(the store's :class:`~repro.cache.block.BlockEntry`, or ``None`` for a
policy used on its own).  :class:`~repro.cache.store.BlockStore` looks
blocks up in that same index, so no policy keeps a second per-entry
map where the index order can be the eviction order:

* LRU and FIFO keep the index, an ``OrderedDict``, in eviction order
  (front first).  An LRU touch is the index's ``move_to_end``; the
  victim is the first entry not pinned or skipped.
* CLOCK keeps its hand at the index front and its reference bits in a
  set beside the index; a second chance moves the front entry to the
  back.
* SLRU keeps its order in two ``OrderedDict`` segments beside a plain
  ``dict`` index; a demotion is ``popitem(last=False)``.

The store's eviction path asks each policy for two fused operations:
:meth:`~EvictionPolicy.add` inserts a key the caller has checked is
absent (LRU binds it to the index's own ``__setitem__``, so a fill
costs no policy frame at all), and
:meth:`~EvictionPolicy.pop_unpinned` removes and returns the first
entry in eviction order that is not pinned.  For LRU and FIFO that is
one scan of the index; CLOCK and SLRU share one fallback, their own
``victim`` pick and then ``remove``.  The store never asks which
policy it holds.

Insert, touch and remove are O(1).  A victim pick costs one step per
entry it passes over: the pinned or skipped ones in front of the
victim and, for CLOCK, each referenced one it gives a second chance.
An ``OrderedDict`` finds its front in O(1); a plain ``dict`` would walk
every slot that evictions from its front had deleted, so a victim pick
would grow with capacity (DESIGN.md §14 has the measurements, and
``benchmarks/eviction_scaling.py`` gates them).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Callable, Dict, Iterator, Optional

from repro.errors import CacheError


class EvictionPolicy:
    """Interface: an eviction order over the keys of a block index.

    ``index`` maps every tracked key to its value.  The base class
    keeps ``index`` in eviction order, front first, which is all LRU
    and FIFO need; CLOCK and SLRU override what they order otherwise.
    ``victim(skip)`` returns the best eviction candidate whose key does
    not satisfy ``skip`` (used to honor pinned entries); it returns
    ``None`` only when every tracked key is skipped.  It does not
    remove the victim; :meth:`pop_unpinned` does.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: Dict[int, object] = OrderedDict()

    def insert(self, key: int, value: object = None) -> None:
        if key in self.index:
            raise CacheError(
                "%s insert of already-present key %d" % (type(self).__name__, key)
            )
        self.add(key, value)

    def add(self, key: int, value: object = None) -> None:
        """:meth:`insert` without the duplicate check, for a caller that
        has made it (the store's ``put``)."""
        self.index[key] = value

    def touch(self, key: int) -> None:
        raise NotImplementedError

    def remove(self, key: int) -> object:
        """Stop tracking ``key``; returns its index value."""
        return self.index.pop(key)

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        if skip is None:
            return next(iter(self.index), None)
        for key in self.index:
            if not skip(key):
                return key
        return None

    def pop_unpinned(self) -> Optional[object]:
        """Remove and return the index value of ``victim`` skipping keys
        whose value is pinned, or ``None`` when every value is: the
        store's eviction path, where index values are block entries."""
        index = self.index
        for key, entry in index.items():
            if not entry.pinned:
                del index[key]
                return entry
        return None

    def _pop_victim_unpinned(self) -> Optional[object]:
        """:meth:`pop_unpinned` for a policy whose eviction order is not
        its index order: its own ``victim`` pick, then ``remove``."""
        index = self.index
        key = self.victim(lambda key: index[key].pinned)
        return None if key is None else self.remove(key)

    def desync(self) -> Optional[str]:
        """How the policy's own order disagrees with its index, or
        ``None``.  An index kept in eviction order cannot disagree."""
        return None

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[int]:
        """Iterate keys from eviction-candidate end to most-protected end."""
        return iter(self.index)


class LRUPolicy(EvictionPolicy):
    """Least-recently-used ordering — the paper's single LRU chain.

    The index front is the LRU end; a touch moves the key to the MRU
    end.  ``touch`` is the index's own ``move_to_end`` and ``add`` its
    ``__setitem__``, each bound once, so a hit or a fill costs one C
    call.
    """

    __slots__ = ("touch", "add")

    def __init__(self) -> None:
        super().__init__()
        self.touch = self.index.move_to_end
        self.add = self.index.__setitem__


class FIFOPolicy(EvictionPolicy):
    """First-in-first-out: insertion order, never reordered by touches."""

    __slots__ = ()

    def touch(self, key: int) -> None:
        # FIFO ignores reuse.
        if key not in self.index:
            raise CacheError("FIFO touch of absent key %d" % key)


class ClockPolicy(EvictionPolicy):
    """Second-chance (CLOCK) approximation of LRU.

    Entries carry a reference bit set on touch.  Victim selection sweeps
    a circular hand — the index front — moving each referenced entry to
    the back with its bit cleared until it finds an entry with the bit
    unset (and not skipped).  A skipped entry moves to the back with
    its bit kept.
    """

    __slots__ = ("_refs",)

    def __init__(self) -> None:
        super().__init__()
        #: keys whose reference bit is set
        self._refs = set()

    def touch(self, key: int) -> None:
        if key not in self.index:
            raise CacheError("CLOCK touch of absent key %d" % key)
        self._refs.add(key)

    def remove(self, key: int) -> object:
        self._refs.discard(key)
        return self.index.pop(key)

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        index = self.index
        refs = self._refs
        rotate = index.move_to_end
        # Two sweeps suffice: the first clears reference bits.
        for _ in range(2 * len(index)):
            key = next(iter(index))
            if skip is not None and skip(key):
                rotate(key)
            elif key in refs:
                refs.discard(key)
                rotate(key)
            else:
                return key
        # Everything was skipped.
        return None

    pop_unpinned = EvictionPolicy._pop_victim_unpinned

    def desync(self) -> Optional[str]:
        stray = self._refs.difference(self.index)
        if stray:
            return "CLOCK reference bits set for %d keys outside the index, e.g. %s" % (
                len(stray),
                sorted(stray)[:8],
            )
        return None


class SLRUPolicy(EvictionPolicy):
    """Segmented LRU: a probationary and a protected segment.

    New keys enter the probationary segment; a hit promotes a key to
    the protected segment (demoting the protected LRU back to the
    probationary MRU when the protected segment is full).  Victims come
    from the probationary LRU end first.  Scan-resistant: a one-pass
    sweep never displaces the protected set.

    ``protected_capacity`` bounds the protected segment; the store
    passes a fraction of its capacity via :func:`_make_policy`.  The
    segments hold the order, so the index is a plain ``dict``.
    """

    __slots__ = ("protected_capacity", "_probation", "_protected")

    def __init__(self, protected_capacity: int = 64) -> None:
        if protected_capacity < 1:
            raise CacheError("protected capacity must be >= 1")
        self.index = {}
        self.protected_capacity = protected_capacity
        self._probation: Dict[int, None] = OrderedDict()
        self._protected: Dict[int, None] = OrderedDict()

    def add(self, key: int, value: object = None) -> None:
        self.index[key] = value
        self._probation[key] = None

    def touch(self, key: int) -> None:
        protected = self._protected
        if key in protected:
            protected.move_to_end(key)
            return
        probation = self._probation
        if key not in probation:
            raise CacheError("SLRU touch of absent key %d" % key)
        del probation[key]
        protected[key] = None
        while len(protected) > self.protected_capacity:
            demoted, _ = protected.popitem(last=False)
            probation[demoted] = None  # back as probationary MRU

    def remove(self, key: int) -> object:
        value = self.index.pop(key)
        if key in self._probation:
            del self._probation[key]
        else:
            del self._protected[key]
        return value

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        for segment in (self._probation, self._protected):
            for key in segment:
                if skip is None or not skip(key):
                    return key
        return None

    pop_unpinned = EvictionPolicy._pop_victim_unpinned

    def desync(self) -> Optional[str]:
        index = self.index
        probation = self._probation
        protected = self._protected
        if (
            len(probation) + len(protected) == len(index)
            and probation.keys().isdisjoint(protected)
            and all(key in index for key in chain(probation, protected))
        ):
            return None
        return "SLRU segments hold %d + %d keys that do not partition the %d-key index" % (
            len(probation),
            len(protected),
            len(index),
        )

    def __iter__(self) -> Iterator[int]:
        return chain(self._probation, self._protected)


def _make_policy(name: str, capacity_blocks: int = 0) -> EvictionPolicy:
    """Construct an eviction policy from its name.

    Names: ``lru``, ``fifo``, ``clock``, ``slru`` (80 % protected), or
    ``slru:<fraction>`` with an explicit protected fraction.  The
    store's ``capacity_blocks`` sizes SLRU's protected segment.

    The public entry point is ``repro.policies.get("eviction", name)``;
    this private constructor is what the registry and
    :class:`~repro.cache.store.BlockStore` call.

    >>> type(_make_policy("lru")).__name__
    'LRUPolicy'
    """
    lowered = name.lower()
    if lowered.startswith("slru"):
        fraction = 0.8
        if ":" in lowered:
            try:
                fraction = float(lowered.split(":", 1)[1])
            except ValueError:
                raise CacheError("bad SLRU fraction in %r" % name) from None
        if not 0.0 < fraction < 1.0:
            raise CacheError("SLRU protected fraction must be in (0, 1)")
        protected = max(1, int(capacity_blocks * fraction)) if capacity_blocks else 64
        return SLRUPolicy(protected_capacity=protected)
    factories: Dict[str, Callable[[], EvictionPolicy]] = {
        "lru": LRUPolicy,
        "fifo": FIFOPolicy,
        "clock": ClockPolicy,
    }
    try:
        factory = factories[lowered]
    except KeyError:
        raise CacheError(
            "unknown eviction policy %r (choose from %s, slru[:fraction])"
            % (name, ", ".join(sorted(factories)))
        ) from None
    return factory()
