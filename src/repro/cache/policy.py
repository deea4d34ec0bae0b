"""Eviction (replacement) policies for block stores.

The paper fixes LRU ("we use LRU") and explicitly leaves replacement
policy out of its design space; :class:`LRUPolicy` is therefore the
default everywhere.  FIFO and CLOCK are provided for the ablation
benchmarks that quantify how much the paper's conclusions depend on
that choice.

A policy tracks membership order only — the store owns the entries.

Ordering is kept in plain ``dict`` objects (insertion-ordered since
Python 3.7), at one compact dict slot per entry: a move-to-end is
``d[key] = d.pop(key)`` — this is the LRU chain the replay hot path
hits once per 4 KB block.  Insert, touch and remove are O(1)
amortized.  Taking the front key is not: ``next(iter(d))`` walks over
every deleted slot at the front of the dict's entry table, and evicting
from the front then inserting leaves those slots behind until the next
resize compacts the table, so LRU, FIFO, CLOCK and SLRU victim
selection costs time that grows with capacity.  On CPython 3.11.7 (a
2-vCPU VM, three runs) one evict-and-insert took 0.4–0.5, 2.7–4.8,
11–18 and 44–58 µs at 512, 4,096, 16,384 and 65,536 entries, against
0.2–0.5 µs for an ``OrderedDict``; a touch took 88–531 ns as
pop-and-set against 42–263 ns for ``OrderedDict.move_to_end``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from repro.errors import CacheError


class EvictionPolicy:
    """Interface: maintains an ordering over block keys.

    Subclasses implement the four mutation hooks plus victim selection.
    ``victim(skip)`` returns the best eviction candidate whose key does
    not satisfy ``skip`` (used to honor pinned entries); it returns
    ``None`` only when every tracked key is skipped.
    """

    __slots__ = ()

    def insert(self, key: int) -> None:
        raise NotImplementedError

    def touch(self, key: int) -> None:
        raise NotImplementedError

    def remove(self, key: int) -> None:
        raise NotImplementedError

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        """Iterate keys from eviction-candidate end to most-protected end."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least-recently-used ordering — the paper's single LRU chain.

    Built on an insertion-ordered ``dict``: the front is the LRU end,
    and a touch re-inserts the key at the MRU end.
    """

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: Dict[int, None] = {}

    def insert(self, key: int) -> None:
        if key in self._order:
            raise CacheError("LRU insert of already-present key %d" % key)
        self._order[key] = None

    def touch(self, key: int) -> None:
        order = self._order
        order[key] = order.pop(key)

    def remove(self, key: int) -> None:
        del self._order[key]

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        if skip is None:
            return next(iter(self._order), None)
        for key in self._order:
            if not skip(key):
                return key
        return None

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)


class FIFOPolicy(EvictionPolicy):
    """First-in-first-out: insertion order, never reordered by touches."""

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: Dict[int, None] = {}

    def insert(self, key: int) -> None:
        if key in self._order:
            raise CacheError("FIFO insert of already-present key %d" % key)
        self._order[key] = None

    def touch(self, key: int) -> None:
        # FIFO ignores reuse.
        if key not in self._order:
            raise CacheError("FIFO touch of absent key %d" % key)

    def remove(self, key: int) -> None:
        del self._order[key]

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        if skip is None:
            return next(iter(self._order), None)
        for key in self._order:
            if not skip(key):
                return key
        return None

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[int]:
        return iter(self._order)


class ClockPolicy(EvictionPolicy):
    """Second-chance (CLOCK) approximation of LRU.

    Entries carry a reference bit set on touch.  Victim selection sweeps
    a circular hand, clearing reference bits until it finds an entry
    with the bit unset (and not skipped).
    """

    __slots__ = ("_refbit",)

    def __init__(self) -> None:
        # Insertion-ordered dict as circular buffer: hand is the front.
        self._refbit: Dict[int, bool] = {}

    def insert(self, key: int) -> None:
        if key in self._refbit:
            raise CacheError("CLOCK insert of already-present key %d" % key)
        self._refbit[key] = False

    def touch(self, key: int) -> None:
        self._refbit[key] = True

    def remove(self, key: int) -> None:
        del self._refbit[key]

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        if not self._refbit:
            return None
        # Two sweeps suffice: the first clears reference bits.
        for _sweep in range(2):
            for _ in range(len(self._refbit)):
                key, referenced = next(iter(self._refbit.items()))
                if (skip is None or not skip(key)) and not referenced:
                    return key
                # Give a second chance (or skip a pinned entry) by
                # rotating it to the back with the bit cleared.
                del self._refbit[key]
                self._refbit[key] = False if not (skip and skip(key)) else referenced
        # Everything was skipped.
        return None

    def __len__(self) -> int:
        return len(self._refbit)

    def __iter__(self) -> Iterator[int]:
        return iter(self._refbit)


class SLRUPolicy(EvictionPolicy):
    """Segmented LRU: a probationary and a protected segment.

    New keys enter the probationary segment; a hit promotes a key to
    the protected segment (demoting the protected LRU back to the
    probationary MRU when the protected segment is full).  Victims come
    from the probationary LRU end first.  Scan-resistant: a one-pass
    sweep never displaces the protected set.

    ``protected_capacity`` bounds the protected segment; the store
    passes a fraction of its capacity via :func:`_make_policy`.
    """

    __slots__ = ("protected_capacity", "_probation", "_protected")

    def __init__(self, protected_capacity: int = 64) -> None:
        if protected_capacity < 1:
            raise CacheError("protected capacity must be >= 1")
        self.protected_capacity = protected_capacity
        self._probation: Dict[int, None] = {}
        self._protected: Dict[int, None] = {}

    def insert(self, key: int) -> None:
        if key in self._probation or key in self._protected:
            raise CacheError("SLRU insert of already-present key %d" % key)
        self._probation[key] = None

    def touch(self, key: int) -> None:
        protected = self._protected
        if key in protected:
            protected[key] = protected.pop(key)
            return
        if key not in self._probation:
            raise CacheError("SLRU touch of absent key %d" % key)
        del self._probation[key]
        protected[key] = None
        while len(protected) > self.protected_capacity:
            demoted = next(iter(protected))
            del protected[demoted]
            self._probation[demoted] = None  # back as probationary MRU

    def remove(self, key: int) -> None:
        if key in self._probation:
            del self._probation[key]
        else:
            del self._protected[key]

    def victim(self, skip: Optional[Callable[[int], bool]] = None) -> Optional[int]:
        for segment in (self._probation, self._protected):
            for key in segment:
                if skip is None or not skip(key):
                    return key
        return None

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def __iter__(self) -> Iterator[int]:
        yield from self._probation
        yield from self._protected


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
