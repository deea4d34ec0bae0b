"""Step-by-step oracle for the eviction policies (hypothesis).

The reference classes below are the dict-ordered policies the
``OrderedDict`` index replaced, copied unchanged apart from their
names, plus the store eviction logic they ran under.  Every policy is
driven through random sequences of insert, touch, remove, pin, unpin,
``pop_victim()`` and ``victim(skip)`` — standalone and inside a
:class:`~repro.cache.store.BlockStore` — and after every step must
pick the same victim, iterate in the same order and hold the same
number of keys as its reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import BlockEntry
from repro.cache.policy import _make_policy
from repro.cache.store import BlockStore
from repro.errors import CacheError

# --- reference policies --------------------------------------------------


class RefLRU:
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


class RefFIFO:
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


class RefClock:
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


class RefSLRU:
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


def reference_policy(name: str, capacity: int):
    """The reference for ``_make_policy(name, capacity)``."""
    if name.startswith("slru"):
        fraction = float(name.split(":", 1)[1]) if ":" in name else 0.8
        return RefSLRU(max(1, int(capacity * fraction)))
    return {"lru": RefLRU, "fifo": RefFIFO, "clock": RefClock}[name]()


class RefStore:
    """The store's eviction logic over a reference policy: membership,
    touches, pins and ``pop_victim``'s relaxation order."""

    def __init__(self, capacity: int, policy) -> None:
        self.capacity = capacity
        self.entries: Dict[int, BlockEntry] = {}
        self.policy = policy

    def pinned(self, key: int) -> bool:
        return self.entries[key].pinned

    def put(self, block: int) -> None:
        self.entries[block] = BlockEntry(block)
        self.policy.insert(block)

    def get(self, block: int) -> Optional[BlockEntry]:
        entry = self.entries.get(block)
        if entry is not None:
            self.policy.touch(block)
        return entry

    def remove(self, block: int) -> Optional[BlockEntry]:
        if block not in self.entries:
            return None
        self.policy.remove(block)
        return self.entries.pop(block)

    def pop_victim(self, skip=None) -> Optional[BlockEntry]:
        policy = self.policy
        pinned = self.pinned
        if skip is None:
            victim = policy.victim(pinned)
        else:
            entries = self.entries
            victim = policy.victim(lambda key: entries[key].pinned or skip(key))
            if victim is None:
                victim = policy.victim(pinned)
        if victim is None:
            victim = policy.victim(skip)
            if victim is None:
                victim = policy.victim(None)
                if victim is None:
                    return None
        return self.remove(victim)


# --- the drives ----------------------------------------------------------

NAMES = st.sampled_from(["lru", "fifo", "clock", "slru", "slru:0.5", "slru:0.25"])
KEYS = 80
#: Inserts and touches are drawn most often, so stores fill and evict.
OP_NAMES = ("insert",) * 4 + ("touch",) * 3 + ("remove", "pin", "unpin", "pop_victim", "victim")
#: (operation, key, mask): ``victim`` skips the keys whose mask bit is set.
OPS = st.lists(
    st.tuples(
        st.sampled_from(OP_NAMES),
        st.integers(min_value=0, max_value=KEYS - 1),
        st.integers(min_value=0, max_value=2**KEYS - 1),
    ),
    min_size=50,
    max_size=200,
)
CAPACITIES = st.integers(min_value=1, max_value=64)


@settings(max_examples=120, deadline=None)
@given(name=NAMES, capacity=CAPACITIES, ops=OPS)
def test_standalone_policy_matches_reference(name, capacity, ops):
    """Standalone, ``pin``/``unpin`` edit the key set that
    ``pop_victim`` skips, and ``insert`` evicts first when full."""
    policy = _make_policy(name, capacity)
    reference = reference_policy(name, capacity)
    pinned = set()

    def pop_victim():
        victim = policy.victim(pinned.__contains__)
        assert victim == reference.victim(pinned.__contains__)
        if victim is not None:
            policy.remove(victim)
            reference.remove(victim)
        return victim

    for op, key, mask in ops:
        if op == "insert":
            if key not in reference:
                if len(reference) >= capacity and pop_victim() is None:
                    continue  # every key is pinned
                policy.insert(key)
                reference.insert(key)
        elif op == "touch":
            if key in reference:
                policy.touch(key)
                reference.touch(key)
        elif op == "remove":
            if key in reference:
                policy.remove(key)
                reference.remove(key)
                pinned.discard(key)
        elif op == "pin":
            if key in reference:
                pinned.add(key)
        elif op == "unpin":
            pinned.discard(key)
        elif op == "pop_victim":
            pinned.discard(pop_victim())
        else:
            skip = lambda k: mask >> k & 1  # noqa: E731
            assert policy.victim(skip) == reference.victim(skip)
        assert list(policy) == list(reference)
        assert len(policy) == len(reference)


@settings(max_examples=120, deadline=None)
@given(name=NAMES, capacity=CAPACITIES, ops=OPS)
def test_policy_in_store_matches_reference(name, capacity, ops):
    """In a store, ``insert`` evicts first when full and ``victim``
    is ``pop_victim(skip)``."""
    store = BlockStore(capacity, name)
    reference = RefStore(capacity, reference_policy(name, capacity))

    def same_victim(found, expected):
        assert (found is None) == (expected is None)
        if found is not None:
            assert found.block == expected.block

    for op, key, mask in ops:
        if op == "insert":
            if key not in reference.entries:
                if len(reference.entries) >= capacity:
                    same_victim(store.pop_victim(), reference.pop_victim())
                store.put(key)
                reference.put(key)
        elif op == "touch":
            same_victim(store.get(key), reference.get(key))
        elif op == "remove":
            same_victim(store.remove(key), reference.remove(key))
        elif op == "pin":
            store.pin(key)
            if key in reference.entries:
                reference.entries[key].pinned = True
        elif op == "unpin":
            store.unpin(key)
            if key in reference.entries:
                reference.entries[key].pinned = False
        elif op == "pop_victim":
            same_victim(store.pop_victim(), reference.pop_victim())
        else:
            skip = lambda k: mask >> k & 1  # noqa: E731
            same_victim(store.pop_victim(skip), reference.pop_victim(skip))
        assert list(store.blocks()) == list(reference.policy)
        assert len(store) == len(reference.entries) == len(reference.policy)


def test_store_takes_only_an_empty_policy():
    # The policy's index becomes the store's block map.
    policy = _make_policy("lru")
    policy.insert(1)
    with pytest.raises(CacheError):
        BlockStore(4, policy)
