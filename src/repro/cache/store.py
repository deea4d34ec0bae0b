"""The block store: a fixed-capacity cache of 4 KB blocks.

One :class:`BlockStore` models one cache tier ("a single LRU chain of
blocks").  It is a pure data structure — every operation is immediate;
the host stack charges device latencies around calls to it.

Key design points:

* **One index in eviction order.**  The store's block map is its
  eviction policy's index (see :mod:`repro.cache.policy`): for LRU an
  ``OrderedDict`` whose front is the LRU end, so a lookup, a touch
  (``move_to_end``) and a victim pick each use that one structure, and
  none of them grows with capacity.

* **Eviction is two-phase.**  ``pop_victim`` removes and returns the
  victim entry; if it is dirty the *caller* performs the (simulated-
  time) writeback before filling the freed buffer.  The victim leaves
  the index immediately, so concurrent simulation threads never race on
  a half-evicted block — a re-reference simply misses and refetches,
  which is what a real cache with a locked-for-eviction buffer does.
* **Pinning** lets the naive/lookaside host stacks keep the flash cache
  a superset of the RAM cache: flash entries for RAM-resident blocks
  are pinned and skipped during victim selection.
* **Dirty tracking** maintains an explicit dirty set so the periodic
  syncer can snapshot dirty blocks in O(dirty).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Union

from repro.cache.block import BlockEntry, Medium
from repro.cache.policy import EvictionPolicy, _make_policy
from repro.cache.stats import CacheStats
from repro.errors import CacheError


class BlockStore:
    """A fixed-capacity block cache with pluggable eviction policy."""

    __slots__ = (
        "capacity_blocks",
        "name",
        "_entries",
        "_get",
        "_dirty",
        "lifetime_insertions",
        "lifetime_departures",
        "_policy",
        "stats",
        "_touch",
        "_refs",
        "obs_hook",
    )

    def __init__(
        self,
        capacity_blocks: int,
        policy: Union[str, EvictionPolicy] = "lru",
        name: str = "",
    ) -> None:
        if capacity_blocks < 0:
            raise CacheError("capacity must be >= 0, got %d" % capacity_blocks)
        self.capacity_blocks = capacity_blocks
        self.name = name
        if isinstance(policy, str):
            policy = _make_policy(policy, capacity_blocks)
        elif len(policy):
            raise CacheError("%s: the eviction policy must start empty" % name)
        self._policy = policy
        #: block -> BlockEntry: the policy's index, in its eviction order
        self._entries: Dict[int, BlockEntry] = policy.index
        # Bound once: an OrderedDict instance has a __dict__, so each
        # ``_entries.get`` attribute lookup would search it first.
        self._get = policy.index.get
        self._dirty: Set[int] = set()
        # Lifetime occupancy accounting, never reset at the warmup
        # boundary (unlike ``stats``): the invariant checkers verify
        # insertions - departures == occupancy over the store's life.
        self.lifetime_insertions = 0
        self.lifetime_departures = 0
        self.stats = CacheStats()
        # Bound-method shortcut for the per-lookup promote (the policy
        # never changes after construction).
        self._touch = policy.touch
        #: per-block reference ledger for probationary flash admission;
        #: None (and zero-cost) unless :meth:`enable_ref_ledger` ran.
        self._refs: Optional[Dict[int, int]] = None
        #: observability sink (a repro.obs StoreObserver); None when
        #: tracing is off, so the eviction/invalidation/writeback paths
        #: pay one branch each.
        self.obs_hook = None

    # --- lookup ------------------------------------------------------

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, block: int, touch: bool = True) -> Optional[BlockEntry]:
        """Look up a block, recording a hit or miss.

        ``touch=True`` (the default) promotes the entry in the eviction
        order, modeling a reference.
        """
        stats = self.stats
        stats.lookups += 1
        entry = self._get(block)
        if entry is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if touch:
            self._touch(block)
        return entry

    def peek(self, block: int) -> Optional[BlockEntry]:
        """Look up without touching the eviction order or the statistics."""
        return self._get(block)

    # --- insertion and eviction ---------------------------------------

    def is_full(self) -> bool:
        """True when the next insert needs an eviction first."""
        return len(self._entries) >= self.capacity_blocks

    @property
    def free_blocks(self) -> int:
        return self.capacity_blocks - len(self._entries)

    def put(
        self,
        block: int,
        medium: Medium = Medium.RAM,
        dirty: bool = False,
        pinned: bool = False,
    ) -> BlockEntry:
        """Insert a new entry; there must be space and no duplicate.

        Callers evict first (``pop_victim``) when :meth:`is_full`.
        """
        if block in self._entries:
            raise CacheError("%s: duplicate insert of block %d" % (self.name, block))
        if len(self._entries) >= self.capacity_blocks:
            raise CacheError(
                "%s: insert into full store (capacity %d); evict first"
                % (self.name, self.capacity_blocks)
            )
        entry = BlockEntry(block, medium=medium, dirty=dirty, pinned=pinned)
        self._policy.insert(block, entry)
        if dirty:
            self._dirty.add(block)
        self.stats.insertions += 1
        self.lifetime_insertions += 1
        return entry

    def pop_victim(
        self, skip: Optional[Callable[[int], bool]] = None
    ) -> Optional[BlockEntry]:
        """Remove and return the eviction victim.

        Pinned entries are always skipped; ``skip`` adds further
        exclusions.  When every entry is excluded the exclusions are
        relaxed in order of severity — ``skip`` first (it is advisory),
        pinning only after *all* unpinned entries are exhausted
        (evicting a pinned entry beats deadlock, but it is strictly the
        last resort).  ``None`` is returned only for an empty store.
        """
        policy = self._policy
        if skip is None:
            victim = policy.victim_unpinned()
        else:
            entries = self._entries
            victim = policy.victim(
                lambda key: entries[key].pinned or skip(key)
            )
            if victim is None:
                # Every unpinned entry was skip-excluded: prefer
                # overriding the skip filter over evicting a pinned
                # entry.
                victim = policy.victim_unpinned()
        if victim is None:
            victim = policy.victim(skip)
            if victim is None:
                victim = policy.victim(None)
                if victim is None:
                    return None
        entry = self._remove_entry(victim)
        self.stats.evictions += 1
        if entry.dirty:
            self.stats.dirty_evictions += 1
        hook = self.obs_hook
        if hook is not None:
            hook.evicted(entry.block, entry.dirty)
        return entry

    def remove(self, block: int, invalidation: bool = False) -> Optional[BlockEntry]:
        """Drop a block (e.g. on cross-host invalidation); None if absent."""
        if block not in self._entries:
            return None
        entry = self._remove_entry(block)
        if invalidation:
            self.stats.invalidations += 1
            hook = self.obs_hook
            if hook is not None:
                hook.invalidated(block)
        return entry

    def _remove_entry(self, block: int) -> BlockEntry:
        entry = self._policy.remove(block)
        self._dirty.discard(block)
        if self._refs is not None:
            # Probation resets on departure: a block evicted from this
            # tier must re-earn its references after re-insertion.
            self._refs.pop(block, None)
        self.lifetime_departures += 1
        return entry

    def clear(self) -> None:
        """Empty the store (models a crash of a volatile cache)."""
        for block in list(self._entries):
            self._remove_entry(block)

    # --- dirty management ---------------------------------------------

    def mark_dirty(self, block: int) -> None:
        entry = self._entries[block]
        entry.dirty = True
        self._dirty.add(block)

    def mark_clean(self, block: int) -> None:
        """Mark a block clean, counting a writeback only on the
        dirty-to-clean transition (a redundant pass over an already
        clean block wrote nothing back)."""
        entry = self._get(block)
        if entry is None or not entry.dirty:
            return
        entry.dirty = False
        self._dirty.discard(block)
        self.stats.writebacks += 1
        hook = self.obs_hook
        if hook is not None:
            hook.wrote_back(block)

    def dirty_blocks(self) -> List[int]:
        """Snapshot of currently dirty block numbers (syncer input)."""
        return list(self._dirty)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    # --- reference ledger ----------------------------------------------

    def enable_ref_ledger(self) -> None:
        """Track per-block reference counts for probationary admission.

        Off (and zero-cost: ``_touch`` stays the raw policy method) by
        default.  When enabled, every touching :meth:`get` hit counts
        one reference; the count resets when the block leaves the store
        (see :meth:`_remove_entry`).  Idempotent.
        """
        if self._refs is not None:
            return
        refs: Dict[int, int] = {}
        self._refs = refs
        policy_touch = self._policy.touch

        def touch_and_count(block: int) -> None:
            refs[block] = refs.get(block, 0) + 1
            policy_touch(block)

        self._touch = touch_and_count

    def ref_count(self, block: int) -> int:
        """References since insertion (0 when absent or ledger off)."""
        refs = self._refs
        if refs is None:
            return 0
        return refs.get(block, 0)

    # --- pinning -------------------------------------------------------

    def pin(self, block: int) -> None:
        """Protect a block from eviction (no-op if absent)."""
        entry = self._get(block)
        if entry is not None:
            entry.pinned = True

    def unpin(self, block: int) -> None:
        entry = self._get(block)
        if entry is not None:
            entry.pinned = False

    # --- introspection --------------------------------------------------

    def blocks(self) -> Iterator[int]:
        """Iterate resident block numbers in eviction order (LRU first)."""
        return iter(self._policy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<BlockStore %s %d/%d dirty=%d>" % (
            self.name,
            len(self._entries),
            self.capacity_blocks,
            len(self._dirty),
        )
