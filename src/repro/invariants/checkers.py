"""Pure invariant check functions over individual data structures.

These functions take a live object — a :class:`~repro.cache.store.BlockStore`,
a :class:`~repro.flash.ftl.PageMappedFTL`, or an
:class:`~repro.flash.ftl_device.FTLFlashDevice` — and raise
:class:`~repro.errors.InvariantViolation` if any structural invariant is
broken.  They have no dependency on the simulation kernel, so the
randomized micro-tests can call them after every single operation; the
system-level checkers in :mod:`repro.invariants.suite` call the same
functions at replay-time check boundaries.

Every invariant here must hold after *any* complete store/FTL operation
(there are no transient windows inside one call): the structures are
pure and mutate atomically with respect to the simulation's yields.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import InvariantViolation


def fail(checker: str, message: str, now: Optional[int] = None, **snapshot) -> None:
    """Raise a structured :class:`InvariantViolation`."""
    raise InvariantViolation(checker, now, message, snapshot)


# --- cache tier --------------------------------------------------------


def check_store(store, now: Optional[int] = None) -> None:
    """Structural invariants of one :class:`BlockStore`.

    * occupancy never exceeds capacity;
    * the explicit dirty set agrees with per-entry ``dirty`` flags;
    * the eviction policy's own order agrees with the block index (the
      store's entries are the policy's index, so LRU and FIFO agree by
      construction; SLRU's segments must partition the index and
      CLOCK's reference bits must lie inside it);
    * entries know their own block number;
    * lifetime ``insertions - departures == occupancy`` (the lifetime
      counters are never reset, unlike ``stats``);
    * statistics identities: ``hits + misses == lookups``,
      ``dirty_evictions <= evictions``, all counters non-negative.
    """
    name = "cache.%s" % (store.name or "store")
    occupancy = len(store._entries)
    if occupancy > store.capacity_blocks:
        fail(
            name,
            "occupancy %d exceeds capacity %d" % (occupancy, store.capacity_blocks),
            now,
            occupancy=occupancy,
            capacity=store.capacity_blocks,
        )
    dirty_flags = {b for b, e in store._entries.items() if e.dirty}
    if dirty_flags != store._dirty:
        fail(
            name,
            "dirty set disagrees with entry flags",
            now,
            only_in_set=sorted(store._dirty - dirty_flags)[:8],
            only_in_flags=sorted(dirty_flags - store._dirty)[:8],
        )
    desync = store._policy.desync()
    if desync is not None:
        fail(name, "eviction policy out of step with the index: %s" % desync, now)
    for block, entry in store._entries.items():
        if entry.block != block:
            fail(
                name,
                "entry under key %d claims block %d" % (block, entry.block),
                now,
                key=block,
                entry_block=entry.block,
            )
    net = store.lifetime_insertions - store.lifetime_departures
    if net != occupancy:
        fail(
            name,
            "lifetime insertions - departures = %d but occupancy is %d"
            % (net, occupancy),
            now,
            lifetime_insertions=store.lifetime_insertions,
            lifetime_departures=store.lifetime_departures,
            occupancy=occupancy,
        )
    stats = store.stats
    counters = stats.as_dict()
    counters.pop("hit_rate", None)
    for key, value in counters.items():
        if value < 0:
            fail(name, "negative statistic %s = %d" % (key, value), now, **counters)
    try:
        # The lookup identity lives with the stats object itself so
        # non-invariant callers (reports, tests) can assert it too.
        stats.check_consistent()
    except ValueError as exc:
        fail(
            name,
            str(exc),
            now,
            hits=stats.hits,
            misses=stats.misses,
            lookups=stats.lookups,
        )
    if stats.dirty_evictions > stats.evictions:
        fail(
            name,
            "dirty evictions (%d) exceed total evictions (%d)"
            % (stats.dirty_evictions, stats.evictions),
            now,
            dirty_evictions=stats.dirty_evictions,
            evictions=stats.evictions,
        )


# --- flash translation layer -------------------------------------------


def check_ftl(ftl, now: Optional[int] = None) -> None:
    """Accounting invariants of one :class:`PageMappedFTL`.

    * the free deque and its mirror set agree and hold no duplicates;
    * the free list is disjoint from the open block;
    * free blocks are fully erased (no valid pages, write pointer 0);
    * each erase block's ``valid`` counter matches its page array, and
      no page beyond the write pointer is programmed;
    * the mapping table and page arrays describe the same pages
      (``sum(valid) == len(map)`` and every map entry points at a page
      holding that logical page);
    * ``flash_writes >= host_writes`` (write amplification >= 1) and
      the map never exceeds the logical capacity.
    """
    name = "ftl"
    cfg = ftl.config
    if len(ftl._free) != len(ftl._free_set) or set(ftl._free) != ftl._free_set:
        fail(
            name,
            "free deque (%d entries) and free set (%d entries) disagree"
            % (len(ftl._free), len(ftl._free_set)),
            now,
            free=sorted(ftl._free)[:8],
            free_set=sorted(ftl._free_set)[:8],
        )
    if ftl._open.index in ftl._free_set:
        fail(
            name,
            "open block %d is on the free list" % ftl._open.index,
            now,
            open_block=ftl._open.index,
        )
    total_valid = 0
    for blk in ftl._blocks:
        programmed = sum(1 for page in blk.pages if page is not None)
        if programmed != blk.valid:
            fail(
                name,
                "block %d counts %d valid pages but holds %d"
                % (blk.index, blk.valid, programmed),
                now,
                block=blk.index,
                counted=blk.valid,
                held=programmed,
            )
        if not 0 <= blk.next_free <= cfg.pages_per_block:
            fail(
                name,
                "block %d write pointer %d out of range" % (blk.index, blk.next_free),
                now,
                block=blk.index,
                next_free=blk.next_free,
            )
        if any(page is not None for page in blk.pages[blk.next_free :]):
            fail(
                name,
                "block %d holds data beyond its write pointer %d"
                % (blk.index, blk.next_free),
                now,
                block=blk.index,
                next_free=blk.next_free,
            )
        if blk.index in ftl._free_set and (blk.valid or blk.next_free):
            fail(
                name,
                "free block %d is not erased (valid=%d next_free=%d)"
                % (blk.index, blk.valid, blk.next_free),
                now,
                block=blk.index,
                valid=blk.valid,
                next_free=blk.next_free,
            )
        total_valid += blk.valid
    if total_valid != len(ftl._map):
        fail(
            name,
            "blocks hold %d valid pages but the map has %d entries"
            % (total_valid, len(ftl._map)),
            now,
            valid_pages=total_valid,
            mapped=len(ftl._map),
        )
    for lpn, (block_index, page_index) in ftl._map.items():
        if ftl._blocks[block_index].pages[page_index] != lpn:
            fail(
                name,
                "map sends lpn %d to (%d, %d) which holds %r"
                % (lpn, block_index, page_index, ftl._blocks[block_index].pages[page_index]),
                now,
                lpn=lpn,
                location=(block_index, page_index),
            )
    if ftl.flash_writes < ftl.host_writes:
        fail(
            name,
            "flash writes (%d) below host writes (%d); amplification < 1"
            % (ftl.flash_writes, ftl.host_writes),
            now,
            flash_writes=ftl.flash_writes,
            host_writes=ftl.host_writes,
        )
    if len(ftl._map) > cfg.logical_pages:
        fail(
            name,
            "map holds %d entries but logical capacity is %d"
            % (len(ftl._map), cfg.logical_pages),
            now,
            mapped=len(ftl._map),
            logical_pages=cfg.logical_pages,
        )


def check_ftl_device(device, now: Optional[int] = None) -> None:
    """Invariants of an :class:`FTLFlashDevice` and its embedded FTL.

    The device's block→logical-page table must be injective, bounded by
    the cache capacity, disjoint from its free-page list, and every
    assigned page must be live in the FTL's mapping.
    """
    check_ftl(device.ftl, now)
    name = "ftl-device.%s" % device.name
    lpns = list(device._lpn_of.values())
    if len(set(lpns)) != len(lpns):
        fail(name, "two cache blocks share a logical page", now, lpns=sorted(lpns)[:8])
    if len(lpns) > device.capacity_blocks:
        fail(
            name,
            "%d resident blocks exceed capacity %d"
            % (len(lpns), device.capacity_blocks),
            now,
            resident=len(lpns),
            capacity=device.capacity_blocks,
        )
    overlap = set(device._free_lpns) & set(lpns)
    if overlap:
        fail(
            name,
            "logical pages both free and assigned",
            now,
            overlap=sorted(overlap)[:8],
        )
    for block, lpn in device._lpn_of.items():
        if device.ftl.read(lpn) is None:
            fail(
                name,
                "block %d holds logical page %d which the FTL never stored"
                % (block, lpn),
                now,
                block=block,
                lpn=lpn,
            )
