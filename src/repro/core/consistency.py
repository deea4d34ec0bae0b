"""Global cache-consistency directory (§3.8, §7.9) — fleet-scale form.

"The simulator invalidates stale copies of blocks instantly (using
global knowledge) when a new version is first written into a cache.
This exposes the overhead caused when these blocks must be fetched
again later.  However, we only count invalidations; we do not model the
overhead of cache consistency traffic."

The directory tracks, per block, which hosts hold any copy.  When a
host writes a block, every *other* host's copies are dropped from all
of its tiers, and the write is counted as "requiring invalidation" if
any copy was dropped.  The headline metric is the fraction of
application-level block writes requiring invalidations (Figures 11
and 12).

Beyond the paper's two hosts this module scales to fleets of
thousands:

* **Bitmask holders.**  The per-block holder set is a plain ``int``
  bitmask (bit *i* set ⇔ host *i* holds a copy) instead of a
  ``set`` — one machine word for fleets up to word size, and still a
  single arbitrary-precision int beyond it.  One ``holders`` dict maps
  every tracked block to its mask; at 64 hosts a replay runs as fast on
  it as on a map split into 64 shards (DESIGN.md §10).
* **Flat registration.**  Dropper callbacks live in a list indexed by
  host id rather than a dict, so a 1 000-host registration is one
  array fill.

Hosts interact only through this directory, and only over blocks one
of them writes.  :mod:`repro.traces.partition` derives from that rule
which host groups a trace never couples, and a parallel replay
(:mod:`repro.engine.parallel`) gives each such group a directory of
its own; a trace whose hosts all couple replays serially.

With one host there is nothing to track: a write can only find its own
host's copy, so :meth:`ConsistencyDirectory.on_block_write` returns 0
whatever the holder map holds.  Such a directory reports
``tracks_copies = False`` and the host stacks then skip ``note_copy``
and ``note_drop`` on every install and eviction, leaving the holder
map empty; block writes are still counted.  The single-host figures (2–10 of the paper)
pay nothing for the two-host experiments' bookkeeping.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set


def _decode_mask(mask: int) -> Set[int]:
    """The set of host ids whose bits are set in ``mask``."""
    hosts: Set[int] = set()
    while mask:
        low = mask & -mask
        hosts.add(low.bit_length() - 1)
        mask ^= low
    return hosts


class ConsistencyDirectory:
    """Tracks block copies across hosts and performs invalidation."""

    __slots__ = ("n_hosts", "holders", "block_writes",
                 "writes_requiring_invalidation", "copies_invalidated",
                 "_droppers", "invalidation_latency_ns", "traffic_hook",
                 "tracks_copies")

    def __init__(self, n_hosts: int) -> None:
        self.n_hosts = n_hosts
        #: whether the host stacks report copies (``note_copy`` and
        #: ``note_drop``): only with two or more hosts can a write find
        #: another host's copy to invalidate.
        self.tracks_copies = n_hosts >= 2
        #: block -> bitmask of the host ids holding a copy in any tier
        self.holders: Dict[int, int] = {}
        #: measured application block writes
        self.block_writes = 0
        self.writes_requiring_invalidation = 0
        self.copies_invalidated = 0
        # host id -> callback(block) dropping the block from that host's
        # caches; a flat slot array so fleet-size registration stays cheap.
        self._droppers: List[Optional[Callable[[int], None]]] = [None] * n_hosts
        #: simulated nanoseconds spent on measured directory lookups and
        #: invalidate messages (zero unless ``timing.directory`` is set;
        #: accumulated by the host stacks, which own the clock).
        self.invalidation_latency_ns = 0
        #: optional hook(writer_host, victim_host) fired per dropped
        #: remote copy; the System uses it to charge invalidation
        #: messages to the victim's network segment (the §3.8 protocol
        #: traffic the paper leaves unmodeled).
        self.traffic_hook: Optional[Callable[[int, int], None]] = None

    def register_host(self, host_id: int, dropper: Callable[[int], None]) -> None:
        """Register the callback that drops a block from a host's caches."""
        self._droppers[host_id] = dropper

    # --- copy tracking ---------------------------------------------------

    def note_copy(self, host_id: int, block: int) -> None:
        """A host now holds a copy of ``block`` (in any tier)."""
        holders = self.holders
        bit = 1 << host_id
        mask = holders.get(block)
        if mask is None:
            holders[block] = bit
        else:
            holders[block] = mask | bit

    def note_drop(self, host_id: int, block: int) -> None:
        """A host no longer holds any copy of ``block``.

        The host stack calls this only when the block has left *every*
        tier on that host.
        """
        holders = self.holders
        mask = holders.get(block)
        if mask is not None:
            mask &= ~(1 << host_id)
            if mask:
                holders[block] = mask
            else:
                del holders[block]

    def drop_host(self, host_id: int) -> None:
        """Forget every copy a host holds (crash/reboot state cleanup).

        Called from the restart path: a rebooted host's caches are
        empty, so any holder bits it still carries are stale and would
        inflate ``copies_invalidated`` on later writes.  This is state
        maintenance, not an invalidation — no droppers, hooks, or
        counters fire.
        """
        keep = ~(1 << host_id)
        holders = self.holders
        dead = []
        for block, mask in holders.items():
            stripped = mask & keep
            if stripped != mask:
                if stripped:
                    holders[block] = stripped
                else:
                    dead.append(block)
        for block in dead:
            del holders[block]

    def holders_of(self, block: int) -> Set[int]:
        """The hosts currently holding a copy (a snapshot)."""
        return _decode_mask(self.holders.get(block, 0))

    # --- invalidation -----------------------------------------------------

    def on_block_write(self, writer_host: int, block: int, measured: bool = True) -> int:
        """A host wrote a new version of ``block``: invalidate other copies.

        Returns the number of remote copies invalidated.  ``measured``
        says whether this write belongs to the measurement phase of the
        trace (warmup writes still *invalidate* — the cache contents
        must be correct — but are not counted, matching how the paper
        reports invalidations as a percentage of measured writes).
        Threads interleave freely, so the phase is a per-record
        property, not a global clock.
        """
        if measured:
            self.block_writes += 1
        holders = self.holders
        mask = holders.get(block)
        writer_bit = 1 << writer_host
        if not mask or mask == writer_bit:
            # Nobody, or only the writer, holds a copy — nothing to
            # invalidate.  (The common case for single-host runs and
            # private blocks.)
            return 0
        others = mask & ~writer_bit
        kept = mask & writer_bit
        if kept:
            holders[block] = kept
        else:
            del holders[block]
        droppers = self._droppers
        hook = self.traffic_hook
        count = 0
        remaining = others
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            host = low.bit_length() - 1
            count += 1
            dropper = droppers[host]
            if dropper is not None:
                dropper(block)
                if hook is not None:
                    # Only a host that actually dropped something owes
                    # an invalidation message; an unregistered holder
                    # has no caches to invalidate over the wire.
                    hook(writer_host, host)
        if measured:
            self.writes_requiring_invalidation += 1
            self.copies_invalidated += count
        return count

    # --- reporting -----------------------------------------------------------

    @property
    def invalidation_fraction(self) -> float:
        """Fraction of measured block writes that required invalidation
        (the y-axis of Figures 11 and 12)."""
        writes = self.block_writes
        if writes == 0:
            return 0.0
        return self.writes_requiring_invalidation / writes

    def reset_counters(self) -> None:
        """Zero the measured counters (used by tests and restarts)."""
        self.block_writes = 0
        self.writes_requiring_invalidation = 0
        self.copies_invalidated = 0
        self.invalidation_latency_ns = 0
