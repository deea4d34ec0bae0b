"""The exclusive (migration) architecture — §3.2's unevaluated sketch.

"Alternatively, one could use two separate layers of cache, but choose
some more elaborate policy; for example, one might place blocks
initially into RAM and then migrate less recently (or less frequently)
used blocks down to flash."  The paper asks "how much better (if at
all) an alternate placement scheme performs" but evaluates only the
three simple architectures; this stack answers the question.

Semantics:

* every cached block lives in **exactly one** tier (exclusive caching),
  so the effective capacity is RAM + flash — like unified — but the
  *hot* fraction sits in RAM rather than being placed randomly;
* fills from the filer land in RAM;
* a RAM eviction **demotes** the victim to flash (one flash write;
  dirty state travels with it);
* a flash hit **promotes** the block back to RAM (flash read + removal
  from flash), demoting RAM's victim in exchange;
* policy-driven writebacks go straight to the filer from either tier
  (writing dirty data into the other tier would duplicate it);
* a dirty flash eviction writes back to the filer synchronously,
  exactly like the other architectures.

The cost of the better placement is migration traffic: every
demotion is a flash write and every promotion a flash read that the
naive architecture would not have issued.

Span attribution follows :mod:`repro.core.host`: background demotions
and spawned flushes run span-less, and a dirty flash victim evicted on
the caller's path is ``syncer_stall``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.cache.block import Medium
from repro.cache.store import BlockStore
from repro.core.host import HostStack, _after
from repro.core.policies import PolicyKind
from repro.engine.periodic import PeriodicTask
from repro.errors import ConfigError
from repro.obs.breakdown import Span


class MigrationStack(HostStack):
    """Exclusive two-tier cache with demotion/promotion migration."""

    __slots__ = ("ram", "flash", "_ram_flush_name", "_demote_name")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        self._ram_flush_name = self._flush_name(config.ram_policy, "migr")
        self._demote_name = "migr-demote.h%d" % self.host_id
        self.ram = BlockStore(config.ram_blocks, config.eviction_policy, name="ram")
        self.flash = None
        if config.has_flash:
            if self.flash_device is None:
                raise ConfigError("flash configured but no flash device supplied")
            self.flash = BlockStore(
                config.flash_blocks, config.eviction_policy, name="flash"
            )

    # --- presence bookkeeping -----------------------------------------

    def _note_maybe_gone(self, block: int) -> None:
        if block in self.ram._entries:
            return
        flash = self.flash
        if flash is not None and block in flash._entries:
            return
        self.directory.note_drop(self.host_id, block)

    def drop_block(self, block: int) -> None:
        self.ram.remove(block, invalidation=True)
        if self.flash is not None:
            removed = self.flash.remove(block, invalidation=True)
            if removed is not None:
                self.flash_device.trim_block(block)

    def reset_measurement_stats(self) -> None:
        self.ram.stats.reset_for_measurement()
        if self.flash is not None:
            self.flash.stats.reset_for_measurement()

    def apply_restart(self, volatile_flash: bool, scan_ns_per_block: int) -> None:
        for block in list(self.ram.blocks()):
            self.ram.remove(block)
            self._note_maybe_gone(block)
        if self.flash is None:
            # Both tiers are now empty; bulk-clear any holder bits that
            # in-flight writebacks left behind.
            self.directory.drop_host(self.host_id)
            return
        if volatile_flash:
            for block in list(self.flash.blocks()):
                self.flash.remove(block)
                self.flash_device.trim_block(block)
                self._note_maybe_gone(block)
            self.directory.drop_host(self.host_id)
        else:
            self.flash_online_at = (
                self.sim.now + len(self.flash) * scan_ns_per_block
            )

    # --- read path ---------------------------------------------------------

    def read_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        if self.config.has_ram and self.ram.get(block) is not None:
            yield self.timing.ram_read_ns
            if span is not None:
                span.ram += self.timing.ram_read_ns
            return
        if self.flash is not None and self.sim.now >= self.flash_online_at:
            fentry = self.flash.get(block)
            if fentry is not None:
                # Promote: read from flash, move to RAM (exclusive).
                started = self.sim.now
                yield from self.flash_device.read_block(block)
                if span is not None:
                    span.flash_read += self.sim.now - started
                self.flash.remove(block)
                self.flash_device.trim_block(block)
                yield from self._install_ram(block, fentry.dirty, span)
                return
        yield from self._filer_read(block, span)
        yield from self._install_ram(block, False, span)

    # --- write path ------------------------------------------------------------

    def write_block(
        self, block: int, measured: bool = True, span: Optional[Span] = None
    ) -> Iterator:
        dropped = self.directory.on_block_write(self.host_id, block, measured)
        dir_stall = self._dir_stall
        if dir_stall is not None:
            cost = dir_stall[0] + dropped * dir_stall[1]
            if cost:
                if measured:
                    self.directory.invalidation_latency_ns += cost
                yield cost
                if span is not None:
                    span.invalidation += cost
        if not self.config.has_ram:
            yield from self._filer_write(block, span)
            return
        # Exclusivity: a write lands in RAM, superseding any flash copy.
        if self.flash is not None:
            stale = self.flash.remove(block)
            if stale is not None:
                self.flash_device.trim_block(block)
        yield from self._install_ram(block, True, span)
        policy = self.config.ram_policy
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_block(self.ram, block, span)
        elif policy.kind is PolicyKind.ASYNC:
            self.sim.spawn(self._flush_block(self.ram, block), self._ram_flush_name)
        elif policy.kind is PolicyKind.DELAYED:
            self.sim.spawn(
                _after(policy.flush_delay_ns, self._flush_block(self.ram, block)),
                self._ram_flush_name,
            )

    # --- tier internals -------------------------------------------------------

    def _install_ram(self, block: int, dirty: bool, span: Optional[Span] = None) -> Iterator:
        if not self.config.has_ram:
            # Degenerate: no RAM tier; keep the block in flash instead.
            if self.flash is not None and self.flash.peek(block) is None:
                yield from self._demote_install(block, dirty, span)
            return
        # Exclusivity under concurrency: while this install's fetch was
        # in flight, another thread may have demoted the same block to
        # flash.  Absorb that copy (keeping its dirtiness) so the block
        # never lives in both tiers.
        if self.flash is not None:
            stale = self.flash.remove(block)
            if stale is not None:
                self.flash_device.trim_block(block)
                dirty = dirty or stale.dirty
        ram = self.ram
        existing = ram.peek(block)
        if existing is not None:
            ram.get(block)
            if dirty:
                ram.mark_dirty(block)
            yield self.timing.ram_write_ns
            if span is not None:
                span.ram += self.timing.ram_write_ns
            return
        resident = ram._entries
        while len(resident) >= ram.capacity_blocks:
            victim = ram.pop_victim()
            if victim is None:
                break
            # Demotion happens off the critical path — a staging buffer
            # absorbs the evicted block while the flash write proceeds
            # in the background.  (Without this, every RAM fill would
            # pay a flash write, and the architecture would lose the
            # RAM-speed writes that §7.1 identifies as the layered
            # designs' advantage.)
            self.sim.spawn(
                self._demote(victim.block, victim.dirty), self._demote_name
            )
        ram.put(block, Medium.RAM, dirty=dirty)
        if self._track_copies:
            self.directory.note_copy(self.host_id, block)
        yield self.timing.ram_write_ns
        if span is not None:
            span.ram += self.timing.ram_write_ns

    def _demote(self, block: int, dirty: bool) -> Iterator:
        """Move an evicted RAM block down into the flash tier."""
        if self.flash is None or self.sim.now < self.flash_online_at:
            # No flash, or the flash is recovering: dirty data must
            # still reach the filer; clean data is simply dropped.
            if dirty:
                yield from self._filer_write(block)
            if self._track_copies:
                self._note_maybe_gone(block)
            return
        yield from self._demote_install(block, dirty)

    def _demote_install(self, block: int, dirty: bool, span: Optional[Span] = None) -> Iterator:
        ram_resident = self.ram._entries
        if block in ram_resident:
            # The block was re-referenced (and re-installed in RAM)
            # while this demotion waited; installing the stale copy in
            # flash would both duplicate it and resurrect old data.
            if dirty and not self.ram.peek(block).dirty:
                # Don't lose dirtiness the newer copy doesn't know about.
                self.ram.mark_dirty(block)
            return
        flash = self.flash
        resident = flash._entries
        while len(resident) >= flash.capacity_blocks and block not in resident:
            victim = flash.pop_victim()
            if victim is None:
                break
            self.flash_device.trim_block(victim.block)
            if victim.dirty:
                started = self.sim.now
                yield from self._filer_write(victim.block)
                if span is not None:
                    span.syncer_stall += self.sim.now - started
            if self._track_copies:
                self._note_maybe_gone(victim.block)
        if block in ram_resident:
            # Re-referenced while this demotion waited on the eviction
            # writeback above: the RAM copy wins (exclusivity).
            if dirty and not self.ram.peek(block).dirty:
                self.ram.mark_dirty(block)
            return
        if flash.peek(block) is None:
            flash.put(block, Medium.FLASH, dirty=dirty)
        elif dirty:
            flash.mark_dirty(block)
        started = self.sim.now
        yield from self.flash_device.write_block(block)
        if span is not None:
            span.flash_write += self.sim.now - started
        if flash.peek(block) is None:
            # Evicted (or wiped by a restart) while the device write was
            # in flight: the host holds nothing, so registering it as a
            # holder would leave a stale directory entry.
            self.flash_device.trim_block(block)
        elif self._track_copies:
            self.directory.note_copy(self.host_id, block)

    def _flush_block(
        self, store: BlockStore, block: int, span: Optional[Span] = None
    ) -> Iterator:
        """Write one dirty block back to the filer."""
        if store is self.flash and self.sim.now < self.flash_online_at:
            return  # cannot flush from a recovering flash (§3.8)
        entry = store.peek(block)
        if entry is None or not entry.dirty:
            return
        store.mark_clean(block)
        yield from self._filer_write(block, span)

    # --- syncers ----------------------------------------------------------------

    def periodic_tasks(self) -> List[PeriodicTask]:
        tasks = []
        if self.config.ram_policy.has_syncer and self.config.has_ram:
            tasks.append(self._syncer_task(self.config.ram_policy, self.ram))
        if self.config.flash_policy.has_syncer and self.flash is not None:
            tasks.append(self._syncer_task(self.config.flash_policy, self.flash))
        return tasks

    def _syncer_task(self, policy, store: BlockStore) -> PeriodicTask:
        # The tick runs only while the store has dirty blocks.
        trickle = policy.kind is PolicyKind.TRICKLE
        period_ns = policy.period_ns
        dirty_set = store._dirty
        spawn = self.sim.spawn
        name = "migr-syncer-flush.h%d" % self.host_id

        def tick() -> None:
            dirty = list(dirty_set)
            spacing = period_ns // len(dirty) if trickle else 0
            for index, block in enumerate(dirty):
                spawn(_after(index * spacing, self._flush_block(store, block)), name)

        return period_ns, dirty_set, tick
