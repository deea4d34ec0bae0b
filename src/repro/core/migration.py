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
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.cache.block import Medium
from repro.cache.store import BlockStore
from repro.core.host import HostStack, _after
from repro.core.policies import PolicyKind
from repro.engine.periodic import Tick
from repro.errors import ConfigError


class MigrationStack(HostStack):
    """Exclusive two-tier cache with demotion/promotion migration."""

    __slots__ = ("ram", "flash")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
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
        if block in self.ram:
            return
        if self.flash is not None and block in self.flash:
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

    def read_block(self, block: int) -> Iterator:
        if self.config.has_ram and self.ram.get(block) is not None:
            yield self.timing.ram_read_ns
            return
        if self.flash is not None and self._flash_online():
            fentry = self.flash.get(block)
            if fentry is not None:
                # Promote: read from flash, move to RAM (exclusive).
                yield from self.flash_device.read_block(block)
                self.flash.remove(block)
                self.flash_device.trim_block(block)
                yield from self._install_ram(block, dirty=fentry.dirty)
                return
        yield from self._filer_read()
        yield from self._install_ram(block, dirty=False)

    # --- write path ------------------------------------------------------------

    def write_block(self, block: int, measured: bool = True) -> Iterator:
        dropped = self.directory.on_block_write(self.host_id, block, measured)
        dir_stall = self._dir_stall
        if dir_stall is not None:
            cost = dir_stall[0] + dropped * dir_stall[1]
            if cost:
                if measured:
                    self.directory.invalidation_latency_ns += cost
                yield cost
        if not self.config.has_ram:
            yield from self._filer_write()
            return
        # Exclusivity: a write lands in RAM, superseding any flash copy.
        if self.flash is not None:
            stale = self.flash.remove(block)
            if stale is not None:
                self.flash_device.trim_block(block)
        yield from self._install_ram(block, dirty=True)
        policy = self.config.ram_policy
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_block(self.ram, block)
        elif policy.kind is PolicyKind.ASYNC:
            self._spawn(self._flush_block(self.ram, block), "migr-flush")
        elif policy.kind is PolicyKind.DELAYED:
            self._spawn(
                _after(policy.flush_delay_ns, self._flush_block(self.ram, block)),
                "migr-delayed-flush",
            )

    # --- tier internals -------------------------------------------------------

    def _install_ram(self, block: int, dirty: bool) -> Iterator:
        if not self.config.has_ram:
            # Degenerate: no RAM tier; keep the block in flash instead.
            if self.flash is not None and self.flash.peek(block) is None:
                yield from self._demote_install(block, dirty)
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
        existing = self.ram.peek(block)
        if existing is not None:
            self.ram.get(block)
            if dirty:
                self.ram.mark_dirty(block)
            yield self.timing.ram_write_ns
            return
        while self.ram.is_full():
            victim = self.ram.pop_victim()
            if victim is None:
                break
            # Demotion happens off the critical path — a staging buffer
            # absorbs the evicted block while the flash write proceeds
            # in the background.  (Without this, every RAM fill would
            # pay a flash write, and the architecture would lose the
            # RAM-speed writes that §7.1 identifies as the layered
            # designs' advantage.)
            self._spawn(self._demote(victim.block, victim.dirty), "migr-demote")
        self.ram.put(block, Medium.RAM, dirty=dirty)
        self.directory.note_copy(self.host_id, block)
        yield self.timing.ram_write_ns

    def _demote(self, block: int, dirty: bool) -> Iterator:
        """Move an evicted RAM block down into the flash tier."""
        if self.flash is None or not self._flash_online():
            # No flash, or the flash is recovering: dirty data must
            # still reach the filer; clean data is simply dropped.
            if dirty:
                yield from self._filer_write()
            self._note_maybe_gone(block)
            return
        yield from self._demote_install(block, dirty)

    def _demote_install(self, block: int, dirty: bool) -> Iterator:
        assert self.flash is not None
        if block in self.ram:
            # The block was re-referenced (and re-installed in RAM)
            # while this demotion waited; installing the stale copy in
            # flash would both duplicate it and resurrect old data.
            if dirty and not self.ram.peek(block).dirty:
                # Don't lose dirtiness the newer copy doesn't know about.
                self.ram.mark_dirty(block)
            return
        while self.flash.is_full() and self.flash.peek(block) is None:
            victim = self.flash.pop_victim()
            if victim is None:
                break
            self.flash_device.trim_block(victim.block)
            if victim.dirty:
                yield from self._filer_write()
            self._note_maybe_gone(victim.block)
        if block in self.ram:
            # Re-referenced while this demotion waited on the eviction
            # writeback above: the RAM copy wins (exclusivity).
            if dirty and not self.ram.peek(block).dirty:
                self.ram.mark_dirty(block)
            return
        if self.flash.peek(block) is None:
            self.flash.put(block, Medium.FLASH, dirty=dirty)
        elif dirty:
            self.flash.mark_dirty(block)
        yield from self.flash_device.write_block(block)
        if self.flash.peek(block) is None:
            # Evicted (or wiped by a restart) while the device write was
            # in flight: the host holds nothing, so registering it as a
            # holder would leave a stale directory entry.
            self.flash_device.trim_block(block)
        else:
            self.directory.note_copy(self.host_id, block)

    def _flush_block(self, store: BlockStore, block: int) -> Iterator:
        """Write one dirty block back to the filer."""
        if store is self.flash and not self._flash_online():
            return  # cannot flush from a recovering flash (§3.8)
        entry = store.peek(block)
        if entry is None or not entry.dirty:
            return
        store.mark_clean(block)
        yield from self._filer_write()

    # --- syncers ----------------------------------------------------------------

    def periodic_tasks(self) -> List[Tuple[int, Tick]]:
        tasks = []
        if self.config.ram_policy.has_syncer and self.config.has_ram:
            tasks.append(self._syncer_task(self.config.ram_policy, self.ram))
        if self.config.flash_policy.has_syncer and self.flash is not None:
            tasks.append(self._syncer_task(self.config.flash_policy, self.flash))
        return tasks

    def _syncer_task(self, policy, store: BlockStore) -> Tuple[int, Tick]:
        trickle = policy.kind is PolicyKind.TRICKLE
        period_ns = policy.period_ns
        dirty_set = store._dirty

        def tick() -> None:
            if not dirty_set:
                return
            dirty = list(dirty_set)
            spacing = period_ns // len(dirty) if trickle else 0
            for index, block in enumerate(dirty):
                self._spawn(
                    _after(index * spacing, self._flush_block(store, block)),
                    "migr-syncer-flush",
                )

        return period_ns, tick
