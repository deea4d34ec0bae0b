"""The per-host cache stack: naive, lookaside, and unified architectures.

This is the system under study.  Each host owns its cache tiers, its
flash device, and a private network segment to the shared filer.  The
public surface is two process generators — :meth:`HostStack.read_block`
and :meth:`HostStack.write_block` — whose simulated duration *is* the
application-observed latency, plus :meth:`HostStack.drop_block` used by
the consistency directory for instant invalidation.

Concurrency notes (threads interleave freely, as in the paper):

* Installs are idempotent — if another thread installed the block while
  this one was waiting on a device, the install becomes a touch.
* Eviction removes the victim from the index *before* its writeback, so
  a re-reference during the writeback simply misses (a real cache's
  locked-for-eviction buffer behaves the same way).
* In the naive/lookaside architectures, flash entries of RAM-resident
  blocks are pinned so victim selection preserves the paper's "RAM is
  always a subset of the flash cache" placement (write-allocated blocks
  join the flash on their first writeback).

Writeback semantics (§3.5/§3.6): writing *into* a tier follows that
tier's policy — ``s`` propagates to the next tier before the writer
continues, ``a`` spawns the propagation in the background, ``p``/``n``
leave the block dirty for the syncer or the eviction path.  Evicting a
dirty block always writes it back synchronously, charged to whichever
process needed the buffer; this is what makes the ``n`` policy degrade
once a cache fills ("multiple threads doing evictions contend for the
network, convoy, and slow down").
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.cache.block import Medium
from repro.cache.store import BlockStore
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.consistency import ConsistencyDirectory
from repro.core.policies import PolicyKind
from repro.engine.periodic import Tick
from repro.engine.simulation import Simulator
from repro.errors import ConfigError
from repro.filer.server import Filer
from repro.flash.device import FlashDevice
from repro.net.link import NetworkSegment
from repro.net.packet import Packet
from repro.obs.events import EventKind

_SYNCER_RUN = EventKind.SYNCER_RUN


def _after(delay_ns: int, gen: Iterator) -> Iterator:
    """Run a process generator after a delay (delayed-flush helper)."""
    yield delay_ns
    yield from gen


#: The three protocol packet shapes, hoisted so the per-block I/O paths
#: skip the classmethod + singleton-cache lookup.
_PKT_REQUEST = Packet.request()
_PKT_DATA = Packet.data_block()
_PKT_ACK = Packet.ack()


class HostStack:
    """Common machinery shared by the three architectures.

    Slotted: a fleet-scale ``System`` instantiates thousands of these,
    and the per-instance ``__dict__`` was the dominant construction
    cost.  (The obs twin subclasses declare no ``__slots__`` and get a
    dict back — they are rare and carry recorder state.)
    """

    __slots__ = (
        "sim",
        "host_id",
        "config",
        "flash_device",
        "segment",
        "filer",
        "directory",
        "rng",
        "timing",
        "_ram_read_ns",
        "_ram_write_ns",
        "_has_ram",
        "_dir_stall",
        "_obs_rec",
        "flash_online_at",
    )

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        config: SimConfig,
        flash_device: Optional[FlashDevice],
        segment: NetworkSegment,
        filer: Filer,
        directory: ConsistencyDirectory,
        rng: random.Random,
    ) -> None:
        self.sim = sim
        self.host_id = host_id
        self.config = config
        self.flash_device = flash_device
        self.segment = segment
        self.filer = filer
        self.directory = directory
        self.rng = rng
        self.timing = config.timing
        # Hot-path constants hoisted out of the per-block generators
        # (timing is a frozen dataclass; has_ram is fixed by the config).
        self._ram_read_ns = self.timing.ram_read_ns
        self._ram_write_ns = self.timing.ram_write_ns
        self._has_ram = config.has_ram
        # Directory latency model: None at the paper default (instant
        # invalidation — the write path pays zero extra yields and
        # replays bit-identically), else (lookup_ns, invalidate_ns).
        directory_timing = self.timing.directory
        self._dir_stall = (
            None
            if directory_timing.is_instant
            else (directory_timing.lookup_ns, directory_timing.invalidate_ns)
        )
        #: observability event sink (a repro.obs EventRecorder),
        #: attached by repro.obs.instrument.attach_observation;
        #: rare-event sites (syncer rounds) guard on it.
        self._obs_rec = None
        #: the flash tier is offline (recovering) before this time
        self.flash_online_at = 0
        directory.register_host(host_id, self.drop_block)

    def _flash_online(self) -> bool:
        """Whether the flash tier exists and has finished recovering."""
        return self.flash_device is not None and self.sim.now >= self.flash_online_at

    def apply_restart(self, volatile_flash: bool, scan_ns_per_block: int) -> None:
        """Crash/reboot the host's caches (see repro.core.restart)."""
        raise NotImplementedError(
            "restart modeling is not supported by the %s architecture"
            % self.config.architecture
        )

    # --- public interface (implemented by subclasses) -----------------

    def read_block(self, block: int) -> Iterator:
        """Process generator: application read of one block."""
        raise NotImplementedError

    def write_block(self, block: int, measured: bool = True) -> Iterator:
        """Process generator: application write of one block.

        ``measured`` marks whether this write belongs to the trace's
        measurement phase (it gates invalidation *counting* only; the
        invalidation itself always happens).
        """
        raise NotImplementedError

    def drop_block(self, block: int) -> None:
        """Instantly drop every copy of a block (consistency invalidation)."""
        raise NotImplementedError

    def periodic_tasks(self) -> List[Tuple[int, Tick]]:
        """The ``(period_ns, tick)`` syncer and cleaner rounds this
        configuration needs, for :func:`repro.engine.spawn_periodic`."""
        raise NotImplementedError

    def reset_measurement_stats(self) -> None:
        """Zero cache statistics at the warmup/measurement boundary."""
        raise NotImplementedError

    # --- filer access over the private segment -------------------------------

    def _filer_read(self) -> Iterator:
        """One block read from the filer: request packet, service, data packet.

        The segment occupancy and filer service are folded into this
        frame (via :meth:`NetworkSegment.charge` and
        :meth:`Filer.read_service_ns`) instead of delegating to nested
        generators — this path runs once per cache miss.
        """
        segment = self.segment
        wire, wire_time = segment.charge(_PKT_REQUEST, "up")
        if not wire.try_acquire():
            yield wire.acquire()
        yield wire_time
        wire.release()
        yield self.filer.read_service_ns()
        wire, wire_time = segment.charge(_PKT_DATA, "down")
        if not wire.try_acquire():
            yield wire.acquire()
        yield wire_time
        wire.release()

    def _filer_write(self) -> Iterator:
        """One block write to the filer: data packet, service, ack."""
        segment = self.segment
        wire, wire_time = segment.charge(_PKT_DATA, "up")
        if not wire.try_acquire():
            yield wire.acquire()
        yield wire_time
        wire.release()
        yield self.filer.write_service_ns()
        wire, wire_time = segment.charge(_PKT_ACK, "down")
        if not wire.try_acquire():
            yield wire.acquire()
        yield wire_time
        wire.release()

    # --- background flush helper ------------------------------------------

    def _spawn(self, gen: Iterator, name: str) -> None:
        self.sim.spawn(gen, name="%s.h%d" % (name, self.host_id))


class LayeredStack(HostStack):
    """Shared implementation of the two layered architectures
    (naive and lookaside), which differ only in where RAM writebacks go."""

    __slots__ = ("ram", "flash", "_flash_direct", "_admission", "_cleaning")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        self.ram = BlockStore(config.ram_blocks, config.eviction_policy, name="ram")
        self.flash: Optional[BlockStore] = None
        if config.has_flash:
            if self.flash_device is None:
                raise ConfigError("flash configured but no flash device supplied")
            self.flash = BlockStore(
                config.flash_blocks, config.eviction_policy, name="flash"
            )
        # Pure-latency devices (the default) take the non-generator
        # service-cost path; channel-limited devices must queue.
        self._flash_direct = (
            self.flash is not None and self.flash_device.unlimited_parallelism
        )
        # Admission/cleaning controllers: None at the paper defaults
        # (always-admit, periodic cleaning), so the default hot paths
        # pay one ``is not None`` branch each and replay bit-identically
        # to the pre-policy-API build.
        self._admission = None
        self._cleaning = None
        if self.flash is not None:
            admission = config.flash_admission
            if not admission.is_always:
                self._admission = admission.controller()
                if self._admission.needs_ref_ledger:
                    self.ram.enable_ref_ledger()
            cleaning = config.flash_cleaning
            if not cleaning.is_periodic:
                self._cleaning = cleaning.controller(self)

    # --- presence bookkeeping for the consistency directory ---------------

    def _note_present(self, block: int) -> None:
        self.directory.note_copy(self.host_id, block)

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
        # RAM is always volatile: its contents (dirty data included —
        # this is a crash) are gone.
        for block in list(self.ram.blocks()):
            if self.flash is not None:
                self.flash.unpin(block)
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
            # Contents survive, but the cache is offline while recovery
            # scans and validates its metadata.
            self.flash_online_at = (
                self.sim.now + len(self.flash) * scan_ns_per_block
            )

    # --- read path --------------------------------------------------------

    def read_block(self, block: int) -> Iterator:
        if self._has_ram:
            entry = self.ram.get(block)
            if entry is not None:
                admission = self._admission
                if (
                    admission is not None
                    and admission.promote_on_hit(self.ram.ref_count(block))
                    and self._flash_online()
                    and self.flash.peek(block) is None
                ):
                    # Probation served: this hit crosses the reference
                    # threshold, so promote the block into flash (the
                    # program is charged to this reader).
                    yield from self._install_flash(block, dirty=False)
                yield self._ram_read_ns
                return
        if self.flash is not None and self._flash_online():
            fentry = self.flash.get(block)
            if fentry is not None:
                if self._flash_direct:
                    yield self.flash_device.read_service_ns(block)
                else:
                    yield from self.flash_device.read_block(block)
                yield from self._install_ram(block, dirty=False)
                return
            # Miss everywhere: fetch, then fill flash and RAM
            # ("newly referenced blocks are first placed in flash,
            # then into RAM").
            yield from self._filer_read()
            yield from self._install_flash(block, dirty=False)
            yield from self._install_ram(block, dirty=False)
            return
        # No flash tier configured.
        yield from self._filer_read()
        yield from self._install_ram(block, dirty=False)

    # --- write path ------------------------------------------------------

    def write_block(self, block: int, measured: bool = True) -> Iterator:
        dropped = self.directory.on_block_write(self.host_id, block, measured)
        dir_stall = self._dir_stall
        if dir_stall is not None:
            cost = dir_stall[0] + dropped * dir_stall[1]
            if cost:
                if measured:
                    self.directory.invalidation_latency_ns += cost
                yield cost
        if not self._has_ram:
            # No RAM cache at all: writes land on the next tier directly.
            if self.flash is not None:
                yield from self._write_into_flash(block)
            else:
                yield from self._filer_write()
            return
        yield from self._install_ram(block, dirty=True)
        policy = self.config.ram_policy
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_ram_block(block)
        elif policy.kind is PolicyKind.ASYNC:
            self._spawn(self._flush_ram_block(block), "ram-flush")
        elif policy.kind is PolicyKind.DELAYED:
            self._spawn(
                _after(policy.flush_delay_ns, self._flush_ram_block(block)),
                "ram-delayed-flush",
            )
        # periodic/trickle/none: the block stays dirty for the
        # syncer/eviction path.

    # --- RAM tier internals ------------------------------------------------

    def _install_ram(self, block: int, dirty: bool) -> Iterator:
        """Place (or refresh) a block in RAM, evicting as needed."""
        if not self._has_ram:
            return
        ram = self.ram
        existing = ram.peek(block)
        if existing is not None:
            ram.get(block)  # touch + count the access pattern
            if dirty:
                ram.mark_dirty(block)
            yield self._ram_write_ns
            return
        while ram.is_full():
            victim = ram.pop_victim()
            if victim is None:
                break
            if self.flash is not None:
                self.flash.unpin(victim.block)
            if victim.dirty:
                yield from self._flush_evicted_ram_block(victim.block)
            self._note_maybe_gone(victim.block)
            # Re-check: another thread may have installed our block
            # while the writeback was in flight.
            installed = ram.peek(block)
            if installed is not None:
                if dirty:
                    ram.mark_dirty(block)
                yield self._ram_write_ns
                return
        ram.put(block, Medium.RAM, dirty=dirty)
        if self.flash is not None:
            self.flash.pin(block)
        self._note_present(block)
        yield self._ram_write_ns

    def _flush_ram_block(self, block: int) -> Iterator:
        """Policy-driven flush of one (possibly already clean) RAM block."""
        entry = self.ram.peek(block)
        if entry is None or not entry.dirty:
            return
        self.ram.mark_clean(block)
        yield from self._writeback_ram_data(block)

    def _flush_evicted_ram_block(self, block: int) -> Iterator:
        """Writeback for a dirty block already removed from the RAM index."""
        yield from self._writeback_ram_data(block)

    def _writeback_ram_data(self, block: int) -> Iterator:
        """Where RAM writebacks go — the one divergence between the
        naive and lookaside architectures."""
        raise NotImplementedError

    # --- flash tier internals -----------------------------------------------

    def _install_flash(self, block: int, dirty: bool) -> Iterator:
        """Write a block's data into the flash cache (fill or update).

        Returns the admission verdict: False when the admission policy
        rejected a *fill* (nothing was written to flash), True in every
        other case (updates of resident blocks are never rejected).
        """
        if self.flash is None or not self._flash_online():
            return True
        existing = self.flash.peek(block)
        admission = self._admission
        if existing is None:
            if admission is not None and not admission.admit_fill(
                block, self.ram.ref_count(block), self.sim.now
            ):
                return False
            yield from self._make_flash_room(block)
            if self.flash.peek(block) is None:
                self.flash.put(
                    block, Medium.FLASH, dirty=False, pinned=block in self.ram
                )
                self._note_present(block)
        else:
            self.flash.get(block)  # touch
            if admission is not None:
                admission.note_update(self.sim.now)
        if self._flash_direct:
            yield self.flash_device.write_service_ns(block)
        else:
            yield from self.flash_device.write_block(block)
        # The entry can be evicted by another thread during the device
        # write; if so there is nothing left to mark (the stale data is
        # simply gone, as on a real device) — tell the device so an
        # FTL-backed model reclaims the page.
        if self.flash.peek(block) is None:
            self.flash_device.trim_block(block)
        elif dirty:
            self.flash.mark_dirty(block)
            cleaning = self._cleaning
            if cleaning is not None:
                cleaning.note_dirtied(block, self.sim.now)
        return True

    def _write_into_flash(self, block: int) -> Iterator:
        """Write *dirty* data into flash, then honor the flash policy."""
        if self.flash is not None and not self._flash_online():
            # Recovering: the flash cannot accept writebacks, so dirty
            # data goes straight to the filer (§3.8's availability gap).
            yield from self._filer_write()
            return
        admitted = yield from self._install_flash(block, dirty=True)
        if not admitted:
            # The admission policy kept this dirty block out of flash;
            # its data still needs durability, so it writes through to
            # the filer (charged to this writer, like an eviction).
            yield from self._filer_write()
            return
        policy = self.config.flash_policy
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_flash_block(block)
        elif policy.kind is PolicyKind.ASYNC:
            self._spawn(self._flush_flash_block(block), "flash-flush")
        elif policy.kind is PolicyKind.DELAYED:
            self._spawn(
                _after(policy.flush_delay_ns, self._flush_flash_block(block)),
                "flash-delayed-flush",
            )

    def _make_flash_room(self, incoming: int) -> Iterator:
        assert self.flash is not None
        while self.flash.is_full():
            victim = self.flash.pop_victim()
            if victim is None:
                break
            self.flash_device.trim_block(victim.block)
            if victim.dirty:
                yield from self._filer_write()
            if victim.pinned:
                # Fallback: every other entry was pinned, so a
                # RAM-resident block lost its flash copy; drop the RAM
                # copy too to preserve the subset placement.
                ram_copy = self.ram.remove(victim.block)
                if ram_copy is not None and ram_copy.dirty:
                    yield from self._writeback_ram_data(victim.block)
            self._note_maybe_gone(victim.block)
            if self.flash.peek(incoming) is not None:
                return

    def _flush_flash_block(self, block: int) -> Iterator:
        """Flush one dirty flash block to the filer."""
        assert self.flash is not None
        if not self._flash_online():
            # "It cannot flush dirty data ... until afterwards."
            return
        entry = self.flash.peek(block)
        if entry is None or not entry.dirty:
            return
        self.flash.mark_clean(block)
        yield from self._filer_write()

    # --- syncers ----------------------------------------------------------

    def periodic_tasks(self) -> List[Tuple[int, Tick]]:
        tasks = []
        ram_policy = self.config.ram_policy
        if ram_policy.has_syncer and self.config.has_ram:
            tasks.append(self._syncer_task(ram_policy, self.ram, self._flush_ram_block))
        if self._cleaning is not None:
            # A non-default cleaning policy *replaces* the flash tier's
            # periodic syncer (the write-path behavior of the flash
            # writeback policy is unchanged).
            tasks.extend(self._cleaning.periodic_tasks())
            return tasks
        flash_policy = self.config.flash_policy
        if flash_policy.has_syncer and self.flash is not None:
            tasks.append(
                self._syncer_task(flash_policy, self.flash, self._flush_flash_block)
            )
        return tasks

    def _syncer_task(self, policy, store, flush_block) -> Tuple[int, Tick]:
        # A periodic syncer issues its whole batch of writebacks at
        # once, asynchronously (they pipeline on the devices and the
        # network, as real syncers' queued I/O does; a strictly serial
        # syncer could never exceed one writeback per round-trip time).
        # A trickle syncer spreads the batch evenly across the period.
        trickle = policy.kind is PolicyKind.TRICKLE
        period_ns = policy.period_ns
        dirty_set = store._dirty

        def tick() -> None:
            if not dirty_set:
                return
            dirty = list(dirty_set)
            rec = self._obs_rec
            if rec is not None:
                rec.emit(
                    self.sim.now, _SYNCER_RUN, self.host_id, tier=store.name,
                    info={"dirty": len(dirty)},
                )
            if trickle:
                spacing = period_ns // len(dirty)
                for index, block in enumerate(dirty):
                    self._spawn(
                        _after(index * spacing, flush_block(block)),
                        "trickle-flush",
                    )
            else:
                for block in dirty:
                    self._spawn(flush_block(block), "syncer-flush")

        return period_ns, tick


class NaiveStack(LayeredStack):
    """§3.3 "Naive": an independent flash layer beneath the RAM cache.

    RAM writebacks go to the flash; flash writebacks go to the filer.
    """

    __slots__ = ()

    def _writeback_ram_data(self, block: int) -> Iterator:
        if self.flash is not None:
            yield from self._write_into_flash(block)
        else:
            yield from self._filer_write()


class LookasideStack(LayeredStack):
    """§3.3 "Lookaside" (Mercury-like): writes bypass the flash.

    "Writes go directly from RAM to the file server instead of being
    routed through the flash.  The flash is updated after the file
    server and never contains dirty data."
    """

    __slots__ = ()

    def _writeback_ram_data(self, block: int) -> Iterator:
        yield from self._filer_write()
        if self.flash is not None:
            # Update the flash copy only after the filer write, so the
            # flash never holds dirty data.
            yield from self._install_flash(block, dirty=False)


class UnifiedStack(HostStack):
    """§3.3 "Unified": one LRU chain across RAM and flash buffers.

    New blocks land in "the least recently used buffer, whether RAM or
    flash" — when the cache is full, that is the buffer the LRU victim
    freed; while filling, free buffers are drawn in proportion to the
    remaining capacity of each medium (no preference for RAM).  Blocks
    are never migrated between media.
    """

    __slots__ = ("cache", "_free_ram", "_free_flash", "_flash_direct")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        total = config.ram_blocks + config.flash_blocks
        self.cache = BlockStore(total, config.eviction_policy, name="unified")
        self._free_ram = config.ram_blocks
        self._free_flash = config.flash_blocks
        if config.has_flash and self.flash_device is None:
            raise ConfigError("flash configured but no flash device supplied")
        self._flash_direct = (
            self.flash_device is not None
            and self.flash_device.unlimited_parallelism
        )

    # --- medium accounting ------------------------------------------------

    def _allocate_medium(self) -> Medium:
        """Pick the medium of a fresh buffer, proportionally to free space."""
        total_free = self._free_ram + self._free_flash
        assert total_free > 0, "allocation requested with no free buffers"
        if self.rng.randrange(total_free) < self._free_ram:
            self._free_ram -= 1
            return Medium.RAM
        self._free_flash -= 1
        return Medium.FLASH

    def _release_medium(self, medium: Medium) -> None:
        if medium is Medium.RAM:
            self._free_ram += 1
        else:
            self._free_flash += 1

    def _medium_read(self, medium: Medium, block: int) -> Iterator:
        if medium is Medium.RAM:
            yield self._ram_read_ns
        elif self._flash_direct:
            yield self.flash_device.read_service_ns(block)
        else:
            yield from self.flash_device.read_block(block)

    def _medium_write(self, medium: Medium, block: int) -> Iterator:
        if medium is Medium.RAM:
            yield self._ram_write_ns
        elif self._flash_direct:
            yield self.flash_device.write_service_ns(block)
        else:
            yield from self.flash_device.write_block(block)

    def _policy_for(self, medium: Medium):
        """Dirty blocks in RAM buffers follow the RAM policy; dirty
        blocks in flash buffers follow the flash policy."""
        if medium is Medium.RAM:
            return self.config.ram_policy
        return self.config.flash_policy

    # --- public paths -------------------------------------------------------

    def read_block(self, block: int) -> Iterator:
        entry = self.cache.get(block)
        if entry is not None:
            # Inline of _medium_read: this is the unified hit path.
            if entry.medium is Medium.RAM:
                yield self._ram_read_ns
            elif self._flash_direct:
                yield self.flash_device.read_service_ns(block)
            else:
                yield from self.flash_device.read_block(block)
            return
        yield from self._filer_read()
        yield from self._install(block, dirty=False)

    def write_block(self, block: int, measured: bool = True) -> Iterator:
        dropped = self.directory.on_block_write(self.host_id, block, measured)
        dir_stall = self._dir_stall
        if dir_stall is not None:
            cost = dir_stall[0] + dropped * dir_stall[1]
            if cost:
                if measured:
                    self.directory.invalidation_latency_ns += cost
                yield cost
        entry = self.cache.get(block)
        if entry is not None:
            self.cache.mark_dirty(block)
            medium = entry.medium
            # Inline of _medium_write: this is the unified write hit path.
            if medium is Medium.RAM:
                yield self._ram_write_ns
            elif self._flash_direct:
                yield self.flash_device.write_service_ns(block)
            else:
                yield from self.flash_device.write_block(block)
            self._reclaim_if_gone(block, medium)
        else:
            medium = yield from self._install(block, dirty=True)
            if medium is None:
                # Cache of zero capacity: write straight to the filer.
                yield from self._filer_write()
                return
        policy = self._policy_for(medium)
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_block(block)
        elif policy.kind is PolicyKind.ASYNC:
            self._spawn(self._flush_block(block), "unified-flush")
        elif policy.kind is PolicyKind.DELAYED:
            self._spawn(
                _after(policy.flush_delay_ns, self._flush_block(block)),
                "unified-delayed-flush",
            )

    def drop_block(self, block: int) -> None:
        entry = self.cache.remove(block, invalidation=True)
        if entry is not None:
            self._release_medium(entry.medium)
            if entry.medium is Medium.FLASH:
                self.flash_device.trim_block(block)

    # --- internals -----------------------------------------------------------

    def _install(self, block: int, dirty: bool) -> Iterator:
        """Insert a block; returns the medium it landed in (or None when
        the cache has zero capacity)."""
        if self.cache.capacity_blocks == 0:
            return None
        existing = self.cache.peek(block)
        if existing is None:
            while self.cache.is_full():
                victim = self.cache.pop_victim()
                if victim is None:
                    break
                self._release_medium(victim.medium)
                if victim.medium is Medium.FLASH:
                    self.flash_device.trim_block(victim.block)
                if victim.dirty:
                    yield from self._filer_write()
                # The victim may have been re-fetched by another thread
                # during the writeback; only report it gone if it is.
                if victim.block not in self.cache:
                    self.directory.note_drop(self.host_id, victim.block)
                existing = self.cache.peek(block)
                if existing is not None:
                    break
        if existing is not None:
            if dirty:
                self.cache.mark_dirty(block)
            yield from self._medium_write(existing.medium, block)
            self._reclaim_if_gone(block, existing.medium)
            return existing.medium
        medium = self._allocate_medium()
        self.cache.put(block, medium, dirty=dirty)
        self.directory.note_copy(self.host_id, block)
        yield from self._medium_write(medium, block)
        self._reclaim_if_gone(block, medium)
        return medium

    def _reclaim_if_gone(self, block: int, medium: Medium) -> None:
        """If another thread evicted the block during its device write,
        release its FTL page (no-op for the base device model)."""
        if medium is Medium.FLASH and self.cache.peek(block) is None:
            self.flash_device.trim_block(block)

    def _flush_block(self, block: int) -> Iterator:
        entry = self.cache.peek(block)
        if entry is None or not entry.dirty:
            return
        self.cache.mark_clean(block)
        yield from self._filer_write()

    def periodic_tasks(self) -> List[Tuple[int, Tick]]:
        # One syncer per medium with a periodic/trickle policy; each
        # scans only its medium's dirty blocks.
        tasks = []
        if self.config.ram_policy.has_syncer:
            tasks.append(self._syncer_task(self.config.ram_policy, Medium.RAM))
        if self.config.flash_policy.has_syncer:
            tasks.append(self._syncer_task(self.config.flash_policy, Medium.FLASH))
        return tasks

    def _syncer_task(self, policy, medium: Medium) -> Tuple[int, Tick]:
        # Writebacks are issued asynchronously (periodic) or spread
        # over the period (trickle); see LayeredStack's syncer task.
        trickle = policy.kind is PolicyKind.TRICKLE
        period_ns = policy.period_ns
        cache = self.cache
        dirty_set = cache._dirty

        def tick() -> None:
            if not dirty_set:
                return
            dirty = [
                block
                for block in dirty_set
                if (entry := cache.peek(block)) is not None
                and entry.medium is medium
            ]
            if not dirty:
                return
            rec = self._obs_rec
            if rec is not None:
                rec.emit(
                    self.sim.now, _SYNCER_RUN, self.host_id, tier=medium.name.lower(),
                    info={"dirty": len(dirty)},
                )
            spacing = period_ns // len(dirty) if trickle else 0
            for index, block in enumerate(dirty):
                self._spawn(
                    _after(index * spacing, self._flush_block(block)),
                    "unified-syncer-flush",
                )

        return period_ns, tick

    def reset_measurement_stats(self) -> None:
        self.cache.stats.reset_for_measurement()


def build_host_stack(
    sim: Simulator,
    host_id: int,
    config: SimConfig,
    flash_device: Optional[FlashDevice],
    segment: NetworkSegment,
    filer: Filer,
    directory: ConsistencyDirectory,
    rng: random.Random,
) -> HostStack:
    """Construct the stack class matching the configured architecture."""
    from repro.core.migration import MigrationStack

    cls = {
        Architecture.NAIVE: NaiveStack,
        Architecture.LOOKASIDE: LookasideStack,
        Architecture.UNIFIED: UnifiedStack,
        Architecture.EXCLUSIVE: MigrationStack,
    }[config.architecture]
    return cls(sim, host_id, config, flash_device, segment, filer, directory, rng)
