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

Tier decisions (DESIGN.md §15): every block not served inline by the
replay driver — a miss, a flash hit, a write, a flush, an eviction —
takes these generators, so each decision is one operation on the
tier's block index (``BlockStore._entries``).  A lookup that must not
touch or count is ``store.peek``, the index's bound ``get``;
membership and fullness are ``in`` and ``len`` on the index; pinning
or unpinning a flash twin is one ``peek`` and a flag store; and
``_make_flash_room`` is entered only when the flash tier is full.
Only the counted operations (``get``, ``put``, ``pop_victim``,
``remove``, ``mark_dirty``, ``mark_clean``) are store calls.

Span attribution (:mod:`repro.obs`): every block-path generator takes
an optional trailing :class:`~repro.obs.breakdown.Span`.  The traced
replay driver passes one per block; only behind ``span is not None``
does a path add each yield's simulated time to the span's component
(and, with an event recorder attached, emit ``TIER_*``/``QUEUE_*``
events).  Fixed-cost yields are attributed by their known value,
anything that can wait is bracketed with ``sim.now`` deltas.  A
dirty-victim writeback is *other blocks'* data: it runs span-less and
its whole duration goes to ``syncer_stall``; spawned flushes are
span-less too.  The span travels as an argument, never stored on the
stack — threads of one host interleave freely.  Exactness (the
components sum to the block's latency) is property-tested in
``tests/test_obs.py``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.cache.block import Medium
from repro.cache.store import BlockStore
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.consistency import ConsistencyDirectory
from repro.core.policies import PolicyKind
from repro.engine.periodic import PeriodicTask
from repro.engine.simulation import Simulator
from repro.errors import ConfigError
from repro.filer.server import Filer
from repro.flash.device import FlashDevice
from repro.net.link import NetworkSegment
from repro.obs.breakdown import Span
from repro.obs.events import EventKind

_SYNCER_RUN = EventKind.SYNCER_RUN
_TIER_HIT = EventKind.TIER_HIT
_TIER_MISS = EventKind.TIER_MISS


def _after(delay_ns: int, gen: Iterator) -> Iterator:
    """Run a process generator after a delay (delayed-flush helper)."""
    yield delay_ns
    yield from gen


class HostStack:
    """Common machinery shared by the three architectures.

    Slotted: a fleet-scale ``System`` instantiates thousands of these,
    and the per-instance ``__dict__`` was the dominant construction
    cost.
    """

    __slots__ = (
        "sim",
        "host_id",
        "config",
        "flash_device",
        "segment",
        "directory",
        "rng",
        "timing",
        "_ram_read_ns",
        "_ram_write_ns",
        "_has_ram",
        "_dir_stall",
        "_track_copies",
        "_filer_read",
        "_filer_write",
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
        if segment.filer is not filer:
            raise ConfigError("host %d's segment does not lead to its filer" % host_id)
        self.sim = sim
        self.host_id = host_id
        self.config = config
        self.flash_device = flash_device
        self.segment = segment
        # The filer round trips are the segment's (request leg, filer
        # service, reply leg in one generator frame).
        self._filer_read = segment.read
        self._filer_write = segment.write
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
        # With one host no write can find another host's copy, so the
        # directory keeps no holder map and the tiers skip note_copy and
        # _note_maybe_gone (DESIGN.md §16).
        self._track_copies = directory.tracks_copies
        #: observability event sink (a repro.obs EventRecorder),
        #: attached by repro.obs.instrument.attach_observation; read by
        #: syncer rounds and, behind ``span is not None``, by the
        #: block paths' tier and queue events.
        self._obs_rec = None
        #: the flash tier is offline (recovering) before this time
        self.flash_online_at = 0
        directory.register_host(host_id, self.drop_block)

    def apply_restart(self, volatile_flash: bool, scan_ns_per_block: int) -> None:
        """Crash/reboot the host's caches (see repro.core.restart)."""
        raise NotImplementedError(
            "restart modeling is not supported by the %s architecture"
            % self.config.architecture
        )

    # --- public interface (implemented by subclasses) -----------------

    def read_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        """Process generator: application read of one block.

        With a ``span``, its components receive the read's latency
        (see the module docstring).
        """
        raise NotImplementedError

    def write_block(
        self, block: int, measured: bool = True, span: Optional[Span] = None
    ) -> Iterator:
        """Process generator: application write of one block.

        ``measured`` marks whether this write belongs to the trace's
        measurement phase (it gates invalidation *counting* only; the
        invalidation itself always happens).  With a ``span``, its
        components receive the write's latency.
        """
        raise NotImplementedError

    def drop_block(self, block: int) -> None:
        """Instantly drop every copy of a block (consistency invalidation)."""
        raise NotImplementedError

    def periodic_tasks(self) -> List[PeriodicTask]:
        """The ``(period_ns, work, tick)`` syncer and cleaner rounds this
        configuration needs, for :func:`repro.engine.spawn_periodic`."""
        raise NotImplementedError

    def reset_measurement_stats(self) -> None:
        """Zero cache statistics at the warmup/measurement boundary."""
        raise NotImplementedError

    # --- span attribution helpers ---------------------------------------

    def _emit_tier(self, kind: str, block: int, tier: str) -> None:
        """Emit a tier hit/miss event when a recorder is attached."""
        rec = self._obs_rec
        if rec is not None:
            rec.emit(self.sim.now, kind, self.host_id, block, tier=tier)

    def _flush_name(self, policy, label: str) -> Optional[str]:
        """The process name of the flush a write spawns under ``policy``
        (``<label>-flush.h<id>`` async, ``<label>-delayed-flush.h<id>``
        delayed), built once per stack; None for a policy that spawns
        none."""
        if policy.kind is PolicyKind.ASYNC:
            return "%s-flush.h%d" % (label, self.host_id)
        if policy.kind is PolicyKind.DELAYED:
            return "%s-delayed-flush.h%d" % (label, self.host_id)
        return None


class LayeredStack(HostStack):
    """Shared implementation of the two layered architectures
    (naive and lookaside), which differ only in where RAM writebacks go."""

    __slots__ = (
        "ram",
        "flash",
        "_flash_direct",
        "_admission",
        "_cleaning",
        "_ram_flush_name",
        "_flash_flush_name",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        self._ram_flush_name = self._flush_name(config.ram_policy, "ram")
        self._flash_flush_name = self._flush_name(config.flash_policy, "flash")
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

    def read_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        if self._has_ram:
            entry = self.ram.get(block)
            if entry is not None:
                if span is not None:
                    self._emit_tier(_TIER_HIT, block, "ram")
                admission = self._admission
                if (
                    admission is not None
                    and admission.promote_on_hit(self.ram.ref_count(block))
                    and self.sim.now >= self.flash_online_at
                    and self.flash.peek(block) is None
                ):
                    # Probation served: this hit crosses the reference
                    # threshold, so promote the block into flash (the
                    # program is charged to this reader).
                    yield from self._install_flash(block, False, span)
                yield self._ram_read_ns
                if span is not None:
                    span.ram += self._ram_read_ns
                return
            if span is not None:
                self._emit_tier(_TIER_MISS, block, "ram")
        flash = self.flash
        if flash is not None and self.sim.now >= self.flash_online_at:
            fentry = flash.get(block)
            if fentry is not None:
                if span is not None:
                    self._emit_tier(_TIER_HIT, block, "flash")
                if self._flash_direct:
                    service_ns = self.flash_device.read_service_ns(block)
                    yield service_ns
                    if span is not None:
                        span.flash_read += service_ns
                else:
                    started = self.sim.now
                    yield from self.flash_device.read_block(block)
                    if span is not None:
                        span.flash_read += self.sim.now - started
                yield from self._install_ram(block, False, span)
                return
            if span is not None:
                self._emit_tier(_TIER_MISS, block, "flash")
            # Miss everywhere: fetch, then fill flash and RAM
            # ("newly referenced blocks are first placed in flash,
            # then into RAM").
            yield from self._filer_read(block, span)
            yield from self._install_flash(block, False, span)
            yield from self._install_ram(block, False, span)
            return
        # No flash tier configured.
        yield from self._filer_read(block, span)
        yield from self._install_ram(block, False, span)

    # --- write path ------------------------------------------------------

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
        if not self._has_ram:
            # No RAM cache at all: writes land on the next tier directly.
            if self.flash is not None:
                yield from self._write_into_flash(block, span)
            else:
                yield from self._filer_write(block, span)
            return
        yield from self._install_ram(block, True, span)
        policy = self.config.ram_policy
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_ram_block(block, span)
        elif policy.kind is PolicyKind.ASYNC:
            self.sim.spawn(self._flush_ram_block(block), self._ram_flush_name)
        elif policy.kind is PolicyKind.DELAYED:
            self.sim.spawn(
                _after(policy.flush_delay_ns, self._flush_ram_block(block)),
                self._ram_flush_name,
            )
        # periodic/trickle/none: the block stays dirty for the
        # syncer/eviction path.

    # --- RAM tier internals ------------------------------------------------

    def _install_ram(self, block: int, dirty: bool, span: Optional[Span] = None) -> Iterator:
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
            if span is not None:
                span.ram += self._ram_write_ns
            return
        resident = ram._entries
        flash = self.flash
        while len(resident) >= ram.capacity_blocks:
            victim = ram.pop_victim()
            if victim is None:
                break
            if flash is not None:
                twin = flash.peek(victim.block)
                if twin is not None:
                    twin.pinned = False
            if victim.dirty:
                # The victim is already out of the RAM index.
                started = self.sim.now
                yield from self._writeback_ram_data(victim.block)
                if span is not None:
                    span.syncer_stall += self.sim.now - started
            if self._track_copies:
                self._note_maybe_gone(victim.block)
            # Re-check: another thread may have installed our block
            # while the writeback was in flight.
            installed = ram.peek(block)
            if installed is not None:
                if dirty:
                    ram.mark_dirty(block)
                yield self._ram_write_ns
                if span is not None:
                    span.ram += self._ram_write_ns
                return
        ram.put(block, Medium.RAM, dirty=dirty)
        twin = None if flash is None else flash.peek(block)
        if twin is not None:
            # The flash copy already set this host's holder bit.
            twin.pinned = True
        elif self._track_copies:
            self.directory.note_copy(self.host_id, block)
        yield self._ram_write_ns
        if span is not None:
            span.ram += self._ram_write_ns

    def _flush_ram_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        """Policy-driven flush of one (possibly already clean) RAM block."""
        entry = self.ram.peek(block)
        if entry is None or not entry.dirty:
            return
        self.ram.mark_clean(block)
        yield from self._writeback_ram_data(block, span)

    def _writeback_ram_data(self, block: int, span: Optional[Span] = None) -> Iterator:
        """Where RAM writebacks go — the one divergence between the
        naive and lookaside architectures."""
        raise NotImplementedError

    # --- flash tier internals -----------------------------------------------

    def _install_flash(self, block: int, dirty: bool, span: Optional[Span] = None) -> Iterator:
        """Write a block's data into the flash cache (fill or update).

        Returns the admission verdict: False when the admission policy
        rejected a *fill* (nothing was written to flash), True in every
        other case (updates of resident blocks are never rejected).
        """
        flash = self.flash
        if flash is None or self.sim.now < self.flash_online_at:
            return True
        existing = flash.peek(block)
        admission = self._admission
        if existing is None:
            if admission is not None and not admission.admit_fill(
                block, self.ram.ref_count(block), self.sim.now
            ):
                return False
            if len(flash._entries) >= flash.capacity_blocks:
                yield from self._make_flash_room(block, span)
            if flash.peek(block) is None:
                pinned = block in self.ram._entries
                flash.put(block, Medium.FLASH, dirty=False, pinned=pinned)
                # A RAM copy already set this host's holder bit.
                if not pinned and self._track_copies:
                    self.directory.note_copy(self.host_id, block)
        else:
            flash.get(block)  # touch
            if admission is not None:
                admission.note_update(self.sim.now)
        if self._flash_direct:
            service_ns = self.flash_device.write_service_ns(block)
            yield service_ns
            if span is not None:
                span.flash_write += service_ns
        else:
            started = self.sim.now
            yield from self.flash_device.write_block(block)
            if span is not None:
                span.flash_write += self.sim.now - started
        # The entry can be evicted by another thread during the device
        # write; if so there is nothing left to mark (the stale data is
        # simply gone, as on a real device) — tell the device so an
        # FTL-backed model reclaims the page.
        if flash.peek(block) is None:
            self.flash_device.trim_block(block)
        elif dirty:
            flash.mark_dirty(block)
            cleaning = self._cleaning
            if cleaning is not None:
                cleaning.note_dirtied(block, self.sim.now)
        return True

    def _write_into_flash(self, block: int, span: Optional[Span] = None) -> Iterator:
        """Write *dirty* data into flash, then honor the flash policy."""
        if self.flash is not None and self.sim.now < self.flash_online_at:
            # Recovering: the flash cannot accept writebacks, so dirty
            # data goes straight to the filer (§3.8's availability gap).
            yield from self._filer_write(block, span)
            return
        admitted = yield from self._install_flash(block, True, span)
        if not admitted:
            # The admission policy kept this dirty block out of flash;
            # its data still needs durability, so it writes through to
            # the filer (charged to this writer, like an eviction).
            yield from self._filer_write(block, span)
            return
        policy = self.config.flash_policy
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_flash_block(block, span)
        elif policy.kind is PolicyKind.ASYNC:
            self.sim.spawn(self._flush_flash_block(block), self._flash_flush_name)
        elif policy.kind is PolicyKind.DELAYED:
            self.sim.spawn(
                _after(policy.flush_delay_ns, self._flush_flash_block(block)),
                self._flash_flush_name,
            )

    def _make_flash_room(self, incoming: int, span: Optional[Span] = None) -> Iterator:
        """Evict flash victims until there is room; dirty victims'
        writebacks stall the caller (``syncer_stall`` in a span).

        The caller runs it only on a full tier, so a fill with room to
        spare creates no generator."""
        flash = self.flash
        resident = flash._entries
        while len(resident) >= flash.capacity_blocks:
            victim = flash.pop_victim()
            if victim is None:
                break
            self.flash_device.trim_block(victim.block)
            if victim.dirty:
                started = self.sim.now
                yield from self._filer_write(victim.block)
                if span is not None:
                    span.syncer_stall += self.sim.now - started
            if victim.pinned:
                # Fallback: every other entry was pinned, so a
                # RAM-resident block lost its flash copy; drop the RAM
                # copy too to preserve the subset placement.
                ram_copy = self.ram.remove(victim.block)
                if ram_copy is not None and ram_copy.dirty:
                    started = self.sim.now
                    yield from self._writeback_ram_data(victim.block)
                    if span is not None:
                        span.syncer_stall += self.sim.now - started
            if self._track_copies:
                self._note_maybe_gone(victim.block)
            if flash.peek(incoming) is not None:
                return

    def _flush_flash_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        """Flush one dirty flash block to the filer."""
        if self.sim.now < self.flash_online_at:
            # "It cannot flush dirty data ... until afterwards."
            return
        entry = self.flash.peek(block)
        if entry is None or not entry.dirty:
            return
        self.flash.mark_clean(block)
        yield from self._filer_write(block, span)

    # --- syncers ----------------------------------------------------------

    def periodic_tasks(self) -> List[PeriodicTask]:
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

    def _syncer_task(self, policy, store, flush_block) -> PeriodicTask:
        # A periodic syncer issues its whole batch of writebacks at
        # once, asynchronously (they pipeline on the devices and the
        # network, as real syncers' queued I/O does; a strictly serial
        # syncer could never exceed one writeback per round-trip time).
        # A trickle syncer spreads the batch evenly across the period.
        # The tick runs only while the store has dirty blocks.
        trickle = policy.kind is PolicyKind.TRICKLE
        period_ns = policy.period_ns
        dirty_set = store._dirty
        spawn = self.sim.spawn
        name = "%s.h%d" % ("trickle-flush" if trickle else "syncer-flush", self.host_id)

        def tick() -> None:
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
                    spawn(_after(index * spacing, flush_block(block)), name)
            else:
                for block in dirty:
                    spawn(flush_block(block), name)

        return period_ns, dirty_set, tick


class NaiveStack(LayeredStack):
    """§3.3 "Naive": an independent flash layer beneath the RAM cache.

    RAM writebacks go to the flash; flash writebacks go to the filer.
    """

    __slots__ = ()

    def _writeback_ram_data(self, block: int, span: Optional[Span] = None) -> Iterator:
        if self.flash is not None:
            yield from self._write_into_flash(block, span)
        else:
            yield from self._filer_write(block, span)


class LookasideStack(LayeredStack):
    """§3.3 "Lookaside" (Mercury-like): writes bypass the flash.

    "Writes go directly from RAM to the file server instead of being
    routed through the flash.  The flash is updated after the file
    server and never contains dirty data."
    """

    __slots__ = ()

    def _writeback_ram_data(self, block: int, span: Optional[Span] = None) -> Iterator:
        yield from self._filer_write(block, span)
        if self.flash is not None:
            # Update the flash copy only after the filer write, so the
            # flash never holds dirty data.
            yield from self._install_flash(block, False, span)


class UnifiedStack(HostStack):
    """§3.3 "Unified": one LRU chain across RAM and flash buffers.

    New blocks land in "the least recently used buffer, whether RAM or
    flash" — when the cache is full, that is the buffer the LRU victim
    freed; while filling, free buffers are drawn in proportion to the
    remaining capacity of each medium (no preference for RAM).  Blocks
    are never migrated between media.
    """

    __slots__ = (
        "cache",
        "_free_ram",
        "_free_flash",
        "_flash_direct",
        "_ram_flush_name",
        "_flash_flush_name",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        config = self.config
        self._ram_flush_name = self._flush_name(config.ram_policy, "unified")
        self._flash_flush_name = self._flush_name(config.flash_policy, "unified")
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

    def _medium_write(
        self, medium: Medium, block: int, span: Optional[Span] = None
    ) -> Iterator:
        if medium is Medium.RAM:
            yield self._ram_write_ns
            if span is not None:
                span.ram += self._ram_write_ns
        elif self._flash_direct:
            service_ns = self.flash_device.write_service_ns(block)
            yield service_ns
            if span is not None:
                span.flash_write += service_ns
        else:
            started = self.sim.now
            yield from self.flash_device.write_block(block)
            if span is not None:
                span.flash_write += self.sim.now - started

    # --- public paths -------------------------------------------------------

    def read_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        entry = self.cache.get(block)
        if entry is not None:
            if span is not None:
                self._emit_tier(_TIER_HIT, block, "unified")
            if entry.medium is Medium.RAM:
                yield self._ram_read_ns
                if span is not None:
                    span.ram += self._ram_read_ns
            elif self._flash_direct:
                service_ns = self.flash_device.read_service_ns(block)
                yield service_ns
                if span is not None:
                    span.flash_read += service_ns
            else:
                started = self.sim.now
                yield from self.flash_device.read_block(block)
                if span is not None:
                    span.flash_read += self.sim.now - started
            return
        if span is not None:
            self._emit_tier(_TIER_MISS, block, "unified")
        yield from self._filer_read(block, span)
        yield from self._install(block, False, span)

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
        entry = self.cache.get(block)
        if entry is not None:
            if span is not None:
                self._emit_tier(_TIER_HIT, block, "unified")
            self.cache.mark_dirty(block)
            medium = entry.medium
            yield from self._medium_write(medium, block, span)
            self._reclaim_if_gone(block, medium)
        else:
            if span is not None:
                self._emit_tier(_TIER_MISS, block, "unified")
            medium = yield from self._install(block, True, span)
            if medium is None:
                # Cache of zero capacity: write straight to the filer.
                yield from self._filer_write(block, span)
                return
        # Dirty blocks in RAM buffers follow the RAM policy; dirty
        # blocks in flash buffers follow the flash policy.
        if medium is Medium.RAM:
            policy = self.config.ram_policy
            name = self._ram_flush_name
        else:
            policy = self.config.flash_policy
            name = self._flash_flush_name
        if policy.kind is PolicyKind.SYNC:
            yield from self._flush_block(block, span)
        elif policy.kind is PolicyKind.ASYNC:
            self.sim.spawn(self._flush_block(block), name)
        elif policy.kind is PolicyKind.DELAYED:
            self.sim.spawn(
                _after(policy.flush_delay_ns, self._flush_block(block)), name
            )

    def drop_block(self, block: int) -> None:
        entry = self.cache.remove(block, invalidation=True)
        if entry is not None:
            self._release_medium(entry.medium)
            if entry.medium is Medium.FLASH:
                self.flash_device.trim_block(block)

    # --- internals -----------------------------------------------------------

    def _install(self, block: int, dirty: bool, span: Optional[Span] = None) -> Iterator:
        """Insert a block; returns the medium it landed in (or None when
        the cache has zero capacity)."""
        cache = self.cache
        if cache.capacity_blocks == 0:
            return None
        existing = cache.peek(block)
        if existing is not None:
            # Another thread installed it while this one fetched it.
            cache.get(block)  # touch + count the access pattern
        else:
            resident = cache._entries
            while len(resident) >= cache.capacity_blocks:
                victim = cache.pop_victim()
                if victim is None:
                    break
                self._release_medium(victim.medium)
                if victim.medium is Medium.FLASH:
                    self.flash_device.trim_block(victim.block)
                if victim.dirty:
                    started = self.sim.now
                    yield from self._filer_write(victim.block)
                    if span is not None:
                        span.syncer_stall += self.sim.now - started
                # The victim may have been re-fetched by another thread
                # during the writeback; only report it gone if it is.
                if self._track_copies and victim.block not in resident:
                    self.directory.note_drop(self.host_id, victim.block)
                existing = cache.peek(block)
                if existing is not None:
                    break
        if existing is not None:
            if dirty:
                cache.mark_dirty(block)
            yield from self._medium_write(existing.medium, block, span)
            self._reclaim_if_gone(block, existing.medium)
            return existing.medium
        medium = self._allocate_medium()
        cache.put(block, medium, dirty=dirty)
        if self._track_copies:
            self.directory.note_copy(self.host_id, block)
        yield from self._medium_write(medium, block, span)
        self._reclaim_if_gone(block, medium)
        return medium

    def _reclaim_if_gone(self, block: int, medium: Medium) -> None:
        """If another thread evicted the block during its device write,
        release its FTL page (no-op for the base device model)."""
        if medium is Medium.FLASH and self.cache.peek(block) is None:
            self.flash_device.trim_block(block)

    def _flush_block(self, block: int, span: Optional[Span] = None) -> Iterator:
        entry = self.cache.peek(block)
        if entry is None or not entry.dirty:
            return
        self.cache.mark_clean(block)
        yield from self._filer_write(block, span)

    def periodic_tasks(self) -> List[PeriodicTask]:
        # One syncer per medium with a periodic/trickle policy; each
        # scans only its medium's dirty blocks.
        tasks = []
        if self.config.ram_policy.has_syncer:
            tasks.append(self._syncer_task(self.config.ram_policy, Medium.RAM))
        if self.config.flash_policy.has_syncer:
            tasks.append(self._syncer_task(self.config.flash_policy, Medium.FLASH))
        return tasks

    def _syncer_task(self, policy, medium: Medium) -> PeriodicTask:
        # Writebacks are issued asynchronously (periodic) or spread
        # over the period (trickle); see LayeredStack's syncer task.
        # The tick runs only while the cache has dirty blocks.
        trickle = policy.kind is PolicyKind.TRICKLE
        period_ns = policy.period_ns
        cache = self.cache
        dirty_set = cache._dirty
        spawn = self.sim.spawn
        name = "unified-syncer-flush.h%d" % self.host_id

        def tick() -> None:
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
                spawn(_after(index * spacing, self._flush_block(block)), name)

        return period_ns, dirty_set, tick

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
