"""System-level invariant checkers and the suite that runs them.

A :class:`Checker` validates one aspect of a live
:class:`~repro.core.machine.System`.  ``check()`` runs at configurable
record intervals during replay — at those moments every simulation
process is suspended at a ``yield``, so any invariant that holds at all
yield boundaries may be checked.  ``final()`` runs once after the event
queue drains and may additionally assert *quiescent* invariants (such
as the flash-superset-of-RAM placement) that legitimately break inside
multi-step operations.

The suite is pluggable: :func:`register_checker_factory` adds a factory
(``system -> iterable of checkers``) to every subsequently built suite,
and :func:`registered` scopes a factory to a ``with`` block — the
differential harness uses that to assert experiment-specific invariants
like "the s/s policy combination never leaves a block dirty".
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterable, List, Optional

from repro.cache.block import Medium
from repro.core.architectures import Architecture
from repro.flash.ftl_device import FTLFlashDevice
from repro.invariants.checkers import check_ftl_device, check_store, fail

#: Environment flag enabling the sanitizer everywhere (read at System
#: construction, so it propagates into sweep worker processes).
ENV_FLAG = "REPRO_CHECK_INVARIANTS"


def env_enabled() -> bool:
    """True when :data:`ENV_FLAG` is set to a truthy value."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in ("", "0", "false", "no")


def resolve_enabled(explicit: Optional[bool], config) -> bool:
    """Resolve the three enablement sources, most specific first:
    an explicit ``run_simulation(check_invariants=...)`` argument, then
    the ``SimConfig.check_invariants`` field, then the environment."""
    if explicit is not None:
        return explicit
    return bool(config.check_invariants) or env_enabled()


class Checker:
    """One named invariant over a live system."""

    name = "checker"

    def check(self, system) -> None:
        """Validate at an interval boundary (all processes at yields)."""

    def final(self, system) -> None:
        """Validate at end-of-run; defaults to the interval check."""
        self.check(system)


class CacheTierChecker(Checker):
    """Per-host cache-tier invariants.

    Interval checks: the structural :func:`check_store` invariants for
    every tier, pin agreement for the layered architectures (a flash
    entry is pinned exactly when its block is RAM-resident),
    tier exclusivity for the migration architecture, and buffer-medium
    accounting for the unified architecture.

    Final check: additionally the paper's placement invariant for the
    naive/lookaside architectures — every *clean* RAM-resident block
    has a flash copy.  Dirty blocks are exempt (write-allocated data
    enters the flash on its first writeback), the check is skipped
    after a non-volatile restart (blocks cached while the flash tier
    recovers never get flash copies), and it is skipped for multi-host
    runs (a cross-host invalidation arriving between a fill's flash
    and RAM installs leaves a clean RAM block without its flash twin).  This only holds when the system
    is quiescent: mid-operation, an eviction's writeback window leaves
    a RAM block temporarily without its flash twin.
    """

    name = "cache-tiers"

    def check(self, system) -> None:
        now = system.sim.now
        for host in system.hosts:
            for store in self._stores(host):
                check_store(store, now)
            architecture = system.config.architecture
            flash = getattr(host, "flash", None)
            if architecture in (Architecture.NAIVE, Architecture.LOOKASIDE):
                if flash is not None:
                    self._check_pins(host, flash, now)
            elif architecture is Architecture.EXCLUSIVE:
                if flash is not None:
                    self._check_exclusive(host, flash, now)
            elif architecture is Architecture.UNIFIED:
                self._check_media(host, now)

    def final(self, system) -> None:
        self.check(system)
        if system.config.architecture not in (
            Architecture.NAIVE,
            Architecture.LOOKASIDE,
        ):
            return
        if not system.config.flash_admission.is_always:
            # A selective admission policy legitimately leaves clean
            # RAM-resident blocks without flash copies (rejected fills).
            return
        if system.n_hosts > 1:
            # Cross-host invalidation can land between a miss fill's
            # flash install and its RAM install; the drop clears the
            # flash copy and the fill then completes into RAM alone,
            # so the placement invariant only holds for single-host
            # replays (where no invalidations exist).
            return
        for host in system.hosts:
            flash = getattr(host, "flash", None)
            if flash is None or host.flash_online_at != 0:
                continue
            missing = [
                block
                for block in host.ram.blocks()
                if not host.ram.peek(block).dirty and flash.peek(block) is None
            ]
            if missing:
                fail(
                    self.name,
                    "host %d: %d clean RAM blocks lack flash copies"
                    % (host.host_id, len(missing)),
                    system.sim.now,
                    host=host.host_id,
                    missing=sorted(missing)[:8],
                )

    @staticmethod
    def _stores(host):
        for attribute in ("ram", "flash", "cache"):
            store = getattr(host, attribute, None)
            if store is not None:
                yield store

    def _check_pins(self, host, flash, now) -> None:
        for block, entry in flash._entries.items():
            resident = block in host.ram
            if entry.pinned != resident:
                fail(
                    self.name,
                    "host %d: flash entry %d pinned=%s but RAM-resident=%s"
                    % (host.host_id, block, entry.pinned, resident),
                    now,
                    host=host.host_id,
                    block=block,
                    pinned=entry.pinned,
                    ram_resident=resident,
                )

    def _check_exclusive(self, host, flash, now) -> None:
        shared = set(host.ram._entries) & set(flash._entries)
        if shared:
            fail(
                self.name,
                "host %d: %d blocks live in both tiers of the exclusive "
                "architecture" % (host.host_id, len(shared)),
                now,
                host=host.host_id,
                shared=sorted(shared)[:8],
            )

    def _check_media(self, host, now) -> None:
        used_ram = sum(
            1 for entry in host.cache._entries.values() if entry.medium is Medium.RAM
        )
        used_flash = len(host.cache._entries) - used_ram
        expected_free_ram = host.config.ram_blocks - used_ram
        expected_free_flash = host.config.flash_blocks - used_flash
        if (
            host._free_ram != expected_free_ram
            or host._free_flash != expected_free_flash
            or host._free_ram < 0
            or host._free_flash < 0
        ):
            fail(
                self.name,
                "host %d: unified medium accounting drifted "
                "(free_ram=%d expected %d, free_flash=%d expected %d)"
                % (
                    host.host_id,
                    host._free_ram,
                    expected_free_ram,
                    host._free_flash,
                    expected_free_flash,
                ),
                now,
                host=host.host_id,
                free_ram=host._free_ram,
                free_flash=host._free_flash,
                used_ram=used_ram,
                used_flash=used_flash,
            )


class FTLChecker(Checker):
    """FTL accounting for every FTL-backed flash device, plus agreement
    between the device's resident-block table and the cache tier that
    feeds it (a block occupies a logical page exactly while a flash
    buffer holds it)."""

    name = "ftl"

    def check(self, system) -> None:
        now = system.sim.now
        for host, device in zip(system.hosts, system.flash_devices):
            if not isinstance(device, FTLFlashDevice):
                continue
            check_ftl_device(device, now)
            resident = self._flash_resident(host)
            if resident is None:
                continue
            assigned = set(device._lpn_of)
            if assigned != resident:
                fail(
                    self.name,
                    "host %d: device holds pages for %d blocks but the "
                    "cache holds %d flash-resident blocks"
                    % (host.host_id, len(assigned), len(resident)),
                    now,
                    host=host.host_id,
                    device_only=sorted(assigned - resident)[:8],
                    cache_only=sorted(resident - assigned)[:8],
                )

    @staticmethod
    def _flash_resident(host):
        flash = getattr(host, "flash", None)
        if flash is not None:
            return set(flash._entries)
        cache = getattr(host, "cache", None)
        if cache is not None:
            return {
                block
                for block, entry in cache._entries.items()
                if entry.medium is Medium.FLASH
            }
        return None


class KernelChecker(Checker):
    """Event-kernel invariants.

    Interval checks: simulated time never moves backwards between
    checks, and no queued event is scheduled in the past.  (The kernel
    itself enforces that a completion never fires twice.)

    Final check: the event queue is drained and no process is still
    blocked on an unfired completion — a non-zero count means a waiter
    leaked (a deadlock the drain silently swallowed).
    """

    name = "kernel"

    def __init__(self) -> None:
        self._last_now: Optional[int] = None

    def check(self, system) -> None:
        sim = system.sim
        if self._last_now is not None and sim.now < self._last_now:
            fail(
                self.name,
                "simulated time moved backwards (%d < %d)"
                % (sim.now, self._last_now),
                sim.now,
                previous=self._last_now,
            )
        self._last_now = sim.now
        if sim._heap and sim._heap[0][0] < sim.now:
            fail(
                self.name,
                "queued event at t=%d precedes now" % sim._heap[0][0],
                sim.now,
                head=sim._heap[0][0],
            )

    def final(self, system) -> None:
        self.check(system)
        sim = system.sim
        if sim.pending_events != 0:
            fail(
                self.name,
                "%d events still queued after the run drained" % sim.pending_events,
                sim.now,
                pending=sim.pending_events,
            )
        if sim.blocked_processes != 0:
            fail(
                self.name,
                "%d processes leaked waiting on completions nobody fired"
                % sim.blocked_processes,
                sim.now,
                blocked=sim.blocked_processes,
            )


class AdmissionChecker(Checker):
    """Flash-admission accounting: every verdict is an admit or a
    reject, and no flash insertion happens without an admit verdict
    ("no flash write without an admission verdict")."""

    name = "admission"

    def check(self, system) -> None:
        now = system.sim.now
        for host in system.hosts:
            controller = getattr(host, "_admission", None)
            if controller is None:
                continue
            if controller.checks != controller.admits + controller.rejects:
                fail(
                    self.name,
                    "host %d: %d admission checks != %d admits + %d rejects"
                    % (
                        host.host_id,
                        controller.checks,
                        controller.admits,
                        controller.rejects,
                    ),
                    now,
                    host=host.host_id,
                    checks=controller.checks,
                    admits=controller.admits,
                    rejects=controller.rejects,
                )
            flash = getattr(host, "flash", None)
            if flash is not None and flash.lifetime_insertions > controller.admits:
                fail(
                    self.name,
                    "host %d: %d flash insertions exceed %d admission admits"
                    % (host.host_id, flash.lifetime_insertions, controller.admits),
                    now,
                    host=host.host_id,
                    insertions=flash.lifetime_insertions,
                    admits=controller.admits,
                )


class DirectoryChecker(Checker):
    """Consistency-directory invariants.

    Interval checks: every holder bit names a real host (no mask bit at
    or above ``n_hosts``), and the counters stay consistent —
    invalidating writes never exceed block writes, and each invalidating
    write dropped at least one copy.
    """

    name = "directory"

    def check(self, system) -> None:
        directory = system.directory
        now = system.sim.now
        host_limit = 1 << directory.n_hosts
        for block, mask in directory.holders.items():
            if mask <= 0 or mask >= host_limit:
                fail(
                    self.name,
                    "block %d holder mask %#x outside %d hosts"
                    % (block, mask, directory.n_hosts),
                    now,
                    block=block,
                    mask=mask,
                )
        writes = directory.block_writes
        requiring = directory.writes_requiring_invalidation
        copies = directory.copies_invalidated
        if requiring > writes or copies < requiring:
            fail(
                self.name,
                "counter drift: %d block writes, %d requiring invalidation, "
                "%d copies invalidated" % (writes, requiring, copies),
                now,
                block_writes=writes,
                writes_requiring_invalidation=requiring,
                copies_invalidated=copies,
            )


class CleaningChecker(Checker):
    """Cleaning-policy invariants: under the aggressive (ACP-style)
    policy the dirty backlog net of in-flight drains never exceeds the
    high watermark."""

    name = "cleaning"

    def check(self, system) -> None:
        from repro.policies.cleaning import AggressiveCleanController

        now = system.sim.now
        for host in system.hosts:
            controller = getattr(host, "_cleaning", None)
            if not isinstance(controller, AggressiveCleanController):
                continue
            store = controller.store
            if store is None:
                continue
            backlog = store.dirty_count - controller.pending
            if backlog > controller.high_blocks:
                fail(
                    self.name,
                    "host %d: dirty backlog %d (net of %d draining) exceeds "
                    "high watermark %d"
                    % (
                        host.host_id,
                        store.dirty_count,
                        controller.pending,
                        controller.high_blocks,
                    ),
                    now,
                    host=host.host_id,
                    dirty=store.dirty_count,
                    pending=controller.pending,
                    high_blocks=controller.high_blocks,
                )


# --- registry and suite -------------------------------------------------

#: ``system -> iterable of checkers``; factories run at suite build time.
CheckerFactory = Callable[[object], Iterable[Checker]]


def _default_checkers(_system) -> Iterable[Checker]:
    return [
        CacheTierChecker(),
        FTLChecker(),
        KernelChecker(),
        AdmissionChecker(),
        CleaningChecker(),
        DirectoryChecker(),
    ]


_factories: List[CheckerFactory] = [_default_checkers]


def register_checker_factory(factory: CheckerFactory) -> None:
    """Add ``factory`` to every suite built afterwards."""
    _factories.append(factory)


def unregister_checker_factory(factory: CheckerFactory) -> None:
    """Remove a previously registered factory (no-op if absent)."""
    try:
        _factories.remove(factory)
    except ValueError:
        pass


@contextmanager
def registered(factory: CheckerFactory):
    """Scope a checker factory to a ``with`` block (test harness use)."""
    register_checker_factory(factory)
    try:
        yield factory
    finally:
        unregister_checker_factory(factory)


class CheckerSuite:
    """The checkers attached to one system, with run counters."""

    def __init__(self, system, checkers: List[Checker]) -> None:
        self.system = system
        self.checkers = checkers
        self.checks_run = 0

    def check(self) -> None:
        """Run every checker's interval validation."""
        for checker in self.checkers:
            checker.check(self.system)
        self.checks_run += 1

    def final(self) -> None:
        """Run every checker's end-of-run validation."""
        for checker in self.checkers:
            checker.final(self.system)
        self.checks_run += 1


def build_suite(system) -> CheckerSuite:
    """Instantiate every registered checker for ``system``."""
    checkers: List[Checker] = []
    for factory in _factories:
        checkers.extend(factory(system))
    return CheckerSuite(system, checkers)
