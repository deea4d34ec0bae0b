"""An FTL-backed flash device (extension; §8 of the paper).

The paper assumes the flash device's translation layer is free ("we
assume our flash device comes equipped with a flash translation layer")
and leaves a caching-specialized FTL as future work.  This device makes
the FTL's cost visible: every cache write runs through a
:class:`~repro.flash.ftl.PageMappedFTL`, and the garbage collector's
relocation writes and erases are charged to the operation that
triggered them, so the *effective* write latency grows with write
amplification.  Cache evictions TRIM the page, which is exactly the
hint a caching-specialized FTL exploits (clean evicted data need never
be relocated) — the ablation benchmark quantifies how much that helps.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro._units import US
from repro.engine.simulation import Simulator
from repro.errors import SimulationError
from repro.flash.device import FlashDevice
from repro.flash.ftl import FTLConfig, PageMappedFTL
from repro.flash.timing import FlashTiming
from repro.obs.events import EventKind

_DEVICE_WRITE = EventKind.DEVICE_WRITE

#: Erase time of one flash erase block (typical SLC/MLC-era value).
DEFAULT_ERASE_NS = 1_500 * US


class FTLFlashDevice(FlashDevice):
    """A flash cache device whose writes run through a page-mapped FTL.

    Cache block numbers are arbitrary (global file-server blocks); the
    device assigns each resident block a logical page from a free list
    and releases it on TRIM, so the FTL's logical space is exactly the
    cache's capacity plus overprovisioning.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_blocks: int,
        timing: Optional[FlashTiming] = None,
        persistent_metadata: bool = False,
        overprovision: float = 0.07,
        pages_per_block: int = 64,
        erase_ns: int = DEFAULT_ERASE_NS,
        rated_erase_cycles: int = 3000,
        name: str = "ftl-flash",
    ) -> None:
        super().__init__(
            sim,
            timing=timing,
            parallelism=0,
            persistent_metadata=persistent_metadata,
            name=name,
        )
        if capacity_blocks < 1:
            raise SimulationError("FTL device needs a positive capacity")
        # Size the physical flash so the logical space covers the cache.
        logical_needed = capacity_blocks
        physical_pages = int(logical_needed / (1.0 - overprovision)) + 2 * pages_per_block
        n_blocks = max(4, -(-physical_pages // pages_per_block))
        self.ftl = PageMappedFTL(
            FTLConfig(
                n_blocks=n_blocks,
                pages_per_block=pages_per_block,
                overprovision=overprovision,
                rated_erase_cycles=rated_erase_cycles,
            )
        )
        self.erase_ns = erase_ns
        self.capacity_blocks = capacity_blocks
        # cache block number -> logical page
        self._lpn_of: Dict[int, int] = {}
        self._free_lpns = list(range(min(self.ftl.config.logical_pages, capacity_blocks)))
        # FTL counter snapshots at the last reset_counters() call, so
        # the endurance metrics cover the measurement window only.
        self._host_writes_at_reset = 0
        self._flash_writes_at_reset = 0
        self._erases_at_reset = 0

    # --- address management ----------------------------------------------

    def _lpn_for(self, block: int) -> int:
        lpn = self._lpn_of.get(block)
        if lpn is None:
            if not self._free_lpns:
                raise SimulationError(
                    "%s: more resident blocks than capacity %d"
                    % (self.name, self.capacity_blocks)
                )
            lpn = self._free_lpns.pop()
            self._lpn_of[block] = lpn
        return lpn

    def trim_block(self, block: int) -> None:
        """Release the evicted block's page (the caching-FTL hint)."""
        lpn = self._lpn_of.pop(block, None)
        if lpn is not None:
            self.ftl.trim(lpn)
            self._free_lpns.append(lpn)

    # --- I/O ------------------------------------------------------------------

    def write_service_ns(self, block: Optional[int] = None) -> int:
        """Charge one block write (translation, GC relocations, erases)
        and return its total service time."""
        self.blocks_written += 1
        obs = self.obs
        if block is None:
            # Anonymous write (no translation context): base-model cost.
            if obs is not None:
                obs.emit(
                    self._sim.now, _DEVICE_WRITE, tier=self.name,
                    dur=self.write_latency_ns,
                )
            return self.write_latency_ns
        flash_writes_before = self.ftl.flash_writes
        erases_before = self.ftl.erases
        self.ftl.write(self._lpn_for(block))
        relocations = self.ftl.flash_writes - flash_writes_before  # >= 1
        erases = self.ftl.erases - erases_before
        latency = relocations * self.write_latency_ns + erases * self.erase_ns
        if self.persistent_metadata:
            # write_latency_ns already includes the metadata write for
            # the host page; relocated pages move data only, so strip
            # the double charge for them.
            latency -= (relocations - 1) * self.timing.write_ns
        if obs is not None:
            obs.emit(
                self._sim.now, _DEVICE_WRITE, block=block, tier=self.name,
                dur=latency,
                info={"relocations": relocations, "erases": erases},
            )
        return latency

    def write_block(self, block: Optional[int] = None) -> Iterator:
        """Write one block; GC relocation traffic is charged here."""
        yield self.write_service_ns(block)

    # --- reporting ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero traffic counters and snapshot the FTL's lifetime
        counters so endurance metrics cover the measurement window."""
        super().reset_counters()
        self._host_writes_at_reset = self.ftl.host_writes
        self._flash_writes_at_reset = self.ftl.flash_writes
        self._erases_at_reset = self.ftl.erases

    @property
    def write_amplification(self) -> float:
        return self.ftl.write_amplification

    def wear_stats(self):
        return self.ftl.wear_stats()

    # --- endurance accounting ------------------------------------------

    def program_bytes(self) -> int:
        """Bytes physically programmed since the last counter reset —
        host pages *and* GC relocations, plus the metadata page per
        host write in persistent mode."""
        from repro._units import BLOCK_SIZE

        pages = self.ftl.flash_writes - self._flash_writes_at_reset
        total = pages * BLOCK_SIZE
        if self.persistent_metadata:
            total += (
                self.ftl.host_writes - self._host_writes_at_reset
            ) * BLOCK_SIZE
        return total

    def erase_count(self) -> int:
        return self.ftl.erases - self._erases_at_reset
