"""The simulator's flash device: a block device with average latencies.

The paper treats the flash "as a block device; that is, we write blocks
to it and read them back", assumes a flash translation layer ("we assume
our flash device comes equipped with a flash translation layer"), and
charges a single average per-block latency for each operation, a model
it validates against real SSDs in §6.2.

Two knobs extend the base model:

* ``parallelism`` — number of operations the device services at once.
  ``0`` (the default) means unlimited, i.e. a pure latency server; a
  positive value adds a FIFO queue, used by ablation benchmarks.
* ``persistent_metadata`` — §7.8's persistence cost model: every write
  is charged twice ("doubling the flash write latency to model
  performing two flash writes per block, one of the data and one for
  the meta-data describing the block").
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.engine.resources import Resource
from repro.engine.simulation import Simulator
from repro.flash.timing import FlashTiming
from repro.obs.events import EventKind

_DEVICE_READ = EventKind.DEVICE_READ
_DEVICE_WRITE = EventKind.DEVICE_WRITE


class FlashDevice:
    """A flash cache device charging per-block latencies."""

    def __init__(
        self,
        sim: Simulator,
        timing: Optional[FlashTiming] = None,
        parallelism: int = 0,
        persistent_metadata: bool = False,
        name: str = "flash",
    ) -> None:
        self._sim = sim
        self.timing = timing or FlashTiming.paper_default()
        self.persistent_metadata = persistent_metadata
        self.name = name
        self._channel: Optional[Resource] = None
        if parallelism > 0:
            self._channel = Resource(sim, capacity=parallelism, name=name)
        # traffic counters
        self.blocks_read = 0
        self.blocks_written = 0
        #: observability sink (an EventRecorder); None when tracing is
        #: off — the service paths then pay a single branch.
        self.obs = None

    @property
    def write_latency_ns(self) -> int:
        """Effective per-block write latency including metadata writes."""
        if self.persistent_metadata:
            return 2 * self.timing.write_ns
        return self.timing.write_ns

    @property
    def read_latency_ns(self) -> int:
        return self.timing.read_ns

    @property
    def unlimited_parallelism(self) -> bool:
        """True when the device is a pure latency server (no channel
        queue), which makes the non-generator ``*_service_ns`` methods
        valid substitutes for the process-generator I/O methods."""
        return self._channel is None

    def read_service_ns(self, block: Optional[int] = None) -> int:
        """Charge one block read and return its service time.

        Non-generator twin of :meth:`read_block` for hot-path callers
        that fold the device delay into their own process frame.  Only
        valid on unlimited-parallelism devices — channel-limited devices
        must queue through the generator form.
        """
        self.blocks_read += 1
        obs = self.obs
        if obs is not None:
            obs.emit(
                self._sim.now, _DEVICE_READ, block=block if block is not None else -1,
                tier=self.name, dur=self.timing.read_ns,
            )
        return self.timing.read_ns

    def write_service_ns(self, block: Optional[int] = None) -> int:
        """Charge one block write and return its service time (see
        :meth:`read_service_ns` for the validity constraint)."""
        self.blocks_written += 1
        obs = self.obs
        if obs is not None:
            obs.emit(
                self._sim.now, _DEVICE_WRITE, block=block if block is not None else -1,
                tier=self.name, dur=self.write_latency_ns,
            )
        return self.write_latency_ns

    def read_block(self, block: Optional[int] = None) -> Iterator:
        """Process generator: read one 4 KB block.

        ``block`` identifies the cached block; the base device ignores
        it (average-latency model), the FTL-backed subclass uses it for
        address translation.
        """
        if self._channel is not None:
            self.blocks_read += 1
            obs = self.obs
            if obs is not None:
                obs.emit(
                    self._sim.now, _DEVICE_READ,
                    block=block if block is not None else -1,
                    tier=self.name, dur=self.timing.read_ns,
                )
            yield from self._channel.use(self.timing.read_ns)
        else:
            yield self.read_service_ns(block)

    def write_block(self, block: Optional[int] = None) -> Iterator:
        """Process generator: write one 4 KB block (plus metadata if
        the device is in persistent mode)."""
        if self._channel is not None:
            self.blocks_written += 1
            obs = self.obs
            if obs is not None:
                obs.emit(
                    self._sim.now, _DEVICE_WRITE,
                    block=block if block is not None else -1,
                    tier=self.name, dur=self.write_latency_ns,
                )
            yield from self._channel.use(self.write_latency_ns)
        else:
            yield self.write_service_ns(block)

    def trim_block(self, block: int) -> None:
        """Notify the device a block was evicted (no-op for the base
        model; the FTL-backed device reclaims the page)."""

    def reset_counters(self) -> None:
        """Zero traffic counters (warmup/measurement boundary)."""
        self.blocks_read = 0
        self.blocks_written = 0

    # --- endurance accounting -----------------------------------------

    def program_bytes(self) -> int:
        """Bytes physically programmed since the last counter reset.

        The base model has no FTL, so this is exactly the host traffic
        (doubled in persistent mode for the metadata page); the
        FTL-backed subclass counts relocation traffic too.
        """
        from repro._units import BLOCK_SIZE

        per_block = 2 * BLOCK_SIZE if self.persistent_metadata else BLOCK_SIZE
        return self.blocks_written * per_block

    def erase_count(self) -> int:
        """Erase operations since the last counter reset (0 without an
        FTL model — the base device never surfaces erases)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<FlashDevice %s read=%dns write=%dns>" % (
            self.name,
            self.timing.read_ns,
            self.write_latency_ns,
        )
