"""Shared machinery for trace importers.

Third-party traces address raw byte (or sector) extents on named
devices; the simulator addresses 4 KB blocks within dense file ids.
The builders here perform that mapping incrementally:

* each distinct device name (or ASU number) becomes one "file";
* byte extents are converted to block extents (start rounded down,
  end rounded up);
* each file's size grows to cover the largest extent seen, then the
  whole geometry is frozen when :meth:`build` is called;
* requesters (process names, CPU ids...) map to dense thread ids.

Two builders share those conventions (via :class:`ExtentMapperBase`):

* :class:`TraceBuilder` accumulates ``TraceRecord`` objects and builds
  a materialized :class:`~repro.traces.records.Trace` — O(records)
  memory;
* :class:`StreamingTraceBuilder` appends straight into a
  :class:`~repro.traces.chunked.ChunkedTraceWriter` spool and builds a
  :class:`~repro.traces.chunked.ChunkedCompiledTrace` — O(chunk)
  memory, for traces too large to hold (week-long MSR/SPC captures).
  The file geometry is deferred-frozen: it grows while lines stream in
  and is resolved once at :meth:`StreamingTraceBuilder.build`, exactly
  mirroring ``TraceBuilder``'s growth rule so both builders produce
  identical geometries from identical input.

Importers accumulate :class:`ImportStats` so callers can see how many
lines were skipped and why — real trace files are messy, and silently
dropping records is how reproductions go wrong.  ``build()`` enforces
the accounting invariant ``records_imported + lines_skipped ==
lines_total``: an importer that forgets a ``stats.skip()`` call now
fails loudly at build time instead of under-reporting dropped lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro._units import BLOCK_SIZE
from repro.errors import TraceFormatError
from repro.traces.chunked import ChunkedCompiledTrace, ChunkedTraceWriter
from repro.traces.records import Trace, TraceOp, TraceRecord


@dataclass
class ImportStats:
    """What happened while importing a foreign trace."""

    lines_total: int = 0
    records_imported: int = 0
    lines_skipped: int = 0
    skip_reasons: Dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.lines_skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1

    def check_consistent(self) -> None:
        """Enforce ``records_imported + lines_skipped == lines_total``.

        Every line an importer reads must end up either imported or
        skipped-with-a-reason; drift means records were dropped
        silently — the exact failure mode the stats exist to prevent.
        Only meaningful when the importer counts lines (direct
        ``TraceBuilder`` users that never touch ``lines_total`` are
        exempt).
        """
        if (
            self.lines_total
            and self.records_imported + self.lines_skipped != self.lines_total
        ):
            raise TraceFormatError(
                "import accounting drift: %d imported + %d skipped != %d "
                "lines read — some lines were neither imported nor "
                "counted as skipped"
                % (self.records_imported, self.lines_skipped, self.lines_total)
            )

    def summary(self) -> str:
        lines = [
            "imported %d records from %d lines (%d skipped)"
            % (self.records_imported, self.lines_total, self.lines_skipped)
        ]
        for reason, count in sorted(self.skip_reasons.items()):
            lines.append("  skipped %6d: %s" % (count, reason))
        return "\n".join(lines)


class ExtentMapperBase:
    """The id mapping and byte→block conversion both builders share.

    Subclasses provide ``_emit(is_write, host, thread, file_id,
    start_block, nblocks)`` to say where converted records go, and (for
    the materialized builder) track file growth themselves.
    """

    def __init__(self, warmup_fraction: float = 0.0) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise TraceFormatError("warmup fraction must be in [0, 1)")
        self._warmup_fraction = warmup_fraction
        self._file_ids: Dict[str, int] = {}
        self._thread_ids: Dict[Tuple[int, str], int] = {}
        self._threads_per_host: Dict[int, int] = {}
        self._host_ids: Dict[str, int] = {}
        self.stats = ImportStats()

    # --- id mapping ----------------------------------------------------

    def host_id(self, name: str) -> int:
        host = self._host_ids.get(name)
        if host is None:
            host = len(self._host_ids)
            self._host_ids[name] = host
        return host

    def thread_id(self, host: int, name: str) -> int:
        key = (host, name)
        thread = self._thread_ids.get(key)
        if thread is None:
            thread = self._threads_per_host.get(host, 0)
            self._threads_per_host[host] = thread + 1
            self._thread_ids[key] = thread
        return thread

    def file_id(self, device: str) -> int:
        fid = self._file_ids.get(device)
        if fid is None:
            fid = len(self._file_ids)
            self._file_ids[device] = fid
            self._register_file(fid)
        return fid

    def _register_file(self, file_id: int) -> None:
        """Hook: a new file id was allocated."""

    # --- record accumulation ----------------------------------------------

    def add_bytes_extent(
        self,
        is_write: bool,
        host: int,
        thread: int,
        device: str,
        offset_bytes: int,
        length_bytes: int,
    ) -> bool:
        """Add one operation given a byte extent; False if unusable."""
        if offset_bytes < 0 or length_bytes <= 0:
            self.stats.skip("non-positive extent")
            return False
        start_block = offset_bytes // BLOCK_SIZE
        end_block = -(-(offset_bytes + length_bytes) // BLOCK_SIZE)
        file_id = self.file_id(device)
        self._emit(is_write, host, thread, file_id, start_block, end_block - start_block)
        self.stats.records_imported += 1
        return True

    def _emit(
        self,
        is_write: bool,
        host: int,
        thread: int,
        file_id: int,
        start_block: int,
        nblocks: int,
    ) -> None:
        raise NotImplementedError


class TraceBuilder(ExtentMapperBase):
    """Incrementally builds a materialized Trace from foreign
    byte/sector extents (O(records) memory; see
    :class:`StreamingTraceBuilder` for the bounded-memory twin)."""

    def __init__(self, warmup_fraction: float = 0.0) -> None:
        super().__init__(warmup_fraction)
        self._file_blocks: List[int] = []
        self._pending: List[Tuple[bool, int, int, int, int, int]] = []

    def _register_file(self, file_id: int) -> None:
        self._file_blocks.append(1)

    def _emit(
        self,
        is_write: bool,
        host: int,
        thread: int,
        file_id: int,
        start_block: int,
        nblocks: int,
    ) -> None:
        end_block = start_block + nblocks
        if end_block > self._file_blocks[file_id]:
            self._file_blocks[file_id] = end_block
        self._pending.append((is_write, host, thread, file_id, start_block, nblocks))

    # --- output ----------------------------------------------------------------

    def build(self, metadata: Optional[Dict[str, str]] = None) -> Trace:
        """Freeze the geometry and return the Trace.

        Raises :class:`~repro.errors.TraceFormatError` if the import
        accounting drifted (see :meth:`ImportStats.check_consistent`).
        """
        self.stats.check_consistent()
        records = [
            TraceRecord(
                TraceOp.WRITE if is_write else TraceOp.READ,
                host,
                thread,
                file_id,
                start,
                nblocks,
            )
            for is_write, host, thread, file_id, start, nblocks in self._pending
        ]
        warmup = int(len(records) * self._warmup_fraction)
        return Trace(
            records,
            self._file_blocks,
            warmup_records=warmup,
            metadata=dict(metadata or {}),
        )


class StreamingTraceBuilder(ExtentMapperBase):
    """Bounded-memory twin of :class:`TraceBuilder`.

    Converted records go straight into an on-disk chunk spool (via
    :class:`~repro.traces.chunked.ChunkedTraceWriter` in deferred-
    geometry mode) — no ``TraceRecord`` objects, no pending list.  The
    geometry freezes at :meth:`build`, which resolves file bases and
    returns a replay-ready
    :class:`~repro.traces.chunked.ChunkedCompiledTrace`.

    Given identical input, the result is record-for-record identical to
    ``TraceBuilder(...).build(...)`` — same id mapping,
    same extent rounding, same geometry growth, same warmup count —
    which the importer property tests assert via trace fingerprints.
    """

    def __init__(
        self,
        warmup_fraction: float = 0.0,
        *,
        spool_dir: Union[None, str, Path] = None,
        chunk_records: Optional[int] = None,
    ) -> None:
        super().__init__(warmup_fraction)
        self._writer = ChunkedTraceWriter(
            None, spool_dir=spool_dir, chunk_records=chunk_records
        )

    def _emit(
        self,
        is_write: bool,
        host: int,
        thread: int,
        file_id: int,
        start_block: int,
        nblocks: int,
    ) -> None:
        # The writer's deferred-geometry mode applies the same "grow to
        # the largest end block, never below 1" rule as TraceBuilder.
        self._writer.append(is_write, host, thread, file_id, start_block, nblocks)

    def abort(self) -> None:
        """Discard the spool (error paths)."""
        self._writer.abort()

    def build(
        self, metadata: Optional[Dict[str, str]] = None
    ) -> ChunkedCompiledTrace:
        """Freeze the geometry and return the chunked trace.

        Raises :class:`~repro.errors.TraceFormatError` if the import
        accounting drifted (see :meth:`ImportStats.check_consistent`).
        """
        self.stats.check_consistent()
        warmup = int(len(self._writer) * self._warmup_fraction)
        return self._writer.freeze(warmup, dict(metadata or {}))
