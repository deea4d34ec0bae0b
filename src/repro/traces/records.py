"""Trace records and the in-memory trace container.

A :class:`Trace` holds its rows in one of two forms.  Built from a list
of :class:`TraceRecord` objects (importers, tools, hand-written
traces), it keeps that list.  Built by :meth:`Trace.from_columns` (the
synthetic generator and the fleet scenarios), it keeps the packed
columns of a :class:`~repro.traces.compiled.CompiledTrace`: replay
reads them with no further pass, and the record objects are built only
when ``records`` is first read.  Both forms pass the same checks and
raise the same :class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from functools import cached_property
from operator import add, le
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro._gc import collector_paused
from repro._units import BLOCK_SIZE
from repro.errors import TraceFormatError

if TYPE_CHECKING:
    from repro.traces.compiled import CompiledTrace

#: One record as ints: ``(op, host, thread, file_id, offset, nblocks)``,
#: ``op`` 1 for a write and 0 for a read (the packed columns' encoding).
Row = Tuple[int, int, int, int, int, int]


class TraceOp(enum.Enum):
    """Operation type of a trace record."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:
        return self.value


class TraceRecord:
    """One block-range I/O operation.

    Attributes:
        op:      READ or WRITE.
        host:    issuing host id (0-based).
        thread:  issuing thread id within the host (0-based).
        file_id: file identifier within the trace's file-system model.
        offset:  starting block within the file.
        nblocks: number of consecutive 4 KB blocks covered.
    """

    __slots__ = ("op", "host", "thread", "file_id", "offset", "nblocks")

    def __init__(
        self,
        op: TraceOp,
        host: int,
        thread: int,
        file_id: int,
        offset: int,
        nblocks: int,
    ) -> None:
        if nblocks < 1:
            raise TraceFormatError("record must cover >= 1 block, got %d" % nblocks)
        if min(host, thread, file_id, offset) < 0:
            raise TraceFormatError("record fields must be non-negative")
        self.op = op
        self.host = host
        self.thread = thread
        self.file_id = file_id
        self.offset = offset
        self.nblocks = nblocks

    @property
    def is_write(self) -> bool:
        return self.op is TraceOp.WRITE

    @property
    def nbytes(self) -> int:
        return self.nblocks * BLOCK_SIZE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.op is other.op
            and self.host == other.host
            and self.thread == other.thread
            and self.file_id == other.file_id
            and self.offset == other.offset
            and self.nblocks == other.nblocks
        )

    def __repr__(self) -> str:
        return "TraceRecord(%s, h%d t%d, file=%d, off=%d, n=%d)" % (
            self.op,
            self.host,
            self.thread,
            self.file_id,
            self.offset,
            self.nblocks,
        )


def records_from_rows(rows: Iterable[Row]) -> List[TraceRecord]:
    """The records for ``rows``, in order: the one way packed rows
    become record objects (``Trace.records`` of a columns-backed trace,
    and ``to_trace`` of both compiled forms)."""
    write, read = TraceOp.WRITE, TraceOp.READ
    # The records are acyclic; see repro._gc.
    with collector_paused():
        return [
            TraceRecord(write if op else read, host, thread, file_id, offset, nblocks)
            for op, host, thread, file_id, offset, nblocks in rows
        ]


def _file_bases(file_blocks: List[int]) -> List[int]:
    """The global block number at which each file starts."""
    return list(itertools.accumulate([0] + file_blocks[:-1])) if file_blocks else []


class Trace:
    """An ordered list of records plus the file geometry they address.

    ``file_blocks[f]`` is the size of file ``f`` in 4 KB blocks; the
    trace uses it to flatten ``(file, offset)`` pairs into *global*
    block numbers, which is the namespace the caches operate in.

    ``warmup_records`` is the count of leading records forming the
    warmup phase ("half of it being devoted to a warmup period for
    which statistics are not collected").

    A trace built by :meth:`from_columns` keeps its packed columns:
    ``len``, :meth:`hosts`, :meth:`without_warmup`, pickling and
    :func:`~repro.traces.compiled.compile_trace` read them, and
    ``records`` is built on first access.  Like a compiled trace, such
    a trace's content must not be changed.
    """

    #: The packed columns of a trace built by :meth:`from_columns`.
    _columns: Optional["CompiledTrace"] = None

    def __init__(
        self,
        records: Sequence[TraceRecord],
        file_blocks: Sequence[int],
        warmup_records: int = 0,
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        if not 0 <= warmup_records <= len(records):
            raise TraceFormatError(
                "warmup_records %d out of range for %d records"
                % (warmup_records, len(records))
            )
        self.records = list(records)
        self.file_blocks: List[int] = list(file_blocks)
        self.warmup_records = warmup_records
        self.metadata: Dict[str, str] = dict(metadata or {})
        # cumulative base block number per file
        self._file_base = _file_bases(self.file_blocks)
        self._validate()

    def _validate(self) -> None:
        n_files = len(self.file_blocks)
        for index, record in enumerate(self.records):
            if record.file_id >= n_files:
                raise TraceFormatError(
                    "record %d references file %d but trace has %d files"
                    % (index, record.file_id, n_files)
                )
            if record.offset + record.nblocks > self.file_blocks[record.file_id]:
                raise TraceFormatError(
                    "record %d overruns file %d (%d blocks): offset=%d n=%d"
                    % (
                        index,
                        record.file_id,
                        self.file_blocks[record.file_id],
                        record.offset,
                        record.nblocks,
                    )
                )

    @classmethod
    def from_columns(
        cls,
        ops: array,
        hosts: array,
        threads: array,
        file_ids: array,
        offsets: array,
        nblocks: array,
        file_blocks: Sequence[int],
        warmup_records: int = 0,
        metadata: Optional[Dict[str, str]] = None,
    ) -> "Trace":
        """A trace backed by packed columns, one per record field.

        The arrays have the compiled typecodes (``B`` for ``ops``, 1
        for a write; ``Q`` for ``offsets``; ``I`` for the rest) and
        become the trace's.  Their rows must pass the record path's
        checks: a row covers at least one block (no field can be
        negative in an unsigned array), names a file the trace has and
        ends inside that file.  Otherwise the record path itself runs
        over the rows and raises its error for the first bad one.  The
        start-block column is derived here.
        """
        from repro.traces.compiled import CompiledTrace  # imports this module

        file_blocks = list(file_blocks)
        if nblocks and not (
            min(nblocks) >= 1
            and max(file_ids) < len(file_blocks)
            and all(map(le, map(add, offsets, nblocks), map(file_blocks.__getitem__, file_ids)))
        ):
            # raises the record path's error for the first bad row
            cls(records_from_rows(zip(ops, hosts, threads, file_ids, offsets, nblocks)), file_blocks)
        bases = _file_bases(file_blocks)
        starts = array("Q", map(add, map(bases.__getitem__, file_ids), offsets))
        return cls._over(
            CompiledTrace(
                ops,
                hosts,
                threads,
                file_ids,
                offsets,
                nblocks,
                starts,
                file_blocks,
                warmup_records,
                metadata or {},
            )
        )

    @classmethod
    def _over(cls, columns: "CompiledTrace") -> "Trace":
        """A trace backed by ``columns``, whose rows are already checked."""
        trace = cls.__new__(cls)
        trace._columns = columns
        trace.file_blocks = list(columns.file_blocks)
        trace.warmup_records = columns.warmup_records
        trace.metadata = dict(columns.metadata)
        trace._file_base = _file_bases(trace.file_blocks)
        return trace

    @cached_property
    def records(self) -> List[TraceRecord]:
        """The records in trace order.  A trace built from records holds
        them from the start; a columns-backed one builds them here, on
        first access."""
        return records_from_rows(self._columns.iter_records())

    # --- addressing ----------------------------------------------------

    def global_block(self, file_id: int, offset: int) -> int:
        """Flatten a (file, block-offset) pair to a global block number."""
        return self._file_base[file_id] + offset

    def record_blocks(self, record: TraceRecord) -> range:
        """The global block numbers a record covers."""
        start = self.global_block(record.file_id, record.offset)
        return range(start, start + record.nblocks)

    @property
    def total_file_blocks(self) -> int:
        """Size of the whole file-server model, in blocks."""
        return sum(self.file_blocks)

    # --- structure -------------------------------------------------------

    def __len__(self) -> int:
        columns = self._columns
        return len(self.records) if columns is None else len(columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def hosts(self) -> List[int]:
        """Sorted list of host ids appearing in the trace."""
        if self._columns is not None:
            return self._columns.hosts()
        return sorted({record.host for record in self.records})

    def threads_of(self, host: int) -> List[int]:
        """Sorted list of thread ids used by one host."""
        return sorted({r.thread for r in self.records if r.host == host})

    def issuers(self) -> List[Tuple[int, int]]:
        """Sorted distinct ``(host, thread)`` pairs — the concurrent
        issuer streams the replay engine will spawn (one simulation
        process each, at most one I/O in flight per stream)."""
        return sorted({(r.host, r.thread) for r in self.records})

    def split_by_issuer(self) -> Dict[Tuple[int, int], List[Tuple[int, TraceRecord]]]:
        """Group records by (host, thread), keeping each record's global
        index so the replay engine can tell warmup records apart."""
        groups: Dict[Tuple[int, int], List[Tuple[int, TraceRecord]]] = {}
        for index, record in enumerate(self.records):
            groups.setdefault((record.host, record.thread), []).append((index, record))
        return groups

    def without_warmup(self) -> "Trace":
        """The trace with the warmup records *removed* — this is the
        paper's cold-start / crash-at-start scenario (§7.8).

        Returns ``self`` when there is no warmup prefix: the result is
        treated as read-only by every caller, and copying a
        multi-million-record list to strip zero records doubles peak
        memory for nothing.
        """
        if self.warmup_records == 0:
            return self
        if self._columns is not None:
            return Trace._over(self._columns.without_warmup())
        return Trace(
            self.records[self.warmup_records :],
            self.file_blocks,
            warmup_records=0,
            metadata=dict(self.metadata),
        )

    def __getstate__(self) -> Dict[str, object]:
        # Pickle one form only: a trace built from records drops its
        # memoized compiled form, a columns-backed one any records it
        # built.  Either is cheap to rebuild on the other side.
        state = dict(self.__dict__)
        state.pop("_compiled_trace", None)
        if self._columns is not None:
            state.pop("records", None)
        return state

    @property
    def total_bytes(self) -> int:
        """Total data volume the trace moves."""
        return sum(record.nbytes for record in self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Trace %d records, %d files, warmup=%d>" % (
            len(self),
            len(self.file_blocks),
            self.warmup_records,
        )
