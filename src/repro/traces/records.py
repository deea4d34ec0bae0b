"""Trace records and the in-memory trace.

The paper's trace is six integers per operation: "a file and a range of
blocks within that file … a thread ID and host ID", and whether it
reads or writes.  A :class:`Trace` holds them as packed columns, one
:class:`array.array` per field (stdlib, no numpy), plus a derived
*global start block* column, so replay never recomputes the file-base
flattening:

* :attr:`Trace.fingerprint` hashes the raw column buffers;
* :meth:`Trace.to_bytes` / :meth:`Trace.from_buffer` are the one binary
  format: a flat blob that attaches **zero-copy** from a read-only map
  (the columns become typed :class:`memoryview` casts into it — see
  :mod:`repro.sweep`), and :func:`~repro.traces.format.save_trace`
  writes it;
* :meth:`Trace.issuer_plan` hands the replay engine per-thread rows with
  the warmup boundary pre-split, packed in typed arrays (about 14
  bytes per row; a list of row tuples took about 99).

A trace built from :class:`TraceRecord` objects (importers, tools,
hand-written traces) packs them once and keeps the list; one built by
:meth:`Trace.from_columns` (the generator, the fleet scenarios, the
binary loader) builds its records only when ``records`` is first read.
Both check every row with the same test and raise the same
:class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import struct
import sys
from array import array
from bisect import bisect_left
from collections import defaultdict
from operator import add, getitem, le
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro._gc import collector_paused
from repro._units import BLOCK_SIZE
from repro.errors import TraceFormatError

#: One record as ints: ``(op, host, thread, file_id, offset, nblocks)``,
#: ``op`` 1 for a write and 0 for a read (the packed columns' encoding).
Row = Tuple[int, int, int, int, int, int]

#: Magic prefix of the binary format produced by :meth:`Trace.to_bytes`.
COMPILED_MAGIC = b"RPCTRC\x001"

#: The packed columns, in serialization order: (name, array typecode).
#: ``start_blocks`` is derived (file base + offset) but serialized so a
#: zero-copy attach never has to recompute it.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("ops", "B"),
    ("hosts", "I"),
    ("threads", "I"),
    ("file_ids", "I"),
    ("offsets", "Q"),
    ("nblocks", "I"),
    ("start_blocks", "Q"),
)

#: Typecodes of the six record fields' columns, in row order
#: (:meth:`Trace.row_columns`, :meth:`Trace.from_columns`).  The content
#: fingerprint covers these six; ``start_blocks`` would only
#: double-hash ``file_ids`` and ``offsets``.
ROW_TYPECODES: Tuple[str, ...] = tuple(typecode for _name, typecode in _COLUMNS[:-1])

_HEADER_LEN = struct.Struct("<I")

#: Records :class:`Trace` packs per batch.
_PACK_BATCH = 4096


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
    become record objects (``Trace.records``)."""
    write, read = TraceOp.WRITE, TraceOp.READ
    # The records are acyclic; see repro._gc.
    with collector_paused():
        return [
            TraceRecord(write if op else read, host, thread, file_id, offset, nblocks)
            for op, host, thread, file_id, offset, nblocks in rows
        ]


def _pack_records(records: List[TraceRecord]) -> Tuple[array, ...]:
    """The six record columns of ``records``.

    List comprehensions over one batch at a time: about as fast as one
    comprehension per column (a generator or ``map(attrgetter)`` feed
    measured 1.5-1.7x slower on CPython 3.11, DESIGN.md §13), while
    each temporary list of int objects stays :data:`_PACK_BATCH` long
    however long the trace is.
    """
    columns = tuple(array(typecode) for typecode in ROW_TYPECODES)
    ops, hosts, threads, file_ids, offsets, nblocks = columns
    write = TraceOp.WRITE
    try:
        for low in range(0, len(records), _PACK_BATCH):
            batch = records[low : low + _PACK_BATCH]
            ops.fromlist([record.op is write for record in batch])
            hosts.fromlist([record.host for record in batch])
            threads.fromlist([record.thread for record in batch])
            file_ids.fromlist([record.file_id for record in batch])
            offsets.fromlist([record.offset for record in batch])
            nblocks.fromlist([record.nblocks for record in batch])
    except OverflowError as exc:
        raise TraceFormatError(
            "record field too large for its packed column: %s" % exc
        ) from exc
    return columns


def _check_rows(file_ids, offsets, nblocks, file_blocks: List[int]) -> None:
    """Raise the :class:`TraceRecord`/:class:`Trace` error for the first
    bad row: one that covers no block, names a file the trace lacks or
    ends past its file.

    The test runs at C level; only a failing trace takes the Python
    loop that names the row.  A zero-length row is reported first, as
    building its record would (no field can be negative in an unsigned
    column).
    """
    if not nblocks or (
        min(nblocks) >= 1
        and max(file_ids) < len(file_blocks)
        and all(map(le, map(add, offsets, nblocks), map(file_blocks.__getitem__, file_ids)))
    ):
        return
    if min(nblocks) < 1:
        raise TraceFormatError("record must cover >= 1 block, got 0")
    n_files = len(file_blocks)
    for index, (file_id, offset, count) in enumerate(zip(file_ids, offsets, nblocks)):
        if file_id >= n_files:
            raise TraceFormatError(
                "record %d references file %d but trace has %d files"
                % (index, file_id, n_files)
            )
        if offset + count > file_blocks[file_id]:
            raise TraceFormatError(
                "record %d overruns file %d (%d blocks): offset=%d n=%d"
                % (index, file_id, file_blocks[file_id], offset, count)
            )


def _file_bases(file_blocks: List[int]) -> List[int]:
    """The global block number at which each file starts."""
    return list(itertools.accumulate([0] + file_blocks[:-1])) if file_blocks else []


def _column_bytes_le(column) -> bytes:
    """A column's raw little-endian bytes (fingerprints and the wire
    format are defined little-endian so caches port across machines)."""
    if sys.byteorder == "little":
        if isinstance(column, array):
            return column.tobytes()
        return bytes(column)  # memoryview cast
    swapped = array(column.typecode, column)  # pragma: no cover - BE only
    swapped.byteswap()  # pragma: no cover - BE only
    return swapped.tobytes()  # pragma: no cover - BE only


def _array_from_le(typecode: str, data) -> array:
    """Decode a little-endian column buffer into an array (the inverse
    of :func:`_column_bytes_le`)."""
    column = array(typecode)
    column.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - BE only
        column.byteswap()
    return column


def _fingerprint_digest(
    metadata: Dict[str, str],
    n_records: int,
    warmup_records: int,
    file_blocks: List[int],
):
    """A sha256 fed the content fingerprint's preamble: the format tag,
    the metadata, the record and warmup counts and the geometry.  A
    :class:`Trace` and a chunked trace add their six record columns'
    bytes after it, so equal content hashes equal in either form."""
    digest = hashlib.sha256()
    digest.update(b"repro-ctrace-v1")
    digest.update(repr(sorted(metadata.items())).encode("utf-8"))
    digest.update(struct.pack("<QQ", n_records, warmup_records))
    if file_blocks:
        digest.update(struct.pack("<%dQ" % len(file_blocks), *file_blocks))
    return digest


def _is_count(value: object) -> bool:
    """True for a JSON integer that is not negative (``bool`` excluded)."""
    return type(value) is int and value >= 0


def _read_header(view: memoryview) -> Tuple[Dict, Dict[str, Tuple[int, int]]]:
    """Parse and check a binary trace's header.

    Returns the header and each column's ``(start, end)`` byte span in
    ``view``.  Every header that is not well formed raises
    :class:`TraceFormatError`: the required keys with their types, and a
    column table that lists each known column once, at its typecode,
    ``n_records`` items long and inside the body that follows the
    header.  The rows themselves are not checked here.
    """
    if bytes(view[: len(COMPILED_MAGIC)]) != COMPILED_MAGIC:
        raise TraceFormatError("not a binary trace (bad magic)")
    cursor = len(COMPILED_MAGIC)
    if len(view) < cursor + _HEADER_LEN.size:
        raise TraceFormatError("truncated binary trace")
    (header_len,) = _HEADER_LEN.unpack_from(view, cursor)
    cursor += _HEADER_LEN.size
    try:
        header = json.loads(bytes(view[cursor : cursor + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError("corrupt binary trace header: %s" % exc) from exc
    cursor += header_len
    cursor += (-cursor) % 8
    if not isinstance(header, dict):
        raise TraceFormatError("corrupt binary trace header: not an object")
    missing = {"n_records", "warmup", "file_blocks", "columns"} - set(header)
    if missing:
        raise TraceFormatError("binary trace header lacks %s" % sorted(missing))
    header.setdefault("metadata", {})
    n_records = header["n_records"]
    if not (
        _is_count(n_records)
        and type(header["warmup"]) is int
        and isinstance(header["file_blocks"], list)
        and all(map(_is_count, header["file_blocks"]))
        and isinstance(header["metadata"], dict)
        and isinstance(header["columns"], list)
    ):
        raise TraceFormatError("corrupt binary trace header: a field has the wrong type")
    expected = dict(_COLUMNS)
    spans: Dict[str, Tuple[int, int]] = {}
    for entry in header["columns"]:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise TraceFormatError("corrupt binary trace column entry %r" % (entry,))
        name, typecode, offset, length = entry
        if not isinstance(name, str) or expected.get(name) != typecode or name in spans:
            raise TraceFormatError(
                "unexpected binary trace column %r:%r" % (name, typecode)
            )
        if not (_is_count(offset) and _is_count(length)):
            raise TraceFormatError("corrupt binary trace column entry %r" % (entry,))
        if length != n_records * array(typecode).itemsize:
            raise TraceFormatError(
                "binary trace column %r holds %d bytes, expected %d records"
                % (name, length, n_records)
            )
        start = cursor + offset
        if start + length > len(view):
            raise TraceFormatError("truncated binary trace")
        spans[name] = (start, start + length)
    if len(spans) != len(expected):
        raise TraceFormatError(
            "binary trace lacks columns: %s" % sorted(set(expected) - set(spans))
        )
    return header, spans


class PlanRows:
    """One issuer's replay rows, packed as owned typed columns.

    ``ops`` (``B``), ``start_blocks`` (``Q``) and ``nblocks`` (``I``)
    hold 13 bytes per row.  Iterating yields the ``(op, start_block,
    nblocks)`` int tuples the ``System`` replay drivers consume, in trace
    order; the container is re-iterable and sized, like a list of those
    tuples.  The arrays are copies, never views into an attached
    buffer, so the rows outlive :meth:`Trace.release`.
    """

    __slots__ = ("ops", "start_blocks", "nblocks")

    def __init__(self, ops: array, start_blocks: array, nblocks: array) -> None:
        self.ops = ops
        self.start_blocks = start_blocks
        self.nblocks = nblocks

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        return zip(self.ops, self.start_blocks, self.nblocks)


class Trace:
    """An ordered sequence of records plus the file geometry they address.

    ``file_blocks[f]`` is the size of file ``f`` in 4 KB blocks; the
    trace uses it to flatten ``(file, offset)`` pairs into *global*
    block numbers, which is the namespace the caches operate in.

    ``warmup_records`` is the count of leading records forming the
    warmup phase ("half of it being devoted to a warmup period for
    which statistics are not collected").

    The rows live in seven columns: ``ops`` (``B``, 1 for a write),
    ``hosts_col``, ``threads_col``, ``file_ids`` and ``nblocks`` (``I``),
    ``offsets`` and the derived ``start_blocks`` (``Q``).  They are
    owning :class:`array.array`\\ s, or typed :class:`memoryview` casts
    into an external buffer (:meth:`from_buffer`); both index, slice
    and iterate alike.  A trace's content must not be changed once
    built: the fingerprint and the issuer plan are memoized.
    """

    __slots__ = (
        "ops",
        "hosts_col",
        "threads_col",
        "file_ids",
        "offsets",
        "nblocks",
        "start_blocks",
        "file_blocks",
        "warmup_records",
        "metadata",
        "_file_base",
        "_records",
        "_fingerprint",
        "_plan",
        "_views",
    )

    def __init__(
        self,
        records: Sequence[TraceRecord],
        file_blocks: Sequence[int],
        warmup_records: int = 0,
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        records = list(records)
        self._set_rows(_pack_records(records), file_blocks, warmup_records, metadata, records)

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
        """A trace over packed columns, one per record field.

        The arrays have the typecodes of :data:`ROW_TYPECODES` (``B``
        for ``ops``, 1 for a write; ``Q`` for ``offsets``; ``I`` for the
        rest) and become the trace's.  Their rows pass the same checks
        as records passed to the constructor, with the same errors; the
        start-block column is derived here.  Records are built only if
        ``records`` is read.
        """
        trace = cls.__new__(cls)
        trace._set_rows(
            (ops, hosts, threads, file_ids, offsets, nblocks),
            file_blocks,
            warmup_records,
            metadata,
        )
        return trace

    def _set_rows(self, rows, file_blocks, warmup_records, metadata, records=None) -> None:
        """Check the six record columns' rows against the geometry,
        derive the start column and take all seven."""
        file_blocks = list(file_blocks)
        _ops, _hosts, _threads, file_ids, offsets, nblocks = rows
        _check_rows(file_ids, offsets, nblocks, file_blocks)
        bases = _file_bases(file_blocks)
        starts = array("Q", map(add, map(bases.__getitem__, file_ids), offsets))
        self._set(
            tuple(rows) + (starts,), file_blocks, bases, warmup_records, metadata, records
        )

    def _set(
        self, columns, file_blocks, bases, warmup_records, metadata, records=None, views=None
    ) -> None:
        """Take the seven columns (rows already checked), the geometry
        with its file bases, the records if they exist, and the rest."""
        n = len(columns[0])
        for (name, _typecode), column in zip(_COLUMNS, columns):
            if len(column) != n:
                raise TraceFormatError(
                    "trace column %r has %d entries, expected %d" % (name, len(column), n)
                )
        if not 0 <= warmup_records <= n:
            raise TraceFormatError(
                "warmup_records %d out of range for %d records" % (warmup_records, n)
            )
        (
            self.ops,
            self.hosts_col,
            self.threads_col,
            self.file_ids,
            self.offsets,
            self.nblocks,
            self.start_blocks,
        ) = columns
        self.file_blocks: List[int] = list(file_blocks)
        self._file_base = bases
        self.warmup_records = warmup_records
        self.metadata: Dict[str, str] = dict(metadata or {})
        self._records: Optional[List[TraceRecord]] = records
        self._fingerprint: Optional[str] = None
        self._plan: Optional[list] = None
        self._views: List[memoryview] = views or []

    @property
    def records(self) -> List[TraceRecord]:
        """The records in trace order.  A trace built from records holds
        them from the start; any other builds them here, on first
        access."""
        records = self._records
        if records is None:
            records = self._records = records_from_rows(self.iter_records())
        return records

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
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def hosts(self) -> List[int]:
        """Sorted list of host ids appearing in the trace."""
        return sorted(set(self.hosts_col))

    def threads_of(self, host: int) -> List[int]:
        """Sorted list of thread ids used by one host."""
        return sorted({t for h, t in zip(self.hosts_col, self.threads_col) if h == host})

    def issuers(self) -> List[Tuple[int, int]]:
        """Sorted distinct ``(host, thread)`` pairs — the concurrent
        issuer streams the replay engine will spawn (one simulation
        process each, at most one I/O in flight per stream)."""
        return sorted(set(zip(self.hosts_col, self.threads_col)))

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

        Returns ``self`` when there is nothing to strip.  Otherwise the
        columns are sliced: memoryview columns slice into further views
        of the same buffer, so stripping an attached trace stays
        zero-copy.
        """
        w = self.warmup_records
        if w == 0:
            return self
        stripped = Trace.__new__(Trace)
        stripped._set(
            tuple(column[w:] for column in self.row_columns() + (self.start_blocks,)),
            self.file_blocks,
            self._file_base,
            0,
            self.metadata,
        )
        return stripped

    def warmup_blocks(self) -> int:
        """Total block volume of the warmup prefix."""
        return sum(self.nblocks[: self.warmup_records])

    def row_columns(self) -> Tuple:
        """The six record fields' columns, in :meth:`from_columns` order
        (``start_blocks`` is derived from them)."""
        return (
            self.ops,
            self.hosts_col,
            self.threads_col,
            self.file_ids,
            self.offsets,
            self.nblocks,
        )

    def iter_records(self) -> Iterator[Row]:
        """``(op, host, thread, file_id, offset, nblocks)`` per row, in
        trace order."""
        return zip(*self.row_columns())

    @property
    def total_bytes(self) -> int:
        """Total data volume the trace moves."""
        return sum(self.nblocks) * BLOCK_SIZE

    # --- replay plan ----------------------------------------------------

    def issuer_plan(self) -> List[Tuple[int, int, PlanRows, PlanRows]]:
        """Rows grouped per (host, thread) with the warmup prefix split.

        Returns ``[(host, thread, warmup_rows, measured_rows), ...]``
        sorted by ``(host, thread)``.  Each row container is a
        :class:`PlanRows` that yields ``(op, start_block, nblocks)`` int
        tuples in trace order, matching :meth:`split_by_issuer`
        exactly.  The rows are gathered from the columns through a
        per-issuer index array; the plan holds about 14 bytes per row
        (13 in the three typed columns plus array growth slack), where
        a list of row tuples held about 99.

        The plan is memoized: sweep workers replay one cached trace for
        many points, and the replay loop only reads the rows, so the
        first replay's plan serves all later ones.
        """
        if self._plan is not None:
            return self._plan
        groups: Dict[Tuple[int, int], array] = defaultdict(lambda: array("Q"))
        for index, key in enumerate(zip(self.hosts_col, self.threads_col)):
            groups[key].append(index)
        warmup = self.warmup_records
        plan = []
        for key in sorted(groups):
            # Popped so each index array is freed once its rows exist;
            # the view splits it without a copy.
            indices = memoryview(groups.pop(key))
            # Indices are ascending, so the warmup prefix is contiguous.
            split = bisect_left(indices, warmup)
            plan.append(
                (
                    key[0],
                    key[1],
                    self._gather_rows(indices[:split]),
                    self._gather_rows(indices[split:]),
                )
            )
        self._plan = plan
        return plan

    def _gather_rows(self, indices: memoryview) -> PlanRows:
        """The rows at ``indices``, copied into owned typed arrays."""
        return PlanRows(
            array("B", map(getitem, itertools.repeat(self.ops), indices)),
            array("Q", map(getitem, itertools.repeat(self.start_blocks), indices)),
            array("I", map(getitem, itertools.repeat(self.nblocks), indices)),
        )

    # --- fingerprint ----------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Stable content hash (records, geometry, warmup, metadata) over
        the raw column buffers: a few digest updates over flat buffers,
        memoized, so a trace reused across dozens of sweep points is
        hashed once.  Equal content hashes equal however the trace was
        built, attached or sliced, and in its chunked form too.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        digest = _fingerprint_digest(
            self.metadata, len(self), self.warmup_records, self.file_blocks
        )
        for column in self.row_columns():
            digest.update(_column_bytes_le(column))
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # --- binary format --------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize into one flat blob: magic, JSON header, then the
        seven raw column buffers (8-byte aligned, little-endian), 33
        bytes per record."""
        column_table = []
        chunks: List[bytes] = []
        offset = 0
        columns = self.row_columns() + (self.start_blocks,)
        for (name, typecode), column in zip(_COLUMNS, columns):
            payload = _column_bytes_le(column)
            column_table.append([name, typecode, offset, len(payload)])
            pad = (-(offset + len(payload))) % 8
            chunks.append(payload)
            chunks.append(b"\x00" * pad)
            offset += len(payload) + pad
        header = json.dumps(
            {
                "n_records": len(self),
                "warmup": self.warmup_records,
                "file_blocks": self.file_blocks,
                "metadata": self.metadata,
                "columns": column_table,
            }
        ).encode("utf-8")
        head = COMPILED_MAGIC + _HEADER_LEN.pack(len(header)) + header
        pad = (-len(head)) % 8
        return b"".join([head, b"\x00" * pad] + chunks)

    @classmethod
    def from_buffer(cls, buffer) -> "Trace":
        """Attach to a serialized blob **without copying** the columns.

        ``buffer`` is any buffer-protocol object (in a sweep worker, a
        read-only ``mmap`` of the trace file the sweep itself wrote);
        the columns become typed ``memoryview`` casts into it.  The
        header is checked; the rows and the stored start column are
        trusted, so attach only blobs this program wrote and load any
        other with :meth:`from_bytes`.  Call :meth:`release`
        before the buffer is closed.  Only zero-copy on little-endian
        hosts (everything common); big-endian falls back to a copy.
        """
        if sys.byteorder != "little":  # pragma: no cover - BE only
            return cls.from_bytes(buffer)
        views = [memoryview(buffer)]
        try:
            header, spans = _read_header(views[0])
            for name, typecode in _COLUMNS:
                start, end = spans[name]
                views.append(views[0][start:end].cast(typecode))
            trace = cls.__new__(cls)
            file_blocks = header["file_blocks"]
            trace._set(
                views[1:],
                file_blocks,
                _file_bases(file_blocks),
                header["warmup"],
                header["metadata"],
                views=views,
            )
        except BaseException:
            # A live view pins the buffer: release them all, so the
            # caller can close a map that failed to attach.
            for view in reversed(views):
                view.release()
            raise
        return trace

    @classmethod
    def from_bytes(cls, data) -> "Trace":
        """Load a serialized blob into *owning* columns.

        The six record columns are copied into arrays and go through
        :meth:`from_columns`, which checks every row against the stored
        geometry and derives the start column afresh: a file on disk
        (:func:`~repro.traces.format.load_trace`) or a pickle is never
        trusted to hold a consistent start column.
        """
        with memoryview(data) as view:
            header, spans = _read_header(view)
            rows = [
                _array_from_le(typecode, view[spans[name][0] : spans[name][1]])
                for name, typecode in _COLUMNS[:-1]
            ]
        return cls.from_columns(
            *rows, header["file_blocks"], header["warmup"], header["metadata"]
        )

    def release(self) -> None:
        """Release the memoryviews into an external buffer, so the
        buffer (a worker's ``mmap``) can be closed: a live view pins it,
        and closing it first raises ``BufferError``.  The trace must not
        be used afterwards.  No-op for owning (array) traces."""
        views, self._views = self._views, []
        for view in reversed(views):
            view.release()

    def __reduce__(self):
        # Pickle via the binary format: memoryview columns are not
        # picklable, and the flat blob is smaller than a pickled object
        # graph anyway.
        return (Trace.from_bytes, (self.to_bytes(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Trace %d records, %d files, warmup=%d>" % (
            len(self),
            len(self.file_blocks),
            self.warmup_records,
        )


#: The name the packed form had when it was a class of its own; the
#: ledger still imports it.
CompiledTrace = Trace


def compile_trace(trace: Trace) -> Trace:
    """``trace`` itself: every :class:`Trace` is its packed columns.
    Kept for the ledger, which still calls it."""
    return trace
