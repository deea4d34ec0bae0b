"""Chunked compiled traces: the bounded-memory streaming trace form.

A :class:`~repro.traces.records.Trace` holds no per-record objects but
still holds every column in RAM, so peak memory is O(trace length) —
the wall ROADMAP item 3 names.  Week-long
production block traces (MSR Cambridge, SPC) and "millions of users"
synthetic runs do not fit that model.

:class:`ChunkedCompiledTrace` keeps the *same* record content in an
on-disk **spool directory** and holds only a bounded window of it in
memory at a time:

``manifest.json``
    geometry (``file_blocks``), warmup counts, metadata, the chunk
    index, the per-issuer run table, and the content fingerprint.

``chunks.bin``
    the six *stored* columns of a trace (``ops``,
    ``hosts``, ``threads``, ``file_ids``, ``offsets``, ``nblocks`` —
    25 bytes/record, little-endian), concatenated chunk by chunk.
    ``start_blocks`` stays derived.

``rows.bin``
    replay rows ``(op, start_block, nblocks)`` packed as ``<BQI``
    (13 bytes/row), grouped into per-issuer *runs* of at most
    :data:`RUN_ROWS` rows.  :meth:`ChunkedCompiledTrace.issuer_plan`
    hands the replay engine lazy row streams over these runs, so the
    replay drivers in ``System`` run unchanged while peak memory stays
    at one run buffer per issuer.

:class:`ChunkedTraceWriter` is the producer side: ``tracegen`` and the
streaming importers append records one at a time (never building
``TraceRecord`` objects), each full chunk is flushed to the spool, and
:meth:`ChunkedTraceWriter.freeze` resolves the file geometry (deferred
for importers, fixed for tracegen), partitions rows per issuer, and
writes the manifest.

The content fingerprint is **bit-identical** to
:attr:`Trace.fingerprint <repro.traces.records.Trace.fingerprint>` for
the same records — the digest is
fed the same header and the same column bytes in the same order, just
read back from the spool in column-ordered passes.  That makes chunked
traces first-class citizens of the sweep result cache and of the
signature-drift gates (``repro.validation.differential``,
``benchmarks/replay_hotpath.py``).

Chunk size defaults to :data:`DEFAULT_CHUNK_RECORDS` records (a
writer's ``chunk_records`` sets another); see ``docs/SCALING.md``
("Streaming traces and bounded-memory replay") for the memory model.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import struct
import tempfile
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import TraceFormatError
from repro.traces.records import (
    ROW_TYPECODES,
    Trace,
    _array_from_le,
    _column_bytes_le,
    _file_bases,
    _fingerprint_digest,
)

__all__ = [
    "ChunkedCompiledTrace",
    "ChunkedTraceWriter",
    "DEFAULT_CHUNK_RECORDS",
    "RUN_ROWS",
]

#: Records per columnar chunk (the unit of spool I/O and of peak
#: memory).  25 bytes/record stored, so the default is ~1.6 MB chunks.
DEFAULT_CHUNK_RECORDS = 65_536

#: Rows per issuer run in ``rows.bin``: the replay-side memory unit.
#: A stream holds at most one run buffer (13 B/row, ~106 KB) at a time.
RUN_ROWS = 8192

MANIFEST_NAME = "manifest.json"
CHUNKS_NAME = "chunks.bin"
ROWS_NAME = "rows.bin"
_MANIFEST_VERSION = 1

#: The stored columns in spool order: (name, typecode, width).  Must
#: stay aligned with ``repro.traces.records.ROW_TYPECODES`` — the
#: fingerprint hashes these bytes in exactly this order.
_CHUNK_COLUMNS: Tuple[Tuple[str, str, int], ...] = (
    ("ops", "B", 1),
    ("hosts", "I", 4),
    ("threads", "I", 4),
    ("file_ids", "I", 4),
    ("offsets", "Q", 8),
    ("nblocks", "I", 4),
)

_RECORD_BYTES = sum(width for _name, _tc, width in _CHUNK_COLUMNS)

_ROW = struct.Struct("<BQI")  # (op, start_block, nblocks)
_ROW_BYTES = _ROW.size


def _column_offsets(n: int) -> Dict[str, Tuple[int, int]]:
    """Byte (offset, length) of each column within an ``n``-record chunk."""
    offsets: Dict[str, Tuple[int, int]] = {}
    cursor = 0
    for name, _tc, width in _CHUNK_COLUMNS:
        offsets[name] = (cursor, n * width)
        cursor += n * width
    return offsets


def _read_chunk(spool_dir: Path, chunk_offset: int, n: int) -> Tuple[List[int], ...]:
    """The six stored columns of the ``n``-record chunk at
    ``chunk_offset`` in ``spool_dir``'s ``chunks.bin``, as int lists."""
    with open(spool_dir / CHUNKS_NAME, "rb") as handle:
        handle.seek(chunk_offset)
        data = handle.read(n * _RECORD_BYTES)
    if len(data) != n * _RECORD_BYTES:
        raise TraceFormatError("truncated chunk spool in %s" % spool_dir)
    offsets = _column_offsets(n)
    return tuple(
        _array_from_le(
            tc, data[offsets[name][0] : offsets[name][0] + offsets[name][1]]
        ).tolist()
        for name, tc, _width in _CHUNK_COLUMNS
    )


# Temp spools created for anonymous writers: removed at interpreter
# exit if the owner never called delete() (crash-safety net, not the
# primary cleanup path).
_TEMP_SPOOLS: set = set()


def _cleanup_temp_spools() -> None:  # pragma: no cover - exit hook
    for path in list(_TEMP_SPOOLS):
        shutil.rmtree(path, ignore_errors=True)


atexit.register(_cleanup_temp_spools)


class ChunkedTraceWriter:
    """Streaming producer of a chunked-trace spool.

    ``file_blocks`` fixes the geometry up front (tracegen: the
    file-system model is known before the first record).  ``None``
    defers it — the geometry grows to cover every extent seen, with
    the same "starts at 1 block, grows to the largest end block" rule
    as ``TraceBuilder`` — and freezes at :meth:`freeze` (importers:
    the geometry is only known after the last line).

    Records are appended one at a time; every ``chunk_records`` of
    them are packed into a columnar chunk and flushed to
    ``chunks.bin``, so writer memory is O(chunk), never O(trace).
    """

    def __init__(
        self,
        file_blocks: Optional[Sequence[int]] = None,
        *,
        spool_dir: Union[None, str, Path] = None,
        chunk_records: Optional[int] = None,
    ) -> None:
        if chunk_records is None:
            chunk_records = DEFAULT_CHUNK_RECORDS
        if chunk_records < 1:
            raise TraceFormatError(
                "chunk_records must be >= 1, got %d" % chunk_records
            )
        self._chunk_records = chunk_records
        self._deferred_geometry = file_blocks is None
        self._file_blocks: List[int] = [] if file_blocks is None else list(file_blocks)
        if not self._deferred_geometry:
            for index, blocks in enumerate(self._file_blocks):
                if blocks < 1:
                    raise TraceFormatError(
                        "file %d has non-positive size %d blocks" % (index, blocks)
                    )
        if spool_dir is None:
            self._spool_dir = Path(tempfile.mkdtemp(prefix="repro-ctrace-"))
            self._owns_temp = True
            _TEMP_SPOOLS.add(str(self._spool_dir))
        else:
            self._spool_dir = Path(spool_dir)
            self._spool_dir.mkdir(parents=True, exist_ok=True)
            if (self._spool_dir / MANIFEST_NAME).exists():
                raise TraceFormatError(
                    "spool directory %s already holds a chunked trace"
                    % self._spool_dir
                )
            self._owns_temp = False
        self._chunks_file = open(self._spool_dir / CHUNKS_NAME, "wb")
        self._chunk_index: List[Tuple[int, int]] = []  # (byte offset, records)
        self._chunk_bytes = 0
        self._n_records = 0
        self._frozen = False
        self._reset_columns()

    def _reset_columns(self) -> None:
        self._ops = array("B")
        self._hosts = array("I")
        self._threads = array("I")
        self._file_ids = array("I")
        self._offsets = array("Q")
        self._nblocks = array("I")

    @property
    def spool_dir(self) -> Path:
        return self._spool_dir

    def __len__(self) -> int:
        return self._n_records

    def append(
        self,
        is_write: bool,
        host: int,
        thread: int,
        file_id: int,
        offset: int,
        nblocks: int,
    ) -> None:
        """Append one record (same field semantics as ``TraceRecord``)."""
        if self._frozen:
            raise TraceFormatError("writer is frozen; no further appends")
        if nblocks < 1:
            raise TraceFormatError(
                "record must cover >= 1 block, got %d" % nblocks
            )
        if min(host, thread, file_id, offset) < 0:
            raise TraceFormatError("record fields must be non-negative")
        if self._deferred_geometry:
            file_blocks = self._file_blocks
            while len(file_blocks) <= file_id:
                file_blocks.append(1)
            end = offset + nblocks
            if end > file_blocks[file_id]:
                file_blocks[file_id] = end
        else:
            if file_id >= len(self._file_blocks):
                raise TraceFormatError(
                    "record references file %d but the geometry has %d files"
                    % (file_id, len(self._file_blocks))
                )
            if offset + nblocks > self._file_blocks[file_id]:
                raise TraceFormatError(
                    "record overruns file %d (%d blocks): offset=%d n=%d"
                    % (file_id, self._file_blocks[file_id], offset, nblocks)
                )
        try:
            self._ops.append(1 if is_write else 0)
            self._hosts.append(host)
            self._threads.append(thread)
            self._file_ids.append(file_id)
            self._offsets.append(offset)
            self._nblocks.append(nblocks)
        except OverflowError as exc:
            raise TraceFormatError(
                "record field too large for its packed column: %s" % exc
            ) from exc
        self._n_records += 1
        if len(self._ops) >= self._chunk_records:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        n = len(self._ops)
        if n == 0:
            return
        for column in (
            self._ops,
            self._hosts,
            self._threads,
            self._file_ids,
            self._offsets,
            self._nblocks,
        ):
            self._chunks_file.write(_column_bytes_le(column))
        self._chunk_index.append((self._chunk_bytes, n))
        self._chunk_bytes += n * _RECORD_BYTES
        self._reset_columns()

    def abort(self) -> None:
        """Discard the spool (error paths; freeze() is the happy path)."""
        if not self._chunks_file.closed:
            self._chunks_file.close()
        if self._owns_temp:
            _TEMP_SPOOLS.discard(str(self._spool_dir))
            shutil.rmtree(self._spool_dir, ignore_errors=True)

    def freeze(
        self,
        warmup_records: int = 0,
        metadata: Optional[Dict[str, str]] = None,
    ) -> "ChunkedCompiledTrace":
        """Resolve the geometry, partition rows per issuer, write the
        manifest, and open the finished trace.

        This is the single full pass over the spooled chunks: it
        computes the derived ``start_blocks`` (file base + offset) for
        every record and lays them out as per-issuer runs in
        ``rows.bin``, so replay never touches the columnar chunks.
        """
        if self._frozen:
            raise TraceFormatError("writer already frozen")
        self._flush_chunk()
        self._chunks_file.close()
        self._frozen = True
        if not 0 <= warmup_records <= self._n_records:
            raise TraceFormatError(
                "warmup_records %d out of range for %d records"
                % (warmup_records, self._n_records)
            )
        file_base = _file_bases(self._file_blocks)

        issuer_of: Dict[Tuple[int, int], int] = {}
        issuers: List[List] = []  # [host, thread, warmup_rows, n_rows, runs]
        buffers: List[bytearray] = []
        buffered: List[int] = []
        run_bytes = RUN_ROWS * _ROW_BYTES
        pack = _ROW.pack
        warmup_blocks = 0
        global_index = 0

        with open(self._spool_dir / ROWS_NAME, "wb") as rows_file:
            rows_offset = 0

            def flush_run(index: int) -> None:
                nonlocal rows_offset
                buf = buffers[index]
                if not buf:
                    return
                rows_file.write(buf)
                issuers[index][4].append([rows_offset, buffered[index]])
                rows_offset += len(buf)
                buffers[index] = bytearray()
                buffered[index] = 0

            for chunk_offset, n in self._chunk_index:
                (
                    ops,
                    hosts,
                    threads,
                    file_ids,
                    offsets,
                    nblocks,
                ) = _read_chunk(self._spool_dir, chunk_offset, n)
                for op, host, thread, fid, offset, nb in zip(
                    ops, hosts, threads, file_ids, offsets, nblocks
                ):
                    key = (host, thread)
                    index = issuer_of.get(key)
                    if index is None:
                        index = len(issuers)
                        issuer_of[key] = index
                        issuers.append([host, thread, 0, 0, []])
                        buffers.append(bytearray())
                        buffered.append(0)
                    buffers[index] += pack(op, file_base[fid] + offset, nb)
                    buffered[index] += 1
                    issuers[index][3] += 1
                    if global_index < warmup_records:
                        issuers[index][2] += 1
                        warmup_blocks += nb
                    if buffered[index] >= RUN_ROWS:
                        flush_run(index)
                    global_index += 1
            for index in range(len(issuers)):
                flush_run(index)

        issuers.sort(key=lambda entry: (entry[0], entry[1]))
        fingerprint = _spool_fingerprint(
            self._spool_dir / CHUNKS_NAME,
            self._chunk_index,
            self._n_records,
            warmup_records,
            self._file_blocks,
            dict(metadata or {}),
        )
        manifest = {
            "version": _MANIFEST_VERSION,
            "n_records": self._n_records,
            "warmup_records": warmup_records,
            "warmup_blocks": warmup_blocks,
            "file_blocks": self._file_blocks,
            "metadata": dict(metadata or {}),
            "chunk_records": self._chunk_records,
            "chunks": [list(entry) for entry in self._chunk_index],
            "issuers": issuers,
            "fingerprint": fingerprint,
        }
        manifest_path = self._spool_dir / MANIFEST_NAME
        tmp_path = self._spool_dir / (MANIFEST_NAME + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        os.replace(tmp_path, manifest_path)
        trace = ChunkedCompiledTrace.open(self._spool_dir)
        trace._owns_temp = self._owns_temp
        return trace


def _spool_fingerprint(
    chunks_path: Path,
    chunk_index: Sequence[Tuple[int, int]],
    n_records: int,
    warmup_records: int,
    file_blocks: Sequence[int],
    metadata: Dict[str, str],
    skip_records: int = 0,
) -> str:
    """The content fingerprint of a chunk spool — **bit-identical** to
    :attr:`Trace.fingerprint` over the same records.

    The digest sees the same preamble and the same column bytes in the
    same order as the in-memory form; the only difference is that each
    column is gathered chunk by chunk from disk (one seek pass per
    column) instead of from one flat buffer.  ``skip_records`` drops a
    record prefix, matching the fingerprint of the materialized
    ``without_warmup()`` form.
    """
    digest = _fingerprint_digest(
        metadata, n_records - skip_records, warmup_records, file_blocks
    )
    with open(chunks_path, "rb") as handle:
        for name, _tc, width in _CHUNK_COLUMNS:
            chunk_start = 0
            for chunk_offset, n in chunk_index:
                drop = min(max(skip_records - chunk_start, 0), n)
                chunk_start += n
                if drop == n:
                    continue
                column_offset, _length = _column_offsets(n)[name]
                handle.seek(chunk_offset + column_offset + drop * width)
                payload = handle.read((n - drop) * width)
                if len(payload) != (n - drop) * width:
                    raise TraceFormatError("truncated chunk spool")
                digest.update(payload)
    return digest.hexdigest()


class _RowStream:
    """A re-iterable, lazily-read stream of replay rows.

    Each iteration reads the issuer's runs from ``rows.bin`` one run
    buffer at a time (≤ ``RUN_ROWS`` × 13 bytes held at once) and
    yields ``(op, start_block, nblocks)`` int tuples — exactly the row
    shape the ``System`` replay drivers consume.  Re-iterable
    because sweep workers replay one cached trace for many points.
    """

    __slots__ = ("_trace", "_runs", "_skip_rows", "_n_rows")

    def __init__(self, trace, runs, skip_rows, n_rows):
        self._trace = trace
        self._runs = runs
        self._skip_rows = skip_rows
        self._n_rows = n_rows

    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        remaining = self._n_rows
        if remaining <= 0:
            return
        to_skip = self._skip_rows
        read_rows = self._trace._read_rows
        for run_offset, run_rows in self._runs:
            if remaining <= 0:
                return
            if to_skip >= run_rows:
                to_skip -= run_rows
                continue
            take = min(run_rows - to_skip, remaining)
            buffer = read_rows(run_offset + to_skip * _ROW_BYTES, take * _ROW_BYTES)
            to_skip = 0
            remaining -= take
            yield from _ROW.iter_unpack(buffer)


class ChunkedCompiledTrace:
    """A compiled trace living in a spool directory, replayed with
    peak memory bounded by chunk/run size instead of trace length.

    Mirrors the :class:`Trace` surface the simulation driver uses
    (``__len__``, ``hosts()``, ``warmup_blocks()``,
    ``without_warmup()``, ``issuer_plan()``, ``iter_records()``,
    ``fingerprint``, ``total_file_blocks``), so
    :func:`repro.run_simulation` and :mod:`repro.sweep` accept it
    anywhere they accept a :class:`Trace`.  Pickles as its spool path —
    sweep workers on the same machine reopen the spool instead of
    shipping records.
    """

    __slots__ = (
        "spool_dir",
        "file_blocks",
        "metadata",
        "_n_records",
        "_warmup_records",
        "_warmup_blocks",
        "_chunk_index",
        "_issuers",
        "_chunk_records",
        "_stored_fingerprint",
        "_skip",
        "_fingerprint",
        "_plan",
        "_rows_handle",
        "_owns_temp",
    )

    def __init__(self, spool_dir: Path, manifest: Dict, skip: int = 0) -> None:
        self.spool_dir = Path(spool_dir)
        if manifest.get("version") != _MANIFEST_VERSION:
            raise TraceFormatError(
                "unsupported chunked trace manifest version %r in %s"
                % (manifest.get("version"), spool_dir)
            )
        self.file_blocks: List[int] = list(manifest["file_blocks"])
        self.metadata: Dict[str, str] = dict(manifest["metadata"])
        self._n_records: int = manifest["n_records"]
        self._warmup_records: int = manifest["warmup_records"]
        self._warmup_blocks: int = manifest["warmup_blocks"]
        self._chunk_index: List[Tuple[int, int]] = [
            (entry[0], entry[1]) for entry in manifest["chunks"]
        ]
        self._issuers: List[Tuple[int, int, int, int, List[Tuple[int, int]]]] = [
            (
                entry[0],
                entry[1],
                entry[2],
                entry[3],
                [(run[0], run[1]) for run in entry[4]],
            )
            for entry in manifest["issuers"]
        ]
        self._chunk_records: int = manifest.get(
            "chunk_records", DEFAULT_CHUNK_RECORDS
        )
        self._stored_fingerprint: str = manifest["fingerprint"]
        if not 0 <= skip <= self._n_records:
            raise TraceFormatError(
                "skip %d out of range for %d records" % (skip, self._n_records)
            )
        self._skip = skip
        self._fingerprint: Optional[str] = None
        self._plan: Optional[list] = None
        self._rows_handle = None
        self._owns_temp = False

    @classmethod
    def open(
        cls, spool_dir: Union[str, Path], skip: int = 0
    ) -> "ChunkedCompiledTrace":
        """Open an existing spool directory."""
        spool_dir = Path(spool_dir)
        manifest_path = spool_dir / MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise TraceFormatError(
                "%s is not a chunked trace spool (no %s)"
                % (spool_dir, MANIFEST_NAME)
            )
        except ValueError as exc:
            raise TraceFormatError(
                "corrupt chunked trace manifest %s: %s" % (manifest_path, exc)
            ) from exc
        return cls(spool_dir, manifest, skip=skip)

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        *,
        spool_dir: Union[None, str, Path] = None,
        chunk_records: Optional[int] = None,
    ) -> "ChunkedCompiledTrace":
        """Spool an in-memory trace into the chunked representation.
        Content-preserving: the result's fingerprint equals
        ``trace.fingerprint``."""
        writer = ChunkedTraceWriter(
            trace.file_blocks, spool_dir=spool_dir, chunk_records=chunk_records
        )
        try:
            append = writer.append
            for op, host, thread, fid, offset, nb in trace.iter_records():
                append(bool(op), host, thread, fid, offset, nb)
            return writer.freeze(trace.warmup_records, dict(trace.metadata))
        except BaseException:
            writer.abort()
            raise

    # --- Trace-compatible surface --------------------------------------

    def __len__(self) -> int:
        return self._n_records - self._skip

    @property
    def warmup_records(self) -> int:
        return 0 if self._skip else self._warmup_records

    @property
    def total_file_blocks(self) -> int:
        return sum(self.file_blocks)

    def hosts(self) -> List[int]:
        """Sorted list of host ids appearing in the (remaining) trace."""
        if self._skip:
            return sorted(
                {
                    host
                    for host, _thread, w_rows, n_rows, _runs in self._issuers
                    if n_rows - w_rows > 0
                }
            )
        return sorted({host for host, *_rest in self._issuers})

    def warmup_blocks(self) -> int:
        """Total block volume of the warmup prefix."""
        return 0 if self._skip else self._warmup_blocks

    def without_warmup(self) -> "ChunkedCompiledTrace":
        """The trace with warmup records removed (cold start, §7.8).

        Chunked traces strip warmup by *offsetting into the spool*
        (each issuer stream starts after its warmup rows) — no data is
        copied or rewritten, matching the zero-copy slicing of an
        in-memory :class:`Trace`.
        """
        if self.warmup_records == 0:
            return self
        stripped = ChunkedCompiledTrace.open(
            self.spool_dir, skip=self._warmup_records
        )
        return stripped

    # --- replay plan ----------------------------------------------------

    def issuer_plan(self):
        """Per-(host, thread) lazy row streams with the warmup split.

        Same contract as :meth:`Trace.issuer_plan` — sorted by
        ``(host, thread)``, rows in trace order, warmup prefix split —
        but the row containers are :class:`_RowStream` objects that
        read run buffers from ``rows.bin`` on demand instead of
        materialized tuple lists.  The replay hot loop only ever
        iterates the containers, so it runs unchanged; memory stays at
        one run buffer per concurrently-replaying issuer.
        """
        if self._plan is not None:
            return self._plan
        plan = []
        if self._skip:
            for host, thread, w_rows, n_rows, runs in self._issuers:
                measured = n_rows - w_rows
                if measured <= 0:
                    # An issuer confined to the stripped warmup prefix
                    # does not exist in the cold-start trace — the
                    # materialized path drops it the same way, keeping
                    # spawn order and thread accounting identical.
                    continue
                plan.append(
                    (
                        host,
                        thread,
                        _RowStream(self, runs, 0, 0),
                        _RowStream(self, runs, w_rows, measured),
                    )
                )
        else:
            for host, thread, w_rows, n_rows, runs in self._issuers:
                plan.append(
                    (
                        host,
                        thread,
                        _RowStream(self, runs, 0, w_rows),
                        _RowStream(self, runs, w_rows, n_rows - w_rows),
                    )
                )
        self._plan = plan
        return plan

    def _read_rows(self, offset: int, nbytes: int) -> bytes:
        handle = self._rows_handle
        if handle is None or handle.closed:
            handle = open(self.spool_dir / ROWS_NAME, "rb")
            self._rows_handle = handle
        handle.seek(offset)
        buffer = handle.read(nbytes)
        if len(buffer) != nbytes:
            raise TraceFormatError("truncated row spool in %s" % self.spool_dir)
        return buffer

    # --- streaming record access ----------------------------------------

    def _chunk_columns(self) -> Iterator[Tuple[List[int], ...]]:
        """The six stored columns chunk by chunk, in trace order, as int
        lists, without the rows a warmup-stripped view skips."""
        skip = self._skip
        chunk_start = 0
        for chunk_offset, n in self._chunk_index:
            drop = min(max(skip - chunk_start, 0), n)
            chunk_start += n
            if drop == n:
                continue
            columns = _read_chunk(self.spool_dir, chunk_offset, n)
            yield tuple(column[drop:] for column in columns) if drop else columns

    def iter_records(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """Stream ``(op, host, thread, file_id, offset, nblocks)``
        tuples in trace order, decoding one chunk at a time."""
        for columns in self._chunk_columns():
            yield from zip(*columns)

    def to_trace(self) -> Trace:
        """The same content as an in-memory :class:`Trace`, packed
        straight into its columns.

        This is O(trace) memory by definition — it exists for small-trace
        tests and tools, not for the streaming pipeline (every replay,
        observed ones included, streams the issuer rows)."""
        columns = [array(typecode) for typecode in ROW_TYPECODES]
        for chunk in self._chunk_columns():
            for column, values in zip(columns, chunk):
                column.fromlist(values)
        return Trace.from_columns(
            *columns, self.file_blocks, self.warmup_records, self.metadata
        )

    # --- fingerprint ----------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Stable content hash, bit-identical to the fingerprint of the
        equivalent :class:`Trace` (see
        :func:`_spool_fingerprint`).  The freeze-time value is stored
        in the manifest; only warmup-stripped views recompute."""
        if self._skip == 0:
            return self._stored_fingerprint
        cached = self._fingerprint
        if cached is not None:
            return cached
        self._fingerprint = _spool_fingerprint(
            self.spool_dir / CHUNKS_NAME,
            self._chunk_index,
            self._n_records,
            0,
            self.file_blocks,
            self.metadata,
            skip_records=self._skip,
        )
        return self._fingerprint

    # --- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Close the spool file handle (reopened lazily on next use)."""
        handle = self._rows_handle
        self._rows_handle = None
        if handle is not None and not handle.closed:
            handle.close()

    def delete(self) -> None:
        """Close and remove the spool directory from disk."""
        self.close()
        _TEMP_SPOOLS.discard(str(self.spool_dir))
        shutil.rmtree(self.spool_dir, ignore_errors=True)

    def __reduce__(self):
        # Pickle as the spool path: workers reopen the spool (same
        # machine, shared filesystem) instead of shipping record data.
        return (_reopen, (str(self.spool_dir), self._skip))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ChunkedCompiledTrace %d records, %d files, %d chunks, warmup=%d at %s>" % (
            len(self),
            len(self.file_blocks),
            len(self._chunk_index),
            self.warmup_records,
            self.spool_dir,
        )


def _reopen(spool_dir: str, skip: int) -> ChunkedCompiledTrace:
    """Unpickle helper (module-level so pickle can address it)."""
    return ChunkedCompiledTrace.open(spool_dir, skip=skip)
