"""Compiled traces: a packed columnar representation of a :class:`Trace`.

A :class:`~repro.traces.records.Trace` built from records is a list of
Python record objects — flexible to build, expensive to replay and to
ship.  On the multi-million-record traces the paper-scale sweeps need (related
storage-cache studies run 10⁶–10⁷ request traces), three costs of the
object form dominate the sweep engine rather than the simulation:

* **attribute-at-a-time replay** — every record costs attribute loads,
  an ``is_write`` property call, and a method chain to flatten its
  global block range;
* **object-at-a-time hashing** — content fingerprinting packs records
  one by one in pure Python;
* **object-graph pickling** — every sweep worker unpickles the full
  record list before replaying the first block.

:class:`CompiledTrace` packs the records into flat columnar buffers
(stdlib :class:`array.array` — no numpy dependency), one column per
field, plus a precomputed *global start block* column so replay never
recomputes the file-base flattening.  The payoff:

* :attr:`fingerprint` hashes the raw column buffers (a handful of
  ``hashlib`` calls over C buffers instead of one ``struct.pack`` per
  record);
* :meth:`to_bytes` / :meth:`from_buffer` give a flat single-blob wire
  format that attaches **zero-copy** from a read-only map of a
  compiled-trace file (the columns become typed :class:`memoryview`
  casts into the map — see :mod:`repro.sweep`);
* :meth:`issuer_plan` hands the replay engine per-thread rows with the
  warmup boundary pre-split, so the hot loop touches nothing but local
  ints (see ``System._thread_process``).  The rows are packed in typed
  arrays, about 14 bytes per row measured with ``tracemalloc`` (a list
  of row tuples took about 99).

Compilation is content-preserving (``tests/test_traces_compiled.py``),
and a replay always runs over the compiled form: ``System.replay``
compiles every plain trace it is given with :func:`compile_trace`,
which memoizes the result on the ``Trace`` object.  A trace built by
:meth:`Trace.from_columns` (every generated and fleet trace) already
holds a :class:`CompiledTrace`, which :func:`compile_trace` returns
without another pass; its records are built from the columns only on
request, by :func:`~repro.traces.records.records_from_rows`, which
:meth:`CompiledTrace.to_trace` uses too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
import sys
from array import array
from bisect import bisect_left
from collections import defaultdict
from operator import getitem
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.traces.records import Row, Trace, TraceOp, records_from_rows

__all__ = ["CompiledTrace", "PlanRows", "compile_trace", "COMPILED_MAGIC"]

#: Magic prefix of the flat wire format produced by :meth:`to_bytes`.
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
#: (:meth:`CompiledTrace.row_columns`, :meth:`Trace.from_columns`).
ROW_TYPECODES: Tuple[str, ...] = tuple(typecode for _name, typecode in _COLUMNS[:-1])

#: Columns covered by the content fingerprint (``start_blocks`` is
#: derived from ``file_ids``/``offsets`` and would only double-hash).
_FINGERPRINT_COLUMNS = ("ops", "hosts", "threads", "file_ids", "offsets", "nblocks")

_HEADER_LEN = struct.Struct("<I")

#: Records :func:`compile_trace` converts per batch.
_COMPILE_BATCH = 4096


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


def _fingerprint_digest(
    metadata: Dict[str, str],
    n_records: int,
    warmup_records: int,
    file_blocks: List[int],
):
    """A sha256 fed the content fingerprint's preamble: the format tag,
    the metadata, the record and warmup counts and the geometry.  Both
    compiled forms add their column bytes in ``_FINGERPRINT_COLUMNS``
    order after it, so equal content hashes equal in either form."""
    digest = hashlib.sha256()
    digest.update(b"repro-ctrace-v1")
    digest.update(repr(sorted(metadata.items())).encode("utf-8"))
    digest.update(struct.pack("<QQ", n_records, warmup_records))
    if file_blocks:
        digest.update(struct.pack("<%dQ" % len(file_blocks), *file_blocks))
    return digest


class PlanRows:
    """One issuer's replay rows, packed as owned typed columns.

    ``ops`` (``B``), ``start_blocks`` (``Q``) and ``nblocks`` (``I``)
    hold 13 bytes per row.  Iterating yields the ``(op, start_block,
    nblocks)`` int tuples the ``System`` replay drivers consume, in trace
    order; the container is re-iterable and sized, like a list of those
    tuples.  The arrays are copies, never views into an attached
    buffer, so the rows outlive :meth:`CompiledTrace.release`.
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


class CompiledTrace:
    """A trace packed into flat columnar buffers.

    Columns are either owning :class:`array.array`\\ s (built by
    :func:`compile_trace` / :meth:`from_bytes`) or zero-copy
    :class:`memoryview` casts into an external buffer
    (:meth:`from_buffer`); both expose identical indexing, slicing and
    ``tolist`` behavior, so nothing downstream cares which it got.

    The public surface mirrors the parts of :class:`Trace` the
    simulation driver uses (``hosts()``, ``without_warmup()``,
    ``__len__``, ``total_file_blocks``), so
    :func:`repro.run_simulation` accepts either form.
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
        "_fingerprint",
        "_plan",
        "_views",
    )

    def __init__(
        self,
        ops,
        hosts_col,
        threads_col,
        file_ids,
        offsets,
        nblocks,
        start_blocks,
        file_blocks: List[int],
        warmup_records: int,
        metadata: Dict[str, str],
        _views: Optional[List[memoryview]] = None,
    ) -> None:
        self.ops = ops
        self.hosts_col = hosts_col
        self.threads_col = threads_col
        self.file_ids = file_ids
        self.offsets = offsets
        self.nblocks = nblocks
        self.start_blocks = start_blocks
        self.file_blocks = list(file_blocks)
        self.warmup_records = warmup_records
        self.metadata = dict(metadata)
        self._fingerprint: Optional[str] = None
        self._plan: Optional[list] = None
        self._views = _views or []
        n = len(self.ops)
        if not 0 <= warmup_records <= n:
            raise TraceFormatError(
                "warmup_records %d out of range for %d records" % (warmup_records, n)
            )
        for name, _tc in _COLUMNS:
            if len(self._column(name)) != n:
                raise TraceFormatError(
                    "compiled trace column %r has %d entries, expected %d"
                    % (name, len(self._column(name)), n)
                )

    def _column(self, name: str):
        attr = {"hosts": "hosts_col", "threads": "threads_col"}.get(name, name)
        return getattr(self, attr)

    # --- Trace-compatible surface --------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def total_file_blocks(self) -> int:
        return sum(self.file_blocks)

    def hosts(self) -> List[int]:
        """Sorted list of host ids appearing in the trace."""
        return sorted(set(self.hosts_col))

    def without_warmup(self) -> "CompiledTrace":
        """The trace with warmup records removed (``self`` when there is
        nothing to strip).  Slicing memoryview columns yields further
        views into the same buffer, so the result of stripping an
        attached trace is still zero-copy."""
        if self.warmup_records == 0:
            return self
        w = self.warmup_records
        return CompiledTrace(
            self.ops[w:],
            self.hosts_col[w:],
            self.threads_col[w:],
            self.file_ids[w:],
            self.offsets[w:],
            self.nblocks[w:],
            self.start_blocks[w:],
            self.file_blocks,
            0,
            self.metadata,
        )

    def warmup_blocks(self) -> int:
        """Total block volume of the warmup prefix."""
        return sum(self.nblocks[: self.warmup_records])

    def row_columns(self) -> Tuple:
        """The six record fields' columns, in :meth:`Trace.from_columns`
        order (``start_blocks`` is derived from them)."""
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

    def to_trace(self) -> Trace:
        """Materialize back into the object representation."""
        return Trace(
            records_from_rows(self.iter_records()),
            self.file_blocks,
            warmup_records=self.warmup_records,
            metadata=dict(self.metadata),
        )

    # --- replay plan ----------------------------------------------------

    def issuer_plan(self) -> List[Tuple[int, int, PlanRows, PlanRows]]:
        """Rows grouped per (host, thread) with the warmup prefix split.

        Returns ``[(host, thread, warmup_rows, measured_rows), ...]``
        sorted by ``(host, thread)``.  Each row container is a
        :class:`PlanRows` that yields ``(op, start_block, nblocks)`` int
        tuples in trace order, matching ``Trace.split_by_issuer``
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
        """Stable content hash over the raw column buffers.

        O(1) Python-level work (a few digest updates over flat buffers)
        versus the per-record ``struct.pack`` loop the object form
        needs; equal compiled traces — regardless of how they were
        built, attached, or sliced — hash equal.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        digest = _fingerprint_digest(
            self.metadata, len(self), self.warmup_records, self.file_blocks
        )
        for name in _FINGERPRINT_COLUMNS:
            digest.update(_column_bytes_le(self._column(name)))
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # --- wire format ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize into one flat blob: magic, JSON header, then the
        raw column buffers (8-byte aligned, little-endian)."""
        column_table = []
        chunks: List[bytes] = []
        offset = 0
        for name, typecode in _COLUMNS:
            payload = _column_bytes_le(self._column(name))
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
    def from_buffer(cls, buffer) -> "CompiledTrace":
        """Attach to a serialized blob **without copying** the columns.

        ``buffer`` is any buffer-protocol object (in a sweep worker, a
        read-only ``mmap`` of a compiled-trace file); the columns become
        typed ``memoryview`` casts into it.  Call :meth:`release` before
        the buffer is closed.  Only valid on little-endian hosts
        (everything common); big-endian falls back to a copy.
        """
        views = [memoryview(buffer)]
        try:
            return cls._attach(views)
        except BaseException:
            # A live view pins the buffer: release them all, so the
            # caller can close a map that failed to attach.
            for view in reversed(views):
                view.release()
            raise

    @classmethod
    def _attach(cls, views: List[memoryview]) -> "CompiledTrace":
        """:meth:`from_buffer`'s parse; appends each view it takes to
        ``views``, whose first entry spans the whole buffer."""
        view = views[0]
        if bytes(view[: len(COMPILED_MAGIC)]) != COMPILED_MAGIC:
            raise TraceFormatError("not a compiled trace blob (bad magic)")
        cursor = len(COMPILED_MAGIC)
        (header_len,) = _HEADER_LEN.unpack_from(view, cursor)
        cursor += _HEADER_LEN.size
        try:
            header = json.loads(bytes(view[cursor : cursor + header_len]).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError("corrupt compiled trace header: %s" % exc) from exc
        cursor += header_len
        cursor += (-cursor) % 8
        if sys.byteorder != "little":  # pragma: no cover - BE only
            return cls.from_bytes(bytes(view))
        columns = {}
        expected = dict(_COLUMNS)
        for name, typecode, offset, length in header["columns"]:
            if expected.get(name) != typecode:
                raise TraceFormatError(
                    "unexpected compiled trace column %r:%r" % (name, typecode)
                )
            start = cursor + offset
            if start + length > len(view):
                raise TraceFormatError("truncated compiled trace blob")
            col = view[start : start + length].cast(typecode)
            views.append(col)
            columns[name] = col
        missing = set(expected) - set(columns)
        if missing:
            raise TraceFormatError(
                "compiled trace blob lacks columns: %s" % sorted(missing)
            )
        return cls(
            columns["ops"],
            columns["hosts"],
            columns["threads"],
            columns["file_ids"],
            columns["offsets"],
            columns["nblocks"],
            columns["start_blocks"],
            header["file_blocks"],
            header["warmup"],
            header.get("metadata", {}),
            _views=views,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompiledTrace":
        """Deserialize into *owning* columns (a copy; used for pickle
        round-trips)."""
        attached = cls.from_buffer(data)
        try:
            owned = cls(
                array("B", attached.ops),
                array("I", attached.hosts_col),
                array("I", attached.threads_col),
                array("I", attached.file_ids),
                array("Q", attached.offsets),
                array("I", attached.nblocks),
                array("Q", attached.start_blocks),
                attached.file_blocks,
                attached.warmup_records,
                attached.metadata,
            )
        finally:
            attached.release()
        return owned

    def release(self) -> None:
        """Release the memoryviews into an external buffer, so the
        buffer (a worker's ``mmap``) can be closed: a live view pins it,
        and closing it first raises ``BufferError``.  The trace must not
        be used afterwards.  No-op for owning (array) traces."""
        views, self._views = self._views, []
        for view in reversed(views):
            view.release()

    def __reduce__(self):
        # Pickle via the wire format: memoryview columns are not
        # picklable, and the flat blob is smaller than a pickled
        # object graph anyway.
        return (CompiledTrace.from_bytes, (self.to_bytes(),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrace):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CompiledTrace %d records, %d files, warmup=%d>" % (
            len(self),
            len(self.file_blocks),
            self.warmup_records,
        )


def compile_trace(trace: Trace) -> CompiledTrace:
    """Pack a :class:`Trace` into its columnar form, memoized per trace
    object (sweeps reuse one trace across dozens of points; like the
    fingerprint memo, this assumes traces are not mutated after use).
    A trace built by :meth:`Trace.from_columns` already holds that form
    and is returned without another pass.
    """
    if isinstance(trace, CompiledTrace):
        return trace
    cached = trace.__dict__.get("_compiled_trace")
    if cached is not None:
        return cached
    if trace._columns is not None:
        trace.__dict__["_compiled_trace"] = trace._columns
        return trace._columns
    records = trace.records
    write = TraceOp.WRITE
    file_base = trace._file_base
    ops, hosts, threads, file_ids, offsets, nblocks, starts = (
        array(typecode) for _name, typecode in _COLUMNS
    )
    # List comprehensions over one batch at a time: about as fast as
    # one comprehension per column (a generator or ``map(attrgetter)``
    # feed measured 1.5-1.7x slower on CPython 3.11, DESIGN.md §13),
    # while each temporary list of int objects stays _COMPILE_BATCH
    # long however long the trace is.
    try:
        for low in range(0, len(records), _COMPILE_BATCH):
            batch = records[low : low + _COMPILE_BATCH]
            ops.fromlist([record.op is write for record in batch])
            hosts.fromlist([record.host for record in batch])
            threads.fromlist([record.thread for record in batch])
            file_ids.fromlist([record.file_id for record in batch])
            offsets.fromlist([record.offset for record in batch])
            nblocks.fromlist([record.nblocks for record in batch])
            starts.fromlist(
                [file_base[record.file_id] + record.offset for record in batch]
            )
    except OverflowError as exc:
        raise TraceFormatError(
            "record field too large for the compiled representation: %s" % exc
        ) from exc
    compiled = CompiledTrace(
        ops,
        hosts,
        threads,
        file_ids,
        offsets,
        nblocks,
        starts,
        list(trace.file_blocks),
        trace.warmup_records,
        dict(trace.metadata),
    )
    trace.__dict__["_compiled_trace"] = compiled
    return compiled
