"""Trace serialization: a text format and the binary format.

Text format (``.trace``), line oriented::

    %REPRO-TRACE v1
    #warmup 1234
    #meta key value-with-spaces-allowed
    @files 100 250 3            # sizes in blocks, whitespace separated
    R 0 3 17 42 8               # op host thread file offset nblocks
    W 0 1 17 50 1

Binary format: the blob of :meth:`Trace.to_bytes
<repro.traces.records.Trace.to_bytes>` — an 8-byte magic
(:data:`~repro.traces.records.COMPILED_MAGIC`), a JSON header (length
prefixed), then the trace's seven packed little-endian columns, 33
bytes per record whatever the field magnitudes.  It is the file a sweep
hands its workers, and :func:`load_trace` reads it with one copy per
column and the same row checks as every other trace.

:func:`load_trace` auto-detects the format from the file's magic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.errors import TraceFormatError
from repro.traces.records import COMPILED_MAGIC, Trace, TraceOp, TraceRecord

TEXT_MAGIC = "%REPRO-TRACE v1"

PathLike = Union[str, Path]


# --- text format ---------------------------------------------------------


def _dump_text(trace: Trace) -> str:
    lines: List[str] = [TEXT_MAGIC]
    lines.append("#warmup %d" % trace.warmup_records)
    for key, value in sorted(trace.metadata.items()):
        if any(ch.isspace() for ch in key) or not key:
            raise TraceFormatError(
                "metadata keys may not be empty or contain whitespace: %r" % key
            )
        # Values are JSON-encoded so arbitrary text (empty strings,
        # leading/trailing whitespace, control characters) round-trips.
        lines.append("#meta %s %s" % (key, json.dumps(str(value))))
    lines.append("@files " + " ".join(str(n) for n in trace.file_blocks))
    write, read = TraceOp.WRITE.value, TraceOp.READ.value
    for op, host, thread, file_id, offset, nblocks in trace.iter_records():
        lines.append(
            "%s %d %d %d %d %d" % (write if op else read, host, thread, file_id, offset, nblocks)
        )
    return "\n".join(lines) + "\n"


def _parse_text(text: str) -> Trace:
    lines = text.splitlines()
    if not lines or lines[0].strip() != TEXT_MAGIC:
        raise TraceFormatError("not a repro text trace (bad magic)")
    warmup = 0
    metadata = {}
    file_blocks: List[int] = []
    records: List[TraceRecord] = []
    for line_number, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#warmup"):
                warmup = int(line.split()[1])
            elif line.startswith("#meta"):
                parts = line.split(" ", 2)
                _tag, key = parts[0], parts[1]
                raw = parts[2] if len(parts) > 2 else ""
                if raw.startswith('"'):
                    metadata[key] = json.loads(raw)
                else:
                    metadata[key] = raw  # legacy unencoded value
            elif line.startswith("@files"):
                file_blocks = [int(tok) for tok in line.split()[1:]]
            elif line.startswith("#"):
                continue  # unknown directive: ignore for forward compat
            else:
                op_str, host, thread, file_id, offset, nblocks = line.split()
                records.append(
                    TraceRecord(
                        TraceOp(op_str),
                        int(host),
                        int(thread),
                        int(file_id),
                        int(offset),
                        int(nblocks),
                    )
                )
        except (ValueError, IndexError) as exc:
            raise TraceFormatError(
                "malformed trace line %d: %r (%s)" % (line_number, raw, exc)
            ) from exc
    return Trace(records, file_blocks, warmup_records=warmup, metadata=metadata)


# --- public API -------------------------------------------------------------


def save_trace(trace: Trace, path: PathLike, binary: bool = False) -> None:
    """Write a trace to ``path`` in text (default) or binary format."""
    path = Path(path)
    if binary:
        path.write_bytes(trace.to_bytes())
    else:
        path.write_text(_dump_text(trace), encoding="utf-8")


def load_trace(path: PathLike) -> Trace:
    """Read a trace, auto-detecting text vs. binary from the magic."""
    data = Path(path).read_bytes()
    if data.startswith(COMPILED_MAGIC):
        return Trace.from_bytes(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError("unrecognized trace file %s" % path) from exc
    return _parse_text(text)
