"""Format auto-detection for foreign traces.

:func:`load_any` sniffs the first non-blank lines of a file and
dispatches to the right importer (or the native loader for repro's own
formats).  Detection is heuristic but checked against every format's
canonical shape; ambiguous files raise rather than guess.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.errors import TraceFormatError
from repro.traces.format import TEXT_MAGIC, load_trace
from repro.traces.importers.base import ImportStats
from repro.traces.importers.blkparse import _LINE as _BLKPARSE_LINE
from repro.traces.importers.blkparse import import_blkparse, import_blkparse_chunked
from repro.traces.importers.msr import import_msr_csv, import_msr_csv_chunked
from repro.traces.importers.spc import import_spc, import_spc_chunked
from repro.traces.records import COMPILED_MAGIC, Trace

PathLike = Union[str, Path]

_MSR_LINE = re.compile(
    r"^[\d]+,[^,]+,\d+,\s*(read|write)\s*,\d+,\d+", re.IGNORECASE
)
_SPC_LINE = re.compile(r"^\s*\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*[rw]\s*(,|$)", re.IGNORECASE)


def detect_format(path: PathLike) -> str:
    """Return one of ``native``, ``msr``, ``blkparse``, ``spc``.

    Raises :class:`TraceFormatError` when no format matches.
    """
    path = Path(path)
    with path.open("rb") as handle:
        head = handle.read(4096)
    if head.startswith(COMPILED_MAGIC):
        return "native"
    # Decode strictly: every text format we detect is ASCII-clean, and a
    # lenient errors="replace" decode would let a corrupt or binary file
    # masquerade as text and *mis*detect when enough mangled bytes still
    # resemble trace lines.  Only the tail may legitimately fail — the
    # 4096-byte window can split a multi-byte sequence.
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        if len(head) == 4096 and exc.start >= len(head) - 3:
            text = head[: exc.start].decode("utf-8")
        else:
            raise TraceFormatError(
                "%s is neither a native binary trace nor UTF-8 text "
                "(invalid byte at offset %d)" % (path, exc.start)
            ) from exc
    lines = [line for line in text.splitlines() if line.strip()][:8]
    if not lines:
        raise TraceFormatError("empty trace file %s" % path)
    if lines[0].strip() == TEXT_MAGIC:
        return "native"
    samples = [line for line in lines if not line.lstrip().startswith(("#", "*"))]
    if samples:
        # Real trace files contain the odd malformed line; pick the
        # format most of the sample matches (majority, not unanimity).
        scores = {
            "blkparse": sum(1 for line in samples if _BLKPARSE_LINE.match(line)),
            "spc": sum(1 for line in samples if _SPC_LINE.match(line)),
            "msr": sum(1 for line in samples if _MSR_LINE.match(line)),
        }
        best = max(scores, key=lambda fmt: scores[fmt])
        if scores[best] * 2 > len(samples):
            return best
    raise TraceFormatError(
        "could not detect the trace format of %s (tried native, blkparse, "
        "spc, msr-csv)" % path
    )


def load_any(
    path: PathLike, warmup_fraction: float = 0.0
) -> Tuple[Trace, Optional[ImportStats]]:
    """Load a trace of any supported format.

    Returns ``(trace, import_stats)``; ``import_stats`` is None for the
    native formats (nothing is skipped when loading those).
    """
    fmt = detect_format(path)
    if fmt == "native":
        return load_trace(path), None
    if fmt == "msr":
        return import_msr_csv(path, warmup_fraction)
    if fmt == "blkparse":
        return import_blkparse(path, warmup_fraction=warmup_fraction)
    if fmt == "spc":
        return import_spc(path, warmup_fraction)
    raise AssertionError("unreachable: %s" % fmt)


def load_any_chunked(path: PathLike, warmup_fraction: float = 0.0, **spool_options):
    """Bounded-memory twin of :func:`load_any`: foreign formats stream
    into a chunked spool via the ``*_chunked`` importers.

    Native-format files still load materialized (they were saved from
    memory-resident traces); ``spool_options`` (``spool_dir``,
    ``chunk_records``) pass through to the streaming importers.
    Returns ``(trace, import_stats)`` where ``trace`` is a
    :class:`~repro.traces.chunked.ChunkedCompiledTrace` for foreign
    formats and a :class:`Trace` for native ones.
    """
    fmt = detect_format(path)
    if fmt == "native":
        return load_trace(path), None
    if fmt == "msr":
        return import_msr_csv_chunked(path, warmup_fraction, **spool_options)
    if fmt == "blkparse":
        return import_blkparse_chunked(
            path, warmup_fraction=warmup_fraction, **spool_options
        )
    if fmt == "spc":
        return import_spc_chunked(path, warmup_fraction, **spool_options)
    raise AssertionError("unreachable: %s" % fmt)
