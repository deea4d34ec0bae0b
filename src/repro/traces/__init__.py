"""Block-level I/O traces.

The paper's traces contain "read and write operations.  Each operation
identifies a file and a range of blocks within that file.  Each
operation also carries a thread ID and host ID."

This package provides the record (:class:`TraceRecord`) and the
in-memory trace (:class:`Trace`), which holds its rows as packed
columns that replay, the content fingerprint and the zero-copy sweep
hand-off read as they are; the disk-backed bounded-memory form for
traces too large to hold in memory (:class:`ChunkedCompiledTrace`,
:class:`ChunkedTraceWriter` in :mod:`repro.traces.chunked`); text and
binary file formats with round-trip fidelity
(:mod:`repro.traces.format`); and summary statistics used by
validation tests (:mod:`repro.traces.stats`).  ``CompiledTrace`` is
another name for :class:`Trace` and ``compile_trace(trace)`` returns
its argument.
"""

from repro.traces.records import CompiledTrace, Trace, TraceOp, TraceRecord, compile_trace
from repro.traces.chunked import ChunkedCompiledTrace, ChunkedTraceWriter
from repro.traces.format import load_trace, save_trace
from repro.traces.stats import TraceStats, compute_stats

__all__ = [
    "Trace",
    "TraceOp",
    "TraceRecord",
    "CompiledTrace",
    "compile_trace",
    "ChunkedCompiledTrace",
    "ChunkedTraceWriter",
    "load_trace",
    "save_trace",
    "TraceStats",
    "compute_stats",
]
