"""The synthetic trace generator itself.

For every I/O request (per §4 of the paper):

* host and thread are uniform;
* with probability ``ws_fraction`` (80 % baseline) the target comes
  from the (host's) working set, else from the whole file server;
* within the working set: a piece is chosen weighted by popularity, the
  request length is Poisson clamped to the piece, the start is uniform;
* from the whole server: a file is chosen weighted by popularity, the
  length is Poisson clamped to the file, the start is uniform;
* the operation is a write with probability ``write_fraction``.

Requests accumulate until the total volume reaches
``volume_multiple x working_set`` blocks; the first ``warmup_fraction``
of that volume is flagged as warmup.

Two entry points share one request iterator (and therefore one RNG
consumption pattern, so their outputs are record-for-record identical):

* :func:`generate_trace` packs the requests in memory, batch by batch,
  into the columns of a :class:`Trace` (about 33 bytes per record); it
  builds record objects only if ``records`` is read;
* :func:`generate_trace_chunked` streams the same requests directly
  into a :class:`~repro.traces.chunked.ChunkedCompiledTrace` spool,
  with peak memory bounded by chunk size — the paper-scale path
  (ROADMAP item 3).

Neither builds a ``TraceRecord``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro._gc import collector_paused
from repro.errors import TraceFormatError
from repro.fsmodel.distributions import KNUTH_MAX_MEAN, WeightedSampler, poisson_sample
from repro.fsmodel.files import FileSystemModel
from repro.fsmodel.impressions import generate_filesystem
from repro.engine.rng import RngStreams
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.workingset import WorkingSet, build_working_set
from repro.traces.chunked import ChunkedCompiledTrace, ChunkedTraceWriter
from repro.traces.records import ROW_TYPECODES, Trace

#: One generated request: (is_write, host, thread, file_id, start,
#: length, is_warmup).
Request = Tuple[bool, int, int, int, int, int, bool]

#: Requests :func:`generate_trace` packs into its columns per batch.
_PACK_BATCH = 4096


def _build_working_sets(
    config: TraceGenConfig, model: FileSystemModel, streams: RngStreams
) -> Dict[int, WorkingSet]:
    """Per-host working sets (one shared set when configured)."""
    ws_rng = streams.stream("tracegen", "workingset")
    working_sets: Dict[int, WorkingSet] = {}
    if config.shared_working_set:
        shared = build_working_set(
            model, config.working_set_blocks, config.region_mean_blocks, ws_rng
        )
        for host in range(config.n_hosts):
            working_sets[host] = shared
    else:
        for host in range(config.n_hosts):
            working_sets[host] = build_working_set(
                model, config.working_set_blocks, config.region_mean_blocks, ws_rng
            )
    return working_sets


def _iter_requests(
    config: TraceGenConfig, model: FileSystemModel, streams: RngStreams
) -> Iterator[Request]:
    """Yield the request stream both generator entry points consume.

    The RNG draw order here *is* the trace content contract: any
    reordering changes every generated trace.  Both the materializing
    and the chunked path run this exact iterator, which is what makes
    their outputs (and fingerprints) bit-identical.

    Per request the draws are: host, thread, write coin, working-set
    coin, piece (or file) pick, Poisson length, start.  Each is written
    out in the loop exactly as the helper it replaces makes it, and
    everything fixed is read once before the loop (DESIGN.md §12):

    * a uniform pick below an int ``n >= 1`` is ``Random._randbelow``'s
      rejection loop, ``getrandbits(n.bit_length())`` until the result
      is below ``n``, which is what ``randrange(n)`` returns; every
      ``n`` here is such an int, as ``TraceGenConfig`` only admits int
      host and thread counts and lengths are clamped to the extent;
    * a weighted pick is ``WeightedSampler.sample``: ``bisect_right``
      of ``random() * total`` in the cumulative weights, clamped to the
      last index;
    * a length is ``poisson_sample``'s product loop against
      ``exp(-io_mean_blocks)``, or a ``poisson_sample`` call for a mean
      above ``KNUTH_MAX_MEAN``, where that function rounds a normal.
    """
    io_rng = streams.stream("tracegen", "requests")
    file_sampler = WeightedSampler(model.popularities())
    working_sets = _build_working_sets(config, model, streams)

    random = io_rng.random
    getrandbits = io_rng.getrandbits
    n_hosts = config.n_hosts
    host_bits = n_hosts.bit_length()
    threads_per_host = config.threads_per_host
    thread_bits = threads_per_host.bit_length()
    write_fraction = config.write_fraction
    ws_fraction = config.ws_fraction
    io_mean_blocks = config.io_mean_blocks
    product_loop = io_mean_blocks <= KNUTH_MAX_MEAN
    threshold = math.exp(-io_mean_blocks)
    pickers = []
    for host in range(n_hosts):
        working_set = working_sets[host]
        sampler = working_set.sampler
        pickers.append((sampler.cumulative, sampler.total, sampler.last, working_set.pieces))
    file_cumulative = file_sampler.cumulative
    file_total = file_sampler.total
    file_last = file_sampler.last
    files = model.files
    target_blocks = config.target_volume_blocks
    warmup_boundary_blocks = int(target_blocks * config.warmup_fraction)

    volume_blocks = 0
    while volume_blocks < target_blocks:
        host = getrandbits(host_bits)
        while host >= n_hosts:
            host = getrandbits(host_bits)
        thread = getrandbits(thread_bits)
        while thread >= threads_per_host:
            thread = getrandbits(thread_bits)
        is_write = random() < write_fraction

        if random() < ws_fraction:
            cumulative, total, last, pieces = pickers[host]
            index = bisect_right(cumulative, random() * total)
            piece = pieces[index if index < last else last]
            file_id, base, extent = piece.file_id, piece.start, piece.nblocks
        else:
            index = bisect_right(file_cumulative, random() * file_total)
            spec = files[index if index < file_last else file_last]
            file_id, base, extent = spec.file_id, 0, spec.blocks
        if product_loop:
            length = 0
            product = random()
            while product > threshold:
                length += 1
                product *= random()
        else:
            length = poisson_sample(io_rng, io_mean_blocks)
        if length < 1:
            length = 1
        elif length > extent:
            length = extent
        starts = extent - length + 1
        start_bits = starts.bit_length()
        offset = getrandbits(start_bits)
        while offset >= starts:
            offset = getrandbits(start_bits)

        yield (
            is_write,
            host,
            thread,
            file_id,
            base + offset,
            length,
            volume_blocks < warmup_boundary_blocks,
        )
        volume_blocks += length


def _trace_metadata(config: TraceGenConfig) -> Dict[str, str]:
    return {
        "generator": "repro.tracegen",
        "working_set_bytes": str(config.working_set_bytes),
        "n_hosts": str(config.n_hosts),
        "threads_per_host": str(config.threads_per_host),
        "write_fraction": "%g" % config.write_fraction,
        "ws_fraction": "%g" % config.ws_fraction,
        "seed": str(config.seed),
        "shared_working_set": str(config.shared_working_set),
    }


def generate_trace(
    config: TraceGenConfig, model: Optional[FileSystemModel] = None
) -> Trace:
    """Generate a synthetic trace, held in memory as packed columns.

    ``model`` lets callers reuse one expensive file-system model across
    many trace configurations (the experiments all share the paper's
    single "1.4 TB file server model"); by default a model is generated
    from ``config.fs``.

    The requests go in batches straight into the record fields' columns
    (see :meth:`Trace.from_columns`), which replay reads as they are;
    record objects are built only if ``records`` is read.  Peak memory is
    O(records); for traces that should not be held in memory, use
    :func:`generate_trace_chunked`, which produces identical content.
    """
    if model is None:
        model = generate_filesystem(config.fs)
    streams = RngStreams(config.seed)

    requests = _iter_requests(config, model, streams)
    columns = [array(typecode) for typecode in ROW_TYPECODES]
    warmup_records = 0
    # The batches are acyclic; see repro._gc.
    with collector_paused():
        while True:
            batch = list(islice(requests, _PACK_BATCH))
            if not batch:
                break
            *fields, is_warmup = zip(*batch)
            try:
                for column, values in zip(columns, fields):
                    column.fromlist(list(values))
            except OverflowError as exc:
                raise TraceFormatError(
                    "record field too large for its packed column: %s" % exc
                ) from exc
            warmup_records += sum(is_warmup)

    return Trace.from_columns(
        *columns,
        model.file_blocks(),
        warmup_records=warmup_records,
        metadata=_trace_metadata(config),
    )


def generate_trace_chunked(
    config: TraceGenConfig,
    model: Optional[FileSystemModel] = None,
    *,
    spool_dir: Union[None, str, Path] = None,
    chunk_records: Optional[int] = None,
) -> ChunkedCompiledTrace:
    """Generate the same synthetic trace directly into a chunked spool.

    Requests stream from the shared iterator straight into a
    :class:`~repro.traces.chunked.ChunkedTraceWriter`, so peak memory
    is bounded by chunk size regardless of trace length.  Content — and
    therefore the trace fingerprint and every replay signature — is
    bit-identical to ``generate_trace(config, model)``.

    ``spool_dir`` chooses where the spool lives (a temp directory by
    default; call ``delete()`` on the result when done).
    ``chunk_records`` sets the chunk size (default
    :data:`~repro.traces.chunked.DEFAULT_CHUNK_RECORDS`, 65536).
    """
    if model is None:
        model = generate_filesystem(config.fs)
    streams = RngStreams(config.seed)

    writer = ChunkedTraceWriter(
        model.file_blocks(), spool_dir=spool_dir, chunk_records=chunk_records
    )
    warmup_records = 0
    try:
        for is_write, host, thread, file_id, start, length, is_warmup in _iter_requests(
            config, model, streams
        ):
            writer.append(is_write, host, thread, file_id, start, length)
            if is_warmup:
                warmup_records += 1
        return writer.freeze(warmup_records, _trace_metadata(config))
    except BaseException:
        writer.abort()
        raise
