"""Command-line interface for the trace generator.

Installed as ``repro-tracegen``::

    repro-tracegen --working-set 60M --fs-size 1400M --out baseline.trace
    repro-tracegen --working-set 60M --fs-size 1400M --chunked-out spool_dir/
    repro-tracegen --inspect baseline.trace
    repro-tracegen --inspect spool_dir/

``--chunked-out`` streams the trace directly into a chunked spool
directory (see ``docs/SCALING.md``) with peak memory bounded by chunk
size — the path for traces too large to materialize.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro._units import GB, KB, MB, TB, format_bytes
from repro.errors import ReproError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace, generate_trace_chunked
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.format import load_trace, save_trace
from repro.traces.stats import compute_stats

_SUFFIXES = {"K": KB, "M": MB, "G": GB, "T": TB}


def parse_size(text: str) -> int:
    """Parse a size like ``60M`` or ``8G`` into bytes.

    >>> parse_size("4K")
    4096
    """
    text = text.strip().upper()
    if text and text[-1] in _SUFFIXES:
        return int(float(text[:-1]) * _SUFFIXES[text[-1]])
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tracegen",
        description="Generate or inspect synthetic block I/O traces "
        "(per §4 of 'Flash Caching on the Storage Client').",
    )
    parser.add_argument("--inspect", metavar="TRACE", help="print statistics of an existing trace (file or chunked spool directory) and exit")
    parser.add_argument("--out", metavar="PATH", help="output trace path")
    parser.add_argument(
        "--binary",
        action="store_true",
        help="write the binary format: the trace's packed columns, 33 bytes per record",
    )
    parser.add_argument(
        "--chunked-out",
        metavar="DIR",
        help="stream the trace into a chunked spool directory instead of "
        "materializing it (bounded memory; replays directly)",
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        help="records per chunk for --chunked-out (default: 65536)",
    )
    parser.add_argument("--fs-size", default="1400M", help="file-server model size (default 1400M)")
    parser.add_argument("--working-set", default="60M", help="working-set size (default 60M)")
    parser.add_argument("--hosts", type=int, default=1)
    parser.add_argument("--threads", type=int, default=8, help="threads per host")
    parser.add_argument("--write-fraction", type=float, default=0.30)
    parser.add_argument("--ws-fraction", type=float, default=0.80)
    parser.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.inspect:
            if Path(args.inspect).is_dir():
                # Chunked spools summarize from the manifest; the full
                # stats pass would materialize the records.
                chunked = ChunkedCompiledTrace.open(args.inspect)
                print(
                    "chunked trace: %d records in %d chunks, %d files, "
                    "warmup=%d, fingerprint=%s"
                    % (
                        len(chunked),
                        len(chunked._chunk_index),
                        len(chunked.file_blocks),
                        chunked.warmup_records,
                        chunked.fingerprint[:16],
                    )
                )
                return 0
            trace = load_trace(args.inspect)
            print(compute_stats(trace).summary())
            return 0
        if not args.out and not args.chunked_out:
            parser.error("--out or --chunked-out is required unless --inspect is given")
        config = TraceGenConfig(
            fs=ImpressionsConfig(total_bytes=parse_size(args.fs_size)),
            working_set_bytes=parse_size(args.working_set),
            n_hosts=args.hosts,
            threads_per_host=args.threads,
            write_fraction=args.write_fraction,
            ws_fraction=args.ws_fraction,
            seed=args.seed,
        )
        if args.chunked_out:
            chunked = generate_trace_chunked(
                config,
                spool_dir=args.chunked_out,
                chunk_records=args.chunk_records,
            )
            print(
                "spooled %d records into %s (fingerprint %s)"
                % (len(chunked), args.chunked_out, chunked.fingerprint[:16])
            )
            if not args.out:
                return 0
        trace = generate_trace(config)
        save_trace(trace, args.out, binary=args.binary)
        print(
            "wrote %d records (%s of I/O) to %s"
            % (len(trace), format_bytes(trace.total_bytes), args.out)
        )
        return 0
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
