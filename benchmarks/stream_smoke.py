#!/usr/bin/env python
"""Bounded-memory streaming-pipeline smoke benchmark (CI gate).

Proves the three ROADMAP-item-3 properties the streaming trace pipeline
claims, with hard exits rather than advisory prints:

1. **Bounded memory.**  A ~1M-record synthetic trace is generated
   *directly into* a chunked spool (no ``TraceRecord`` objects, no
   materialized columns) and replayed through the simulator, all under
   ``tracemalloc``; the Python-heap peak must stay under
   ``--budget-mb``.  The budget is far below what the materialized
   pipeline needs for the same record count (~120 bytes/record of
   ``TraceRecord`` objects alone), so a silent fallback to
   materialization fails the gate.  Peak RSS is reported alongside for
   context (it includes interpreter overhead and is not gated).

2. **Identical content.**  At a smaller record count, the chunked
   generator must produce a spool whose fingerprint equals
   ``generate_trace(cfg).fingerprint`` and whose replay
   ``result_signature`` matches the materialized replay bit for bit.

3. **Importer parity on messy input.**  Fixture files for all three
   foreign formats — each containing skippable garbage lines — must
   import record-for-record identically through the materialized and
   streaming builders, with identical skip accounting.

Usage::

    PYTHONPATH=src python benchmarks/stream_smoke.py                  # full gate
    PYTHONPATH=src python benchmarks/stream_smoke.py --records 200000 # quicker
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._units import MB, BLOCK_SIZE  # noqa: E402
from repro.core.config import SimConfig  # noqa: E402
from repro.core.simulator import run_simulation  # noqa: E402
from repro.fsmodel.impressions import ImpressionsConfig  # noqa: E402
from repro.tracegen import (  # noqa: E402
    TraceGenConfig,
    generate_trace,
    generate_trace_chunked,
)
from repro.validation.differential import result_signature  # noqa: E402

#: tracemalloc peak budget for the ~1M-record streamed generate+replay.
DEFAULT_BUDGET_MB = 64

#: Record count of the bounded-memory phase (approximate: tracegen
#: stops when the target volume is reached, not at an exact count).
DEFAULT_RECORDS = 1_000_000

# Messy importer fixtures: every format carries deliberate skip lines
# (comments, short lines, unknown opcodes, non-numeric fields) so the
# parity check also covers each parser's skip paths.
MSR_FIXTURE = """\
128166372003061629,hm,0,Read,383496192,32768,58000
# header-ish comment line
128166372016382155,hm,0,Write,310378496,16384,47000
128166372026382245,web,1,Read,660830720,4096,33000
tooshort,line
128166372036382245,web,1,write,12288,8192,21000
128166372046382245,hm,0,Flush,0,4096,11000
128166372056382245,hm,0,Read,notanumber,4096,11000
"""

SPC_FIXTURE = """\
0,20941264,8192,W,0.0
0,20939840,8192,R,0.11

1,3072,1024,R,0.2
2,4096,8192,W,0.3
2,4096,1024,X,0.35
1,bogus,1024,R,0.4
"""

BLKPARSE_FIXTURE = """\
  8,0    1        1     0.000000000  1234  C   R 1000 + 8 [prog]
  8,0    1        2     0.000100000  1234  C   W 2048 + 16 [prog]
not a blkparse line at all
  8,0    3        3     0.000200000  5678  C   R 512 + 4 [other]
  8,0    1        4     0.000300000  1234  Q   R 1000 + 8 [prog]
  8,0    1        5     0.000400000  1234  C  RM 4096 + 8 [prog]
"""


def _gen_config(records: int) -> TraceGenConfig:
    """A generator config producing approximately ``records`` records.

    The working set is *fixed* (128 MB) and only ``volume_multiple``
    scales with the record target: distinct-block state — the working
    set model, cache contents, per-block counters — is then constant,
    so any memory growth with ``--records`` is attributable to the
    trace pipeline itself, which is exactly what the gate must bound.
    """
    io_mean = 4.0
    ws_bytes = 128 * MB
    ws_blocks = ws_bytes // BLOCK_SIZE
    volume_multiple = max(0.5, records * io_mean / ws_blocks)
    return TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=8 * ws_bytes),
        working_set_bytes=ws_bytes,
        n_hosts=1,
        threads_per_host=8,
        io_mean_blocks=io_mean,
        volume_multiple=volume_multiple,
        seed=42,
    )


def _sim_config() -> SimConfig:
    """A small fixed-cache config: simulator state stays O(cache), so
    the memory gate isolates the *trace pipeline's* footprint."""
    return SimConfig(ram_bytes=64 * MB, flash_bytes=256 * MB)


def phase_bounded_memory(
    records: int, budget_mb: int, chunk_records: Optional[int]
) -> Dict:
    """Generate-into-spool + streamed replay under a tracemalloc budget."""
    config = _gen_config(records)
    tracemalloc.start()
    started = time.perf_counter()
    trace = generate_trace_chunked(config, chunk_records=chunk_records)
    generated = time.perf_counter()
    try:
        result = run_simulation(trace, _sim_config())
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        spool_bytes = sum(
            (trace.spool_dir / name).stat().st_size
            for name in os.listdir(trace.spool_dir)
        )
        trace.delete()
    replayed = time.perf_counter()
    rss_kb = 0
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:  # pragma: no cover - non-POSIX
        pass
    peak_mb = peak / MB
    return {
        "records": len(trace),
        "blocks_replayed": result.blocks_read + result.blocks_written,
        "generate_wall_s": round(generated - started, 3),
        "replay_wall_s": round(replayed - generated, 3),
        "spool_mb": round(spool_bytes / MB, 2),
        "tracemalloc_peak_mb": round(peak_mb, 2),
        "budget_mb": budget_mb,
        "rss_peak_mb": round(rss_kb / 1024.0, 1),
        "within_budget": peak_mb <= budget_mb,
    }


def phase_content_identity(chunk_records: Optional[int]) -> Dict:
    """Small-N: chunked generation must equal materialized generation."""
    config = _gen_config(20_000)
    materialized = generate_trace(config)
    chunked = generate_trace_chunked(config, chunk_records=chunk_records or 4096)
    try:
        fingerprints_equal = materialized.fingerprint == chunked.fingerprint
        sim = _sim_config()
        signatures_equal = result_signature(
            run_simulation(materialized, sim)
        ) == result_signature(run_simulation(chunked, sim))
    finally:
        chunked.delete()
    return {
        "records": len(materialized),
        "fingerprints_equal": fingerprints_equal,
        "signatures_equal": signatures_equal,
    }


def phase_importer_parity() -> Dict:
    """Messy-fixture parity: streaming importers == materialized ones."""
    from repro.traces.importers import (
        import_blkparse,
        import_blkparse_chunked,
        import_msr_csv,
        import_msr_csv_chunked,
        import_spc,
        import_spc_chunked,
    )

    fixtures = (
        ("msr.csv", MSR_FIXTURE, import_msr_csv, import_msr_csv_chunked),
        ("spc.txt", SPC_FIXTURE, import_spc, import_spc_chunked),
        ("trace.blkparse", BLKPARSE_FIXTURE, import_blkparse, import_blkparse_chunked),
    )
    formats: Dict[str, Dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-stream-smoke-") as tmp:
        for name, text, plain, chunked_importer in fixtures:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            trace, stats = plain(path, warmup_fraction=0.25)
            chunked, chunked_stats = chunked_importer(path, warmup_fraction=0.25)
            try:
                formats[name] = {
                    "records": stats.records_imported,
                    "skipped": stats.lines_skipped,
                    "records_equal": list(trace.iter_records())
                    == list(chunked.iter_records()),
                    "fingerprints_equal": trace.fingerprint == chunked.fingerprint,
                    "stats_equal": (
                        stats.records_imported == chunked_stats.records_imported
                        and stats.lines_skipped == chunked_stats.lines_skipped
                        and stats.lines_total == chunked_stats.lines_total
                    ),
                    "skip_paths_exercised": stats.lines_skipped > 0,
                }
            finally:
                chunked.delete()
    return formats


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/stream_smoke.py",
        description="Bounded-memory streaming trace pipeline gate.",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=DEFAULT_RECORDS,
        help="approximate record count of the bounded-memory phase",
    )
    parser.add_argument(
        "--budget-mb",
        type=int,
        default=DEFAULT_BUDGET_MB,
        help="tracemalloc peak budget for streamed generate+replay",
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        help="records per chunk (default: %d)" % 65536,
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the phase report as JSON to FILE",
    )
    args = parser.parse_args(argv)

    report = {
        "bounded_memory": phase_bounded_memory(
            args.records, args.budget_mb, args.chunk_records
        ),
        "content_identity": phase_content_identity(args.chunk_records),
        "importer_parity": phase_importer_parity(),
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    bounded = report["bounded_memory"]
    print(
        "bounded-memory: %d records, spool %.1f MB, peak heap %.1f MB "
        "(budget %d MB), rss %.0f MB, gen %.1fs replay %.1fs"
        % (
            bounded["records"],
            bounded["spool_mb"],
            bounded["tracemalloc_peak_mb"],
            bounded["budget_mb"],
            bounded["rss_peak_mb"],
            bounded["generate_wall_s"],
            bounded["replay_wall_s"],
        )
    )
    identity = report["content_identity"]
    print(
        "content-identity: %d records, fingerprints %s, signatures %s"
        % (
            identity["records"],
            "equal" if identity["fingerprints_equal"] else "DIFFER",
            "equal" if identity["signatures_equal"] else "DIFFER",
        )
    )
    problems: List[str] = []
    if not bounded["within_budget"]:
        problems.append(
            "streamed pipeline peaked at %.1f MB > budget %d MB"
            % (bounded["tracemalloc_peak_mb"], bounded["budget_mb"])
        )
    if not identity["fingerprints_equal"]:
        problems.append("chunked generation fingerprint drifted")
    if not identity["signatures_equal"]:
        problems.append("chunked replay signature drifted")
    for name, row in report["importer_parity"].items():
        status = all(
            row[key]
            for key in (
                "records_equal",
                "fingerprints_equal",
                "stats_equal",
                "skip_paths_exercised",
            )
        )
        print(
            "importer-parity: %-15s %d records, %d skipped — %s"
            % (name, row["records"], row["skipped"], "OK" if status else "FAIL")
        )
        if not status:
            problems.append("importer parity failed for %s: %r" % (name, row))
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem)
        return 1
    print("stream smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
