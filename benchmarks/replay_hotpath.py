#!/usr/bin/env python
"""Hot-path replay benchmark: the repo's persistent performance baseline.

Runs pinned-seed trace replays through the three paper architectures
plus a sweep-engine scaling run, and writes ``BENCH_replay.json`` with
wall time, blocks/sec, a per-phase cProfile top-10, and the full result
signature of every replay.  The committed JSON carries *both* the
baseline (pre-optimization) and the latest (post) numbers, so every
future PR has a trajectory to regress against.

Merging rules when ``--out`` already exists:

* same geometry (``scale``/``fast`` match): the stored ``baseline``
  section is preserved and only ``post`` is replaced;
* different geometry or ``--reset-baseline``: the file restarts with
  this run as both baseline and post.

Result signatures are compared between baseline and post: any drift is
an error (exit 3) unless ``--allow-signature-drift`` is given, because
a performance PR must not change simulated results.

Usage::

    PYTHONPATH=src python benchmarks/replay_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/replay_hotpath.py --fast     # CI smoke
    PYTHONPATH=src python benchmarks/replay_hotpath.py --check BENCH_replay.json
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.architectures import Architecture  # noqa: E402
from repro.core.simulator import run_simulation  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    DEFAULT_SCALE,
    baseline_config,
    baseline_trace,
)
from repro.sweep import run_sweep  # noqa: E402
from repro.validation.differential import result_signature  # noqa: E402

#: The three paper architectures the pinned-seed replays cover.
ARCHITECTURES = ("naive", "lookaside", "unified")

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


# --- schema -------------------------------------------------------------

#: Minimal schema: required keys and their types, by section.  CI
#: validates emitted files against this (see ``validate_payload``).
_RUN_KEYS = {
    "wall_s": float,
    "blocks": int,
    "blocks_per_sec": float,
    "records": int,
    "signature": dict,
}
_SECTION_KEYS = {
    "replay": dict,
    "sweep": dict,
    "profile": dict,
}
_TOP_KEYS = {
    "schema": int,
    "python": str,
    "scale": int,
    "fast": bool,
    "baseline": dict,
    "post": dict,
    "speedup": dict,
}


def validate_payload(payload: Dict) -> List[str]:
    """Validate a BENCH_replay.json payload; return a list of problems."""
    problems: List[str] = []
    for key, kind in _TOP_KEYS.items():
        if key not in payload:
            problems.append("missing top-level key %r" % key)
        elif not isinstance(payload[key], kind):
            problems.append(
                "%r should be %s, got %s"
                % (key, kind.__name__, type(payload[key]).__name__)
            )
    for section_name in ("baseline", "post"):
        section = payload.get(section_name)
        if not isinstance(section, dict):
            continue
        for key, kind in _SECTION_KEYS.items():
            if not isinstance(section.get(key), kind):
                problems.append("%s.%s missing or mistyped" % (section_name, key))
        replays = section.get("replay")
        if isinstance(replays, dict):
            for architecture in ARCHITECTURES:
                run = replays.get(architecture)
                if not isinstance(run, dict):
                    problems.append("%s.replay.%s missing" % (section_name, architecture))
                    continue
                for key, kind in _RUN_KEYS.items():
                    value = run.get(key)
                    if kind is float and isinstance(value, int):
                        value = float(value)
                    if not isinstance(value, kind):
                        problems.append(
                            "%s.replay.%s.%s missing or mistyped"
                            % (section_name, architecture, key)
                        )
    speedup = payload.get("speedup")
    if isinstance(speedup, dict):
        for architecture in ARCHITECTURES:
            if architecture not in speedup:
                problems.append("speedup.%s missing" % architecture)
    return problems


# --- measurement --------------------------------------------------------


def _trace_blocks(trace) -> int:
    return sum(trace.nblocks)


def _bench_one(architecture: str, trace, config, repeats: int) -> Dict:
    """Best-of-``repeats`` wall time of one pinned-seed replay."""
    walls = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_simulation(trace, config)
        walls.append(time.perf_counter() - start)
    blocks = _trace_blocks(trace)
    wall = min(walls)
    return {
        "wall_s": round(wall, 4),
        "blocks": blocks,
        "blocks_per_sec": round(blocks / wall, 1),
        "records": len(trace),
        "signature": result_signature(result),
    }


def _profile_one(architecture: str, trace, config, top: int = 10) -> List[Dict]:
    """cProfile top-``top`` (by cumulative time) of one replay."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_simulation(trace, config)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict] = []
    for func in stats.fcn_list[:top]:  # (file, line, name)
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        short = Path(filename).name if filename != "~" else "builtin"
        rows.append(
            {
                "function": "%s:%d(%s)" % (short, line, name),
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    return rows


def _bench_sweep(trace, scale: int, workers: int, repeats: int) -> Dict:
    """Sweep-engine scaling: the same points serially and fanned out."""
    configs = [
        baseline_config(
            flash_gb=flash_gb,
            scale=scale,
            architecture=Architecture.parse(architecture),
        )
        for architecture in ARCHITECTURES
        for flash_gb in (32.0, 64.0)
    ]

    def timed(n_workers: int) -> float:
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_sweep(trace, configs, workers=n_workers)
            walls.append(time.perf_counter() - start)
        return min(walls)

    serial = timed(1)
    parallel = timed(workers)
    points = len(configs)
    return {
        "points": points,
        "workers": workers,
        "serial_wall_s": round(serial, 4),
        "parallel_wall_s": round(parallel, 4),
        "points_per_sec_serial": round(points / serial, 2),
        "points_per_sec_parallel": round(points / parallel, 2),
        "parallel_speedup": round(serial / parallel, 2),
    }


def _bench_chunked(trace, replay: Dict[str, Dict], scale: int) -> Dict:
    """Streamed-replay identity gate: the same trace spooled into its
    bounded-memory chunked form must reproduce every materialized
    replay signature bit for bit (and we record its throughput).

    The section is *additive* — not part of the required schema — so
    older BENCH_replay.json files stay valid; but a signature mismatch
    fails the benchmark run itself (see ``main``).
    """
    from repro.traces.chunked import ChunkedCompiledTrace

    chunked = ChunkedCompiledTrace.from_trace(trace)
    runs: Dict[str, Dict] = {}
    mismatches: List[str] = []
    try:
        for architecture in ARCHITECTURES:
            config = baseline_config(
                scale=scale, architecture=Architecture.parse(architecture)
            )
            start = time.perf_counter()
            result = run_simulation(chunked, config)
            wall = time.perf_counter() - start
            signature = result_signature(result)
            reference = replay[architecture]["signature"]
            identical = signature == reference
            if not identical:
                mismatches.extend(
                    "%s.%s: %r != %r"
                    % (architecture, key, reference.get(key), signature.get(key))
                    for key in reference
                    if reference.get(key) != signature.get(key)
                )
            blocks = replay[architecture]["blocks"]
            runs[architecture] = {
                "wall_s": round(wall, 4),
                "blocks_per_sec": round(blocks / wall, 1),
                "identical": identical,
            }
    finally:
        chunked.delete()
    return {
        "replay": runs,
        "identical": not mismatches,
        "mismatches": mismatches[:10],
    }


def measure(scale: int, fast: bool, repeats: int, sweep_workers: int) -> Dict:
    """Run the whole benchmark once and return one baseline/post section."""
    volume_multiple = 2.0 if fast else 4.0
    trace = baseline_trace(scale=scale, volume_multiple=volume_multiple)
    replay: Dict[str, Dict] = {}
    profile: Dict[str, List[Dict]] = {}
    for architecture in ARCHITECTURES:
        config = baseline_config(
            scale=scale, architecture=Architecture.parse(architecture)
        )
        replay[architecture] = _bench_one(architecture, trace, config, repeats)
        profile[architecture] = _profile_one(architecture, trace, config)
    sweep = _bench_sweep(trace, scale, sweep_workers, max(1, repeats - 1))
    chunked = _bench_chunked(trace, replay, scale)
    return {
        "replay": replay,
        "sweep": sweep,
        "profile": profile,
        "chunked": chunked,
    }


# --- merging and drift checks -------------------------------------------


def _signature_drift(baseline: Dict, post: Dict) -> List[str]:
    """Compare per-architecture result signatures between sections."""
    problems: List[str] = []
    for architecture in ARCHITECTURES:
        base_run = baseline.get("replay", {}).get(architecture)
        post_run = post.get("replay", {}).get(architecture)
        if base_run is None or post_run is None:
            continue
        base_sig, post_sig = base_run["signature"], post_run["signature"]
        for key in base_sig:
            if base_sig.get(key) != post_sig.get(key):
                problems.append(
                    "%s.%s: %r != %r"
                    % (architecture, key, base_sig.get(key), post_sig.get(key))
                )
    return problems


def merge_payload(
    existing: Optional[Dict],
    current: Dict,
    scale: int,
    fast: bool,
    reset_baseline: bool,
) -> Dict:
    """Fold a fresh measurement into the persistent payload."""
    baseline = current
    if (
        existing is not None
        and not reset_baseline
        and existing.get("scale") == scale
        and existing.get("fast") == fast
        and isinstance(existing.get("baseline"), dict)
    ):
        baseline = existing["baseline"]
    speedup = {}
    for architecture in ARCHITECTURES:
        base_bps = baseline["replay"][architecture]["blocks_per_sec"]
        post_bps = current["replay"][architecture]["blocks_per_sec"]
        speedup[architecture] = round(post_bps / base_bps, 3) if base_bps else None
    return {
        "schema": SCHEMA_VERSION,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "scale": scale,
        "fast": fast,
        "baseline": baseline,
        "post": current,
        "speedup": speedup,
    }


# --- CLI ----------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/replay_hotpath.py",
        description="Pinned-seed replay hot-path benchmark "
        "(writes BENCH_replay.json).",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI-sized run: coarser geometry, fewer repeats",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="explicit geometry divisor (default: REPRO_SCALE_DIVISOR, 4x for --fast)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--sweep-workers",
        type=int,
        default=2,
        help="worker processes for the sweep scaling phase",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_replay.json",
        help="output JSON path (default: repo-root BENCH_replay.json)",
    )
    parser.add_argument(
        "--reset-baseline",
        action="store_true",
        help="discard the stored baseline and restart it from this run",
    )
    parser.add_argument(
        "--allow-signature-drift",
        action="store_true",
        help="do not fail when post signatures differ from the baseline",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="FILE",
        help="only validate FILE against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        payload = json.loads(args.check.read_text())
        problems = validate_payload(payload)
        if problems:
            print("schema validation FAILED for %s:" % args.check)
            for problem in problems:
                print("  - %s" % problem)
            return 2
        print("schema OK: %s" % args.check)
        return 0

    scale = args.scale if args.scale is not None else (
        DEFAULT_SCALE * 4 if args.fast else DEFAULT_SCALE
    )
    repeats = args.repeats if args.repeats is not None else (1 if args.fast else 3)

    current = measure(scale, args.fast, repeats, args.sweep_workers)

    existing = None
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except (ValueError, OSError):
            existing = None
    payload = merge_payload(existing, current, scale, args.fast, args.reset_baseline)

    problems = validate_payload(payload)
    if problems:
        print("internal error: emitted payload fails its own schema:")
        for problem in problems:
            print("  - %s" % problem)
        return 2

    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for architecture in ARCHITECTURES:
        run = payload["post"]["replay"][architecture]
        print(
            "%-10s %8.3fs  %10.0f blocks/s  (speedup vs baseline: %sx)"
            % (
                architecture,
                run["wall_s"],
                run["blocks_per_sec"],
                payload["speedup"][architecture],
            )
        )
    sweep = payload["post"]["sweep"]
    print(
        "sweep      %d points: serial %.3fs, %d workers %.3fs (%.2fx)"
        % (
            sweep["points"],
            sweep["serial_wall_s"],
            sweep["workers"],
            sweep["parallel_wall_s"],
            sweep["parallel_speedup"],
        )
    )

    chunked = payload["post"].get("chunked")
    if chunked is not None:
        if not chunked.get("identical", True):
            print("chunked replay signature mismatch vs materialized:")
            for problem in chunked.get("mismatches", [])[:10]:
                print("  - %s" % problem)
            return 3
        walls = [run["wall_s"] for run in chunked["replay"].values()]
        print(
            "chunked    %d replays bit-identical to materialized "
            "(%.3fs total streamed replay)" % (len(walls), sum(walls))
        )

    drift = _signature_drift(payload["baseline"], payload["post"])
    if drift:
        print("result-signature drift vs stored baseline:")
        for problem in drift[:10]:
            print("  - %s" % problem)
        if not args.allow_signature_drift:
            print("refusing to accept drifting results "
                  "(--allow-signature-drift or --reset-baseline to override)")
            return 3
    else:
        print("result signatures: bit-identical to stored baseline")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
