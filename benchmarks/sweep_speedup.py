#!/usr/bin/env python
"""Sweep-engine benchmark: packed-trace replay and fan-out overhead.

The persistent companion of ``benchmarks/replay_hotpath.py``, aimed at
the two costs the packed-trace work attacks:

* **replay** — one pinned-seed ~1M-record replay of a trace's packed
  columns (``repro.traces.records.Trace``), with its full result
  signature;
* **distribution** — a 49-point writeback-policy-matrix sweep, run the
  legacy way (the trace pickled to disk and unpickled, with its rows
  checked, by every worker) and the current way (one binary trace file
  every worker maps zero-copy); every sweep starts and shuts down its own pool.  The
  figure of merit is *overhead*: sweep wall time minus the ideal
  parallel simulation time (summed per-point busy time divided by the
  usable cores), i.e. everything the engine adds on top of simulating;
* **scaling** — the original figure2 serial-vs-parallel sanity check
  (kept for the CI sweep-speedup job and its ``--min-speedup`` gate).

Results merge into ``BENCH_sweep.json`` following the replay_hotpath
conventions: the stored ``baseline`` section survives re-runs of the
same geometry, ``--reset-baseline`` restarts it, and any result
signature drift between baseline and post is an error (exit 3) unless
``--allow-signature-drift`` is given.

Usage::

    PYTHONPATH=src python benchmarks/sweep_speedup.py             # full run
    PYTHONPATH=src python benchmarks/sweep_speedup.py --fast --check
    PYTHONPATH=src python benchmarks/sweep_speedup.py --check BENCH_sweep.json

``--check`` with a FILE argument only validates that file's schema;
bare ``--check`` additionally enforces the distribution target after a
full-size run (it is not enforced under ``--fast``, where the trace is
too small for stable ratios).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._units import MB  # noqa: E402
from repro.core.config import SimConfig, WritebackPolicy  # noqa: E402
from repro.core.simulator import run_simulation  # noqa: E402
from repro.fsmodel.impressions import ImpressionsConfig  # noqa: E402
from repro.sweep import SweepPoint, run_sweep_points  # noqa: E402
from repro.tracegen.config import TraceGenConfig  # noqa: E402
from repro.tracegen.generator import generate_trace  # noqa: E402
from repro.validation.differential import result_signature  # noqa: E402

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Acceptance target, enforced by bare ``--check`` on full-size runs.
DISTRIBUTION_TARGET = 2.0

#: Pinned seed of every benchmark trace (fixed: the benchmark is a
#: regression trajectory, not a sampling experiment).
SEED = 20260806


def _bench_trace(volume_multiple: float) -> TraceGenConfig:
    """The pinned replay workload: RAM-resident working set, short
    requests — the regime where per-record driver overhead (what
    compilation removes) is the largest share of replay time."""
    return TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=64 * MB, max_file_bytes=4 * MB),
        working_set_bytes=4 * MB,
        n_hosts=2,
        threads_per_host=2,
        io_mean_blocks=2.0,
        volume_multiple=volume_multiple,
        seed=SEED,
    )


def _policy_matrix() -> List[SimConfig]:
    """A 7x7 RAM-policy x flash-policy matrix (figure6-style grid)."""
    policies = [
        WritebackPolicy.sync(),
        WritebackPolicy.asynchronous(),
        WritebackPolicy.periodic(10.0),
        WritebackPolicy.periodic(30.0),
        WritebackPolicy.periodic(60.0),
        WritebackPolicy.trickle(30.0),
        WritebackPolicy.delayed(30.0),
    ]
    base = SimConfig.baseline_scaled(1024)
    return [
        SimConfig(
            ram_bytes=base.ram_bytes,
            flash_bytes=base.flash_bytes,
            ram_policy=ram_policy,
            flash_policy=flash_policy,
        )
        for ram_policy in policies
        for flash_policy in policies
    ]


# --- schema -------------------------------------------------------------

_RUN_KEYS = {
    "wall_s": float,
    "blocks": int,
    "blocks_per_sec": float,
    "records": int,
    "signature": dict,
}
_DIST_MODE_KEYS = {
    "wall_s": float,
    "busy_s": float,
    "overhead_s": float,
}
_SECTION_KEYS = {
    "replay": dict,
    "distribution": dict,
    "scaling": dict,
}
_TOP_KEYS = {
    "schema": int,
    "python": str,
    "fast": bool,
    "workers": int,
    "baseline": dict,
    "post": dict,
    "speedup": dict,
}


def validate_payload(payload: Dict) -> List[str]:
    """Validate a BENCH_sweep.json payload; return a list of problems."""
    problems: List[str] = []

    def typed(value, kind) -> bool:
        if kind is float and isinstance(value, int):
            return True
        return isinstance(value, kind)

    for key, kind in _TOP_KEYS.items():
        if key not in payload:
            problems.append("missing top-level key %r" % key)
        elif not typed(payload[key], kind):
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
        replay = section.get("replay")
        if isinstance(replay, dict):
            run = replay.get("compiled")
            if not isinstance(run, dict):
                problems.append("%s.replay.compiled missing" % section_name)
            else:
                for key, kind in _RUN_KEYS.items():
                    if not typed(run.get(key), kind):
                        problems.append(
                            "%s.replay.compiled.%s missing or mistyped"
                            % (section_name, key)
                        )
        distribution = section.get("distribution")
        if isinstance(distribution, dict):
            for mode in ("legacy", "current"):
                run = distribution.get(mode)
                if not isinstance(run, dict):
                    problems.append(
                        "%s.distribution.%s missing" % (section_name, mode)
                    )
                    continue
                for key, kind in _DIST_MODE_KEYS.items():
                    if not typed(run.get(key), kind):
                        problems.append(
                            "%s.distribution.%s.%s missing or mistyped"
                            % (section_name, mode, key)
                        )
            for key in ("points", "overhead_ratio", "identical"):
                if key not in distribution:
                    problems.append("%s.distribution.%s missing" % (section_name, key))
    speedup = payload.get("speedup")
    if isinstance(speedup, dict):
        for key in ("replay_blocks_per_sec", "distribution_overhead"):
            if key not in speedup:
                problems.append("speedup.%s missing" % key)
    return problems


# --- replay: the compiled form -------------------------------------------


def _timed_replay(trace, config, repeats: int) -> Dict:
    walls = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_simulation(trace, config)
        walls.append(time.perf_counter() - start)
    blocks = sum(trace.nblocks)
    wall = min(walls)
    return {
        "wall_s": round(wall, 4),
        "blocks": int(blocks),
        "blocks_per_sec": round(blocks / wall, 1),
        "records": len(trace),
        "signature": result_signature(result),
    }


def _bench_replay(fast: bool, repeats: int) -> Dict:
    volume_multiple = 128.0 if fast else 2048.0
    trace = generate_trace(_bench_trace(volume_multiple))
    config = SimConfig.baseline_scaled(1024)
    return {"compiled": _timed_replay(trace, config, repeats)}


# --- distribution: fan-out overhead of a 49-point sweep ------------------


def _timed_sweep(sweep, workers: int, repeats: int, busy_serial: float) -> Dict:
    """Best-of-``repeats`` overhead of one sweep execution mode;
    ``sweep()`` runs the whole sweep and returns its outcome.

    ``overhead = wall - busy_serial / usable_cores``: what the engine
    spends on worker startup, trace distribution and result collection
    beyond the ideal parallel simulation time.  The busy reference is
    measured *serially* (contention-free), so the metric is honest on
    any core count — on a single core the ideal time is the serial
    sweep itself, and overhead is everything the pool adds on top.
    """
    usable = max(1, min(workers, os.cpu_count() or 1))
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = sweep()
        wall = time.perf_counter() - start
        overhead = max(0.0, wall - busy_serial / usable)
        if best is None or overhead < best[0]:
            best = (overhead, wall, outcome)
    overhead, wall, outcome = best
    return {
        "wall_s": round(wall, 4),
        "busy_s": round(busy_serial, 4),
        "overhead_s": round(overhead, 4),
        "outcome": outcome,
    }


def _bench_distribution(fast: bool, workers: int, repeats: int) -> Dict:
    volume_multiple = 2.0 if fast else 8.0
    trace = generate_trace(_bench_trace(volume_multiple))
    configs = _policy_matrix()
    points = [SweepPoint(config=config, trace=trace) for config in configs]

    # Contention-free busy reference + the ground-truth results both
    # execution modes must reproduce exactly.
    start = time.perf_counter()
    serial = run_sweep_points(points, workers=1)
    busy_serial = time.perf_counter() - start

    # Legacy mode: what every sweep paid before this engine existed —
    # the trace pickled to disk (in the timed call) for every worker to
    # unpickle its own copy.
    def legacy_sweep():
        with tempfile.TemporaryDirectory(prefix="sweep-bench-") as spool:
            pickled = os.path.join(spool, "trace.pkl")
            with open(pickled, "wb") as handle:
                pickle.dump(trace, handle, protocol=4)
            return run_sweep_points(
                [SweepPoint(config=config, trace=pickled) for config in configs],
                workers=workers,
            )

    legacy = _timed_sweep(legacy_sweep, workers, repeats, busy_serial)

    # Current mode: one binary trace file every worker maps zero-copy.
    current = _timed_sweep(
        lambda: run_sweep_points(points, workers=workers),
        workers,
        repeats,
        busy_serial,
    )

    legacy_results = legacy.pop("outcome").results
    current_results = current.pop("outcome").results
    identical = all(
        a.as_dict() == b.as_dict() == c.as_dict()
        for a, b, c in zip(serial.results, legacy_results, current_results)
    )
    # 10 ms noise floor: "overhead below measurement noise" must
    # not turn into an unbounded ratio.
    ratio = legacy["overhead_s"] / max(current["overhead_s"], 0.01)
    return {
        "points": len(points),
        "legacy": legacy,
        "current": current,
        "overhead_ratio": round(ratio, 2),
        "identical": identical,
    }


# --- scaling: the original figure2 serial-vs-parallel check --------------


def _bench_scaling(scale: int, workers: int, fast_grid: bool) -> Dict:
    from repro.experiments import figure2

    def timed(n_workers: int):
        start = time.perf_counter()
        result = figure2.run(scale=scale, fast=fast_grid, workers=n_workers)
        return time.perf_counter() - start, result

    serial_s, serial_result = timed(1)
    parallel_s, parallel_result = timed(workers)
    return {
        "workers": workers,
        "serial_wall_s": round(serial_s, 4),
        "parallel_wall_s": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        "identical": serial_result.rows == parallel_result.rows,
    }


def measure(fast: bool, workers: int, repeats: int, scale: int) -> Dict:
    replay = _bench_replay(fast, repeats)
    distribution = _bench_distribution(fast, workers, max(1, repeats - 1))
    scaling = _bench_scaling(scale, workers, fast_grid=True)
    return {"replay": replay, "distribution": distribution, "scaling": scaling}


# --- merging and drift checks -------------------------------------------


def _signature_drift(baseline: Dict, post: Dict) -> List[str]:
    base_run = baseline.get("replay", {}).get("compiled")
    post_run = post.get("replay", {}).get("compiled")
    if base_run is None or post_run is None:
        return []
    base_sig, post_sig = base_run["signature"], post_run["signature"]
    return [
        "compiled.%s: %r != %r" % (key, base_sig.get(key), post_sig.get(key))
        for key in base_sig
        if base_sig.get(key) != post_sig.get(key)
    ]


def merge_payload(
    existing: Optional[Dict],
    current: Dict,
    fast: bool,
    workers: int,
    reset_baseline: bool,
) -> Dict:
    baseline = current
    if (
        existing is not None
        and not reset_baseline
        and existing.get("fast") == fast
        and existing.get("workers") == workers
        and isinstance(existing.get("baseline"), dict)
    ):
        baseline = existing["baseline"]

    def ratio(select) -> Optional[float]:
        try:
            base, post = select(baseline), select(current)
        except (KeyError, TypeError):
            return None
        return round(post / base, 3) if base else None

    speedup = {
        "replay_blocks_per_sec": ratio(
            lambda s: s["replay"]["compiled"]["blocks_per_sec"]
        ),
        # Overheads shrink, so baseline/post > 1 means "got faster".
        "distribution_overhead": ratio(
            lambda s: 1.0 / max(s["distribution"]["current"]["overhead_s"], 0.01)
        ),
    }
    return {
        "schema": SCHEMA_VERSION,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "fast": fast,
        "workers": workers,
        "baseline": baseline,
        "post": current,
        "speedup": speedup,
    }


# --- CLI ----------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/sweep_speedup.py",
        description="Packed-trace replay and sweep fan-out benchmark "
        "(writes BENCH_sweep.json).",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--fast", action="store_true", help="CI-sized run: smaller traces, one repeat"
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=int(os.environ.get("REPRO_SCALE_DIVISOR", "4096")),
        help="geometry divisor for the figure2 scaling phase",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit nonzero unless the figure2 parallel speedup meets this bound",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_sweep.json",
        help="output JSON path (default: repo-root BENCH_sweep.json)",
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
        nargs="?",
        const=True,
        default=None,
        metavar="FILE",
        help="with FILE: only validate FILE against the schema and exit; "
        "bare: also enforce the speedup targets after this run "
        "(full-size runs only)",
    )
    args = parser.parse_args(argv)

    if args.check not in (None, True):
        payload = json.loads(Path(args.check).read_text())
        problems = validate_payload(payload)
        if problems:
            print("schema validation FAILED for %s:" % args.check)
            for problem in problems:
                print("  - %s" % problem)
            return 2
        print("schema OK: %s" % args.check)
        return 0

    repeats = args.repeats if args.repeats is not None else (1 if args.fast else 3)
    cores = os.cpu_count() or 1
    print("cores available: %d; sweep workers: %d" % (cores, args.workers))

    current = measure(args.fast, args.workers, repeats, args.scale)

    existing = None
    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except (ValueError, OSError):
            existing = None
    payload = merge_payload(
        existing, current, args.fast, args.workers, args.reset_baseline
    )

    problems = validate_payload(payload)
    if problems:
        print("internal error: emitted payload fails its own schema:")
        for problem in problems:
            print("  - %s" % problem)
        return 2
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    replay = payload["post"]["replay"]["compiled"]
    print(
        "replay     %7.3fs  %10.0f blocks/s  (%d records)"
        % (replay["wall_s"], replay["blocks_per_sec"], replay["records"])
    )
    distribution = payload["post"]["distribution"]
    print(
        "distribute %d points: legacy overhead %.3fs, current %.3fs "
        "(%.2fx less)  identical: %s"
        % (
            distribution["points"],
            distribution["legacy"]["overhead_s"],
            distribution["current"]["overhead_s"],
            distribution["overhead_ratio"],
            distribution["identical"],
        )
    )
    scaling = payload["post"]["scaling"]
    print(
        "figure2    serial %.2fs, %d workers %.2fs (%.2fx)  identical: %s"
        % (
            scaling["serial_wall_s"],
            scaling["workers"],
            scaling["parallel_wall_s"],
            scaling["parallel_speedup"],
            scaling["identical"],
        )
    )

    failures: List[str] = []
    if not distribution["identical"]:
        failures.append("legacy and current distribution results differ")
    if not scaling["identical"]:
        failures.append("parallel figure2 results differ from serial")
    if args.min_speedup is not None and (
        scaling["parallel_speedup"] is None
        or scaling["parallel_speedup"] < args.min_speedup
    ):
        failures.append(
            "figure2 speedup %s below required %.2fx"
            % (scaling["parallel_speedup"], args.min_speedup)
        )
    if (
        args.check is True
        and not args.fast
        and distribution["overhead_ratio"] < DISTRIBUTION_TARGET
    ):
        failures.append(
            "distribution overhead ratio %.2fx below the %.1fx target"
            % (distribution["overhead_ratio"], DISTRIBUTION_TARGET)
        )
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1

    drift = _signature_drift(payload["baseline"], payload["post"])
    if drift:
        print("result-signature drift vs stored baseline:")
        for problem in drift[:10]:
            print("  - %s" % problem)
        if not args.allow_signature_drift:
            print(
                "refusing to accept drifting results "
                "(--allow-signature-drift or --reset-baseline to override)"
            )
            return 3
    else:
        print("result signatures: bit-identical to stored baseline")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
