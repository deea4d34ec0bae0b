#!/usr/bin/env python
"""Fleet-scale parallel-replay benchmark and identity gate.

Replays one pinned-seed multi-tenant fleet trace twice — serially and
with ``run_simulation(parallel_hosts=N)`` sharding host groups across
a worker pool the call owns (:mod:`repro.engine.parallel`) — and
records both wall times into a new additive ``parallel`` section of
``BENCH_replay.json`` (the section is not part of the file's required
schema, so older files stay valid).

Two properties are *gates* (exit 3 on failure), because they hold on
any hardware:

* the parallel engine must actually engage (``last_outcome()`` reports
  a sharded replay, not a silent serial fallback); and
* the merged results must be **bit-identical** to the serial replay,
  down to latency histogram buckets and per-host rows.

The measured ``speedup`` is recorded alongside the partition's
structural bound ``ideal_speedup`` (total rows over the largest
group's rows — what perfect scheduling could achieve).  Wall-clock
speedup is only *enforced* (>= 2x) for runs of at least 8 workers on
a host with a CPU for each; a single-core container can execute the
sharded replay correctly but cannot make it faster.

Usage::

    PYTHONPATH=src python benchmarks/fleet_parallel.py           # 1000-host fleet
    PYTHONPATH=src python benchmarks/fleet_parallel.py --fast    # CI smoke
    PYTHONPATH=src python benchmarks/fleet_parallel.py --workers 2
    PYTHONPATH=src python benchmarks/fleet_parallel.py --check BENCH_replay.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._units import MB  # noqa: E402
from repro.core.policies import WritebackPolicy  # noqa: E402
from repro.core.simulator import run_simulation  # noqa: E402
from repro.engine import parallel as parallel_engine  # noqa: E402
from repro.experiments.common import DEFAULT_SCALE, baseline_config  # noqa: E402
from repro.filer.timing import FilerTiming  # noqa: E402
from repro.tracegen.fleet import FleetSpec, fleet_trace  # noqa: E402
from repro.traces.compiled import compile_trace  # noqa: E402
from repro.traces.partition import analyze_partition, plan_groups  # noqa: E402
from repro.validation.differential import full_signature  # noqa: E402

#: Workers the sharded replay uses by default (``--workers``).
WORKERS = 8

#: Pinned fleet geometry.  ``fast`` shrinks hosts and volume for CI;
#: both are warmup-free (a parallel-eligibility condition) and split
#: into 8 disjoint tenants, so the engine shards them.
_FULL_SPEC = dict(
    n_hosts=1000, n_tenants=8, warmup_fraction=0.0, ws_bytes=96 * MB,
    volume_multiple=6.0,
)
_FAST_SPEC = dict(
    n_hosts=64, n_tenants=8, warmup_fraction=0.0, ws_bytes=8 * MB,
    volume_multiple=4.0,
)

#: Keys the ``--check`` mode requires in the ``parallel`` section.
_PARALLEL_KEYS = {
    "n_hosts": int,
    "records": int,
    "workers": int,
    "groups": int,
    "serial_wall_s": float,
    "parallel_wall_s": float,
    "speedup": float,
    "ideal_speedup": float,
    "cpus": int,
    "engaged": bool,
    "identical": bool,
}


def fleet_point(fast: bool):
    """The pinned benchmark point: ``(spec, compiled trace, config)``."""
    spec = FleetSpec(**(_FAST_SPEC if fast else _FULL_SPEC))
    trace = compile_trace(fleet_trace(spec, "steady"))
    # Parallel-eligible configuration: deterministic filer, syncer-free
    # async write-back on both tiers (see docs/INVARIANTS.md).
    config = baseline_config(
        scale=DEFAULT_SCALE,
        ram_policy=WritebackPolicy.parse("a"),
        flash_policy=WritebackPolicy.parse("a"),
    )
    config = replace(
        config,
        timing=replace(config.timing, filer=FilerTiming(fast_read_rate=1.0)),
    )
    return spec, trace, config


def measure(fast: bool, repeats: int, workers: int = WORKERS) -> Dict:
    """Benchmark one serial-vs-parallel pair; returns the section."""
    spec, trace, config = fleet_point(fast)
    analysis = analyze_partition(trace, spec.n_hosts)
    groups = plan_groups(analysis, workers)
    group_rows = [
        sum(analysis.host_rows.get(host, 0) for host in group) for group in groups
    ]
    ideal = (sum(group_rows) / max(group_rows)) if max(group_rows, default=0) else 1.0

    def timed(parallel_hosts: Optional[int]):
        walls = []
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_simulation(
                trace,
                config,
                n_hosts=spec.n_hosts,
                check_invariants=False,
                parallel_hosts=parallel_hosts,
            )
            walls.append(time.perf_counter() - start)
        return min(walls), result

    serial_wall, serial_result = timed(None)
    parallel_wall, parallel_result = timed(workers)
    outcome = parallel_engine.last_outcome()
    engaged = outcome is not None and outcome.kind == "parallel"
    reference = full_signature(serial_result)
    candidate = full_signature(parallel_result)
    mismatches = [
        "%s: serial %r != parallel %r"
        % (key, reference.get(key), candidate.get(key))
        for key in reference
        if reference.get(key) != candidate.get(key)
    ]
    return {
        "n_hosts": spec.n_hosts,
        "n_tenants": spec.n_tenants,
        "records": len(trace),
        "workers": workers,
        "groups": len(groups),
        "group_rows": group_rows,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 2),
        "ideal_speedup": round(ideal, 2),
        "cpus": os.cpu_count() or 1,
        "engaged": engaged,
        "identical": not mismatches,
        "mismatches": mismatches[:10],
    }


def validate_section(section: object) -> List[str]:
    """Problems with a ``parallel`` section (for ``--check``)."""
    problems: List[str] = []
    if not isinstance(section, dict):
        return ["parallel section missing or not a mapping"]
    for key, kind in _PARALLEL_KEYS.items():
        value = section.get(key)
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind):
            problems.append("parallel.%s missing or mistyped" % key)
    if section.get("engaged") is False:
        problems.append("parallel engine did not engage")
    if section.get("identical") is False:
        problems.append(
            "parallel replay drifted from serial: %s"
            % "; ".join(section.get("mismatches", [])[:3])
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/fleet_parallel.py",
        description="Serial-vs-sharded fleet replay benchmark "
        "(bit-identity gated; speedup recorded).",
    )
    parser.add_argument(
        "--fast", action="store_true", help="small fleet for a CI-sized smoke run"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=WORKERS,
        help="worker processes for the sharded replay (default: %d)" % WORKERS,
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of repeats per leg (default: 2 with --fast, else 1)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=str(REPO_ROOT / "BENCH_replay.json"),
        help="BENCH_replay.json to update (the parallel section is "
        "added or replaced; other sections are preserved)",
    )
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        metavar="FILE",
        help="validate FILE's parallel section instead of benchmarking",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        payload = json.loads(Path(args.check).read_text())
        problems = validate_section(payload.get("parallel"))
        if problems:
            for problem in problems:
                print("FAIL %s" % problem)
            return 1
        section = payload["parallel"]
        print(
            "OK parallel: %d hosts / %d records, %d groups over %d workers, "
            "%.2fx measured (%.2fx ideal) on %d cpu(s), bit-identical"
            % (
                section["n_hosts"],
                section["records"],
                section["groups"],
                section["workers"],
                section["speedup"],
                section["ideal_speedup"],
                section["cpus"],
            )
        )
        return 0

    if args.workers < 2:
        parser.error("--workers must be at least 2")
    repeats = args.repeats if args.repeats is not None else (2 if args.fast else 1)
    section = measure(args.fast, max(1, repeats), args.workers)
    out_path = Path(args.out)
    payload: Dict = {}
    if out_path.exists():
        payload = json.loads(out_path.read_text())
    payload["parallel"] = section
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        "fleet %d hosts, %d records -> %d groups over %d workers"
        % (section["n_hosts"], section["records"], section["groups"], args.workers)
    )
    print(
        "serial %.2fs, parallel %.2fs: %.2fx measured, %.2fx ideal, %d cpu(s)"
        % (
            section["serial_wall_s"],
            section["parallel_wall_s"],
            section["speedup"],
            section["ideal_speedup"],
            section["cpus"],
        )
    )
    if not section["engaged"]:
        print("FAIL parallel engine declined: %s" % (parallel_engine.last_outcome(),))
        return 3
    if not section["identical"]:
        for mismatch in section["mismatches"]:
            print("FAIL signature drift: %s" % mismatch)
        return 3
    print("signatures bit-identical")
    if args.workers < WORKERS or section["cpus"] < args.workers:
        print(
            "note: %d worker(s) on %d cpu(s), the 2x wall-clock target "
            "(%d+ workers, one cpu each) not enforced"
            % (args.workers, section["cpus"], WORKERS)
        )
    elif section["speedup"] < 2.0:
        print(
            "FAIL speedup %.2fx below 2x target on %d cpus"
            % (section["speedup"], section["cpus"])
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
