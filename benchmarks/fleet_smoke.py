#!/usr/bin/env python
"""Fleet-scale consistency smoke benchmark (CI gate).

Proves the fleet-scale claims of the consistency directory and the
multi-tenant scenario family, with hard exits rather than advisory
prints:

1. **Fleet-size construction.**  Building a 1000-host :class:`System`
   (one holder map, slotted host stacks) must finish inside a
   wall-clock budget and a tracemalloc heap budget; ``drop_host`` over
   a populated directory must also stay fast.  A regression to
   per-host dict scans or unslotted per-instance dicts blows either
   budget.

2. **Scenario determinism.**  Every fleet scenario
   (:data:`repro.tracegen.fleet.SCENARIOS`) generates at a pinned seed
   and replays twice; the two replays' result signatures must be
   bit-identical, and the consistency counters must satisfy
   ``writes_requiring_invalidation <= block_writes``.

3. **Latency-model plumbing.**  Replaying the steady scenario with a
   modeled :class:`~repro.net.directory.DirectoryTiming` must surface
   ``invalidation_latency_ns > 0``, while the instant default must
   report exactly zero.

Usage::

    PYTHONPATH=src python benchmarks/fleet_smoke.py                # full gate
    PYTHONPATH=src python benchmarks/fleet_smoke.py --hosts 200    # quicker
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._units import KB, MB  # noqa: E402
from repro.core.config import SimConfig  # noqa: E402
from repro.core.machine import System  # noqa: E402
from repro.core.simulator import run_simulation  # noqa: E402
from repro.net.directory import DirectoryTiming  # noqa: E402
from repro.tracegen.fleet import SCENARIOS, FleetSpec, fleet_trace  # noqa: E402
from repro.validation.differential import result_signature  # noqa: E402

#: wall-clock budget for building the 1000-host System (measured
#: ~0.04 s; the budget absorbs slow shared CI runners).
DEFAULT_BUILD_BUDGET_S = 5.0

#: tracemalloc peak budget for the 1000-host build.
DEFAULT_BUILD_BUDGET_MB = 64

#: tracemalloc peak budget for the scenario generate+replay phase.
DEFAULT_REPLAY_BUDGET_MB = 128

DEFAULT_HOSTS = 1000


def _fleet_config() -> SimConfig:
    """Small per-host caches: the gate times *structure*, not replay."""
    return SimConfig(ram_bytes=512 * KB, flash_bytes=2 * MB)


def phase_build_scale(n_hosts: int, budget_s: float, budget_mb: int) -> Dict:
    """Time and measure a fleet-sized System build plus drop_host."""
    config = _fleet_config()
    tracemalloc.start()
    started = time.perf_counter()
    system = System(config, n_hosts)
    built = time.perf_counter()
    directory = system.directory
    # Populate a holder per host, then retire one host, exercising the
    # restart path's bulk forget at fleet size.
    for host in range(n_hosts):
        directory.note_copy(host, host * 7)
    drop_started = time.perf_counter()
    directory.drop_host(n_hosts - 1)
    dropped = time.perf_counter()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    build_s = built - started
    return {
        "hosts": n_hosts,
        "build_wall_s": round(build_s, 4),
        "drop_host_wall_s": round(dropped - drop_started, 4),
        "budget_s": budget_s,
        "tracemalloc_peak_mb": round(peak / MB, 2),
        "budget_mb": budget_mb,
        "within_budget": build_s <= budget_s and peak / MB <= budget_mb,
    }


def phase_scenarios(budget_mb: int) -> Dict:
    """Generate + replay every scenario twice; check determinism and
    the consistency-counter invariant."""
    spec = FleetSpec(n_hosts=32, n_tenants=4, ws_bytes=1 * MB)
    config = _fleet_config()
    tracemalloc.start()
    started = time.perf_counter()
    scenarios: Dict[str, Dict] = {}
    for scenario in SCENARIOS:
        trace = fleet_trace(spec, scenario)
        first = run_simulation(trace, config, n_hosts=spec.n_hosts)
        second = run_simulation(
            fleet_trace(spec, scenario), config, n_hosts=spec.n_hosts
        )
        scenarios[scenario] = {
            "records": len(trace),
            "inval_pct": round(100.0 * first.invalidation_fraction, 2),
            "deterministic": result_signature(first) == result_signature(second),
            "counters_sane": (
                first.writes_requiring_invalidation <= first.block_writes
            ),
        }
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "scenarios": scenarios,
        "wall_s": round(time.perf_counter() - started, 3),
        "tracemalloc_peak_mb": round(peak / MB, 2),
        "budget_mb": budget_mb,
        "within_budget": peak / MB <= budget_mb,
    }


def phase_latency_model() -> Dict:
    """Instant default reports zero stall; a modeled directory does not."""
    spec = FleetSpec(n_hosts=8, n_tenants=2, ws_bytes=1 * MB)
    trace = fleet_trace(spec, "steady")
    instant_config = _fleet_config()
    modeled_config = replace(
        instant_config,
        timing=instant_config.timing.with_directory(
            DirectoryTiming(lookup_ns=5_000, invalidate_ns=20_000)
        ),
    )
    instant = run_simulation(trace, instant_config, n_hosts=spec.n_hosts)
    modeled = run_simulation(trace, modeled_config, n_hosts=spec.n_hosts)
    return {
        "instant_stall_ns": instant.invalidation_latency_ns,
        "modeled_stall_ns": modeled.invalidation_latency_ns,
        "instant_is_zero": instant.invalidation_latency_ns == 0,
        "modeled_is_positive": modeled.invalidation_latency_ns > 0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/fleet_smoke.py",
        description="Fleet-scale consistency gate.",
    )
    parser.add_argument(
        "--hosts",
        type=int,
        default=DEFAULT_HOSTS,
        help="host count of the construction phase",
    )
    parser.add_argument(
        "--build-budget-s",
        type=float,
        default=DEFAULT_BUILD_BUDGET_S,
        help="wall-clock budget for the System build",
    )
    parser.add_argument(
        "--build-budget-mb",
        type=int,
        default=DEFAULT_BUILD_BUDGET_MB,
        help="tracemalloc peak budget for the System build",
    )
    parser.add_argument(
        "--replay-budget-mb",
        type=int,
        default=DEFAULT_REPLAY_BUDGET_MB,
        help="tracemalloc peak budget for the scenario phase",
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
        "build_scale": phase_build_scale(
            args.hosts, args.build_budget_s, args.build_budget_mb
        ),
        "scenarios": phase_scenarios(args.replay_budget_mb),
        "latency_model": phase_latency_model(),
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    build = report["build_scale"]
    print(
        "build-scale: %d hosts in %.3fs (budget %.1fs), "
        "drop_host %.3fs, peak heap %.1f MB (budget %d MB)"
        % (
            build["hosts"],
            build["build_wall_s"],
            build["budget_s"],
            build["drop_host_wall_s"],
            build["tracemalloc_peak_mb"],
            build["budget_mb"],
        )
    )
    problems: List[str] = []
    if not build["within_budget"]:
        problems.append(
            "%d-host build took %.3fs / %.1f MB (budgets %.1fs / %d MB)"
            % (
                build["hosts"],
                build["build_wall_s"],
                build["tracemalloc_peak_mb"],
                build["budget_s"],
                build["budget_mb"],
            )
        )
    scenario_phase = report["scenarios"]
    for name, row in scenario_phase["scenarios"].items():
        status = row["deterministic"] and row["counters_sane"]
        print(
            "scenario: %-16s %5d records, inval %5.1f%% — %s"
            % (name, row["records"], row["inval_pct"], "OK" if status else "FAIL")
        )
        if not row["deterministic"]:
            problems.append("scenario %s replayed non-deterministically" % name)
        if not row["counters_sane"]:
            problems.append(
                "scenario %s: writes_requiring_invalidation > block_writes" % name
            )
    if not scenario_phase["within_budget"]:
        problems.append(
            "scenario phase peaked at %.1f MB > budget %d MB"
            % (scenario_phase["tracemalloc_peak_mb"], scenario_phase["budget_mb"])
        )
    latency = report["latency_model"]
    print(
        "latency-model: instant %d ns, modeled %d ns of directory stalls"
        % (latency["instant_stall_ns"], latency["modeled_stall_ns"])
    )
    if not latency["instant_is_zero"]:
        problems.append(
            "instant directory reported %d ns of stalls" % latency["instant_stall_ns"]
        )
    if not latency["modeled_is_positive"]:
        problems.append("modeled directory reported zero stall time")
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem)
        return 1
    print("fleet smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
