#!/usr/bin/env python3
"""Replay ledger: the repository's benchmark.

Run from the repository root::

    python3 ledger/run.py --workload miss_heavy --seed 42 --seconds 20 --trace 0
    python3 ledger/run.py                  # every workload, untraced and traced
    python3 ledger/run.py --fast --seconds 1
    python3 ledger/run.py --spread 10      # same-code spread -> ledger/observed.json
    python3 ledger/run.py --write-spec     # regenerate BENCHMARK.json

A ``--workload`` run builds that workload from ``--seed``, replays it
serially for ``--seconds`` and prints one line per metric (name, value,
unit), a ``provenance`` line, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, timed with no
tracing; ``--trace 1`` gives the per-layer ones from spans around the
public calls plus one cProfile'd replay.  Times are in reference
seconds, corrected for the machine's drifting speed (see ``clock.py``).
Every replay's results are checked (see ``workloads.Checks``); a run
with a failed check exits 1.
Without ``--workload`` every workload runs, untraced and traced, each
in a process of its own, and the two runs' results must agree.
``--fast`` shrinks every trace for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # Never fall back to some other installed copy of the program.
    raise SystemExit("%s holds no repro package: run from a repository checkout" % SRC)
sys.path.insert(0, str(SRC))

from repro import run_simulation  # noqa: E402
from repro.core.machine import System  # noqa: E402
from repro.core.simulator import results_from_system  # noqa: E402
from repro.engine.compiled import kernel_eligible  # noqa: E402
from repro.traces import CompiledTrace  # noqa: E402

from clock import ReferenceClock  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Checks, Workload, set_up  # noqa: E402

#: How long one run measures; BENCHMARK.json's run_seconds.
RUN_SECONDS = 20

#: Set-up repeats until this share of --seconds has passed (and at
#: least MIN_REPEATS times): a sub-second phase is never timed once.
SETUP_SHARE = 0.25
MIN_REPEATS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end metrics only: the share of the parent's median by
    #: which the metric may worsen before a change is rejected
    bound: Optional[float] = None


END_TO_END = (
    Metric("blocks_per_s", "blocks/s", "higher", 0.2),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PHASE_SPANS = (
    "tracegen.generate_s",
    "traces.compile_s",
    "machine.build_s",
    "machine.replay_s",
    "results.collect_s",
)
SHARE_LAYERS = (
    "engine",
    "engine.compiled",
    "engine.heap",
    "machine",
    "host",
    "cache",
    "flash",
    "net",
    "filer",
    "consistency",
    "metrics",
)
CALL_LAYERS = ("host", "cache", "net", "filer", "flash", "consistency")

PER_LAYER = (
    *(Metric(name, "s", "lower") for name in PHASE_SPANS),
    Metric("profile.overhead_x", "x", "lower"),
    *(Metric(layer + ".self_share", "fraction", "lower") for layer in SHARE_LAYERS),
    Metric("engine.events_per_block", "count/block", "lower"),
    Metric("engine.resumes_per_block", "count/block", "lower"),
    *(Metric(layer + ".calls_per_block", "count/block", "lower") for layer in CALL_LAYERS),
    Metric("cache.ram_hit_ratio", "ratio", "higher"),
    Metric("cache.flash_hit_ratio", "ratio", "higher"),
    Metric("filer.ops_per_block", "count/block", "lower"),
    Metric("flash.writes_per_block", "count/block", "lower"),
    Metric("consistency.invalidations_per_write", "count/write", "lower"),
    Metric("net.utilization", "fraction", "lower"),
)

#: Which end-to-end metric each layer metric should move, on which
#: workloads: (layer metrics, end-to-end metrics, workloads).
LINKS = (
    (
        ("engine.events_per_block", "engine.heap.self_share"),
        ("blocks_per_s",),
        ("miss_heavy", "fleet_writes"),
    ),
    (("engine.compiled.self_share",), ("blocks_per_s",), ("hit_heavy", "miss_heavy")),
    (
        (
            "engine.self_share",
            "engine.resumes_per_block",
            "host.self_share",
            "host.calls_per_block",
            "metrics.self_share",
        ),
        ("blocks_per_s",),
        ("fleet_writes",),
    ),
    (
        (
            "cache.self_share",
            "cache.calls_per_block",
            "net.self_share",
            "net.calls_per_block",
            "filer.self_share",
            "filer.calls_per_block",
        ),
        ("blocks_per_s",),
        ("miss_heavy",),
    ),
    (
        (
            "consistency.self_share",
            "consistency.calls_per_block",
            "machine.build_s",
            "results.collect_s",
        ),
        ("blocks_per_s",),
        ("fleet_writes",),
    ),
    (
        ("tracegen.generate_s", "traces.compile_s"),
        ("setup_s", "peak_rss_mb"),
        ("hit_heavy", "miss_heavy", "fleet_writes"),
    ),
)


# --- per-layer attribution ----------------------------------------------

#: repro source path -> layer, most specific first.
_LAYER_PREFIXES = (
    ("engine/compiled.py", "engine.compiled"),
    ("engine/simulation.py", "engine"),
    ("engine/events.py", "engine"),
    ("engine/resources.py", "engine"),
    ("core/machine.py", "machine"),
    ("core/host.py", "host"),
    ("core/consistency.py", "consistency"),
    ("core/metrics.py", "metrics"),
    ("core/results.py", "results"),
    ("cache/", "cache"),
    ("flash/", "flash"),
    ("net/", "net"),
    ("filer/", "filer"),
    ("tracegen/", "tracegen"),
    ("fsmodel/", "tracegen"),
    ("traces/", "traces"),
)

_HEAPPUSH = "<built-in method _heapq.heappush>"
_GENERATOR_SEND = "<method 'send' of 'generator' objects>"


def layer_of(label: Tuple[str, int, str]) -> Optional[str]:
    """The layer of one cProfile entry; None for a C builtin other than
    the heap's, whose time belongs to its callers."""
    filename, _line, name = label
    if filename == "~":
        return "engine.heap" if name.startswith("<built-in method _heapq.") else None
    _, found, relative = filename.replace(os.sep, "/").rpartition("/repro/")
    if found:
        for prefix, layer in _LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
    return "other"


def profile_layers(stats: Dict, blocks: int) -> Dict[str, float]:
    """Self-time shares and exact per-block call counts by layer from
    ``cProfile.Profile.stats`` of one replay."""
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    events = resumes = 0
    for label, (_primitive, ncalls, tottime, _cumtime, callers) in stats.items():
        layer = layer_of(label)
        if layer is None:
            for caller, (_nc, _cc, caller_tottime, _ct) in callers.items():
                self_time[layer_of(caller) or "other"] += caller_tottime
        else:
            self_time[layer] += tottime
            calls[layer] += ncalls
        if label[2] == _HEAPPUSH:
            events += ncalls
        elif label[2] == _GENERATOR_SEND:
            resumes += ncalls
    total = sum(self_time.values())
    metrics = {layer + ".self_share": self_time[layer] / total for layer in SHARE_LAYERS}
    metrics["engine.events_per_block"] = events / blocks
    metrics["engine.resumes_per_block"] = resumes / blocks
    for layer in CALL_LAYERS:
        metrics[layer + ".calls_per_block"] = calls[layer] / blocks
    return metrics


# --- one workload run ---------------------------------------------------


def _repeat(step: Callable[[], None], seconds: float) -> None:
    """Call ``step`` at least MIN_REPEATS times and until ``seconds``
    have passed, each after a full collection."""
    count = 0
    started = time.perf_counter()
    while count < MIN_REPEATS or time.perf_counter() - started < seconds:
        gc.collect()
        step()
        count += 1


def _repeat_setup(
    workload: Workload, seed: int, fast: bool, clock: ReferenceClock, seconds: float,
    checks: Checks,
) -> Tuple[CompiledTrace, List[float], List[float]]:
    """Set up repeatedly; keep the last trace and every phase time."""
    generate_times: List[float] = []
    compile_times: List[float] = []
    fingerprints = set()
    compiled: Optional[CompiledTrace] = None

    def step() -> None:
        nonlocal compiled
        compiled = None  # so that peak memory is one set-up's
        (compiled, generate_s, compile_s), slowdown = clock.run(
            lambda: set_up(workload, seed, fast, clock.now)
        )
        generate_times.append(generate_s / slowdown)
        compile_times.append(compile_s / slowdown)
        fingerprints.add(compiled.fingerprint)

    _repeat(step, seconds)
    if len(fingerprints) != 1:
        checks.problems.append("seed %d built %d different traces" % (seed, len(fingerprints)))
    return compiled, generate_times, compile_times


def end_to_end(
    workload: Workload, compiled: CompiledTrace, clock: ReferenceClock, checks: Checks,
    seconds: float,
) -> Dict[str, float]:
    """Median blocks/s of back-to-back ``run_simulation`` calls."""
    def replay():
        start = clock.now()
        result = run_simulation(
            compiled, workload.config, n_hosts=workload.n_hosts, parallel_hosts=0
        )
        return clock.now() - start, result

    (_wall, result), _slowdown = clock.run(replay)  # warm, untimed
    checks.check(result)
    times: List[float] = []

    def step() -> None:
        (wall, result), slowdown = clock.run(replay)
        times.append(wall / slowdown)
        checks.check(result)

    _repeat(step, seconds)
    return {"blocks_per_s": sum(compiled.nblocks) / statistics.median(times)}


def traced(
    workload: Workload, compiled: CompiledTrace, clock: ReferenceClock, checks: Checks,
    seconds: float,
) -> Dict[str, float]:
    """Phase spans around the public calls, then one profiled replay."""
    config, n_hosts = workload.config, workload.n_hosts
    spans: Dict[str, List[float]] = defaultdict(list)

    def spanned():
        start = clock.now()
        system = System(config, n_hosts)
        built = clock.now()
        system.replay(compiled)
        replayed = clock.now()
        result = results_from_system(system, config, len(compiled))
        collected = clock.now()
        return (built - start, replayed - built, collected - replayed), result

    def step() -> None:
        (walls, result), slowdown = clock.run(spanned)
        for name, wall in zip(("machine.build_s", "machine.replay_s", "results.collect_s"), walls):
            spans[name].append(wall / slowdown)
        checks.check(result)

    _repeat(step, seconds)
    metrics = {name: statistics.median(times) for name, times in spans.items()}

    def profiled():
        system = System(config, n_hosts)
        profiler = cProfile.Profile()
        start = clock.now()
        profiler.enable()
        system.replay(compiled)
        profiler.disable()
        wall = clock.now() - start
        return wall, profiler, results_from_system(system, config, len(compiled))

    gc.collect()
    (wall, profiler, result), slowdown = clock.run(profiled, sample=False)
    metrics.update(checks.check(result))
    metrics["profile.overhead_x"] = wall / slowdown / metrics["machine.replay_s"]
    profiler.create_stats()
    metrics.update(profile_layers(profiler.stats, sum(compiled.nblocks)))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, fast: bool) -> int:
    workload = WORKLOADS[name]
    checks = Checks(workload, seed, fast)
    clock = ReferenceClock()
    compiled, generate_times, compile_times = _repeat_setup(
        workload, seed, fast, clock, seconds * SETUP_SHARE, checks
    )
    if trace:
        metrics = traced(workload, compiled, clock, checks, seconds)
        metrics["tracegen.generate_s"] = statistics.median(generate_times)
        metrics["traces.compile_s"] = statistics.median(compile_times)
        wanted = PER_LAYER
    else:
        metrics = end_to_end(workload, compiled, clock, checks, seconds)
        metrics["setup_s"] = statistics.median(
            [g + c for g, c in zip(generate_times, compile_times)]
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = END_TO_END
    provenance = {
        "workload": name,
        "seed": seed,
        "fast": fast,
        "trace": trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "records": len(compiled),
        "blocks": sum(compiled.nblocks),
        "engine_path": "compiled"
        if kernel_eligible(System(workload.config, workload.n_hosts))
        else "generator",
        "setups": len(generate_times),
        "slowdown": statistics.median(clock.slowdowns),
        "digest": checks.reference,
        "env": {key: value for key, value in os.environ.items() if key.startswith("REPRO_")},
    }
    for metric in wanted:
        print("%-12s %-36s %-14.6g %s" % (name, metric.name, metrics[metric.name], metric.unit))
    for problem in sorted(set(checks.problems)):
        print("FAILED %s: %s" % (name, problem))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    correct = not checks.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    metric.name: {"value": metrics[metric.name], "unit": metric.unit}
                    for metric in wanted
                },
            }
        )
    )
    return 0 if correct else 1


# --- every workload, spreads, and the spec --------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool, fast: bool):
    """Run one workload in a fresh process; return (exit code, output
    lines, provenance, result)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ] + (["--fast"] if fast else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s failed:\n%s" % (" ".join(command), done.stderr))
    provenance = json.loads(
        next(line for line in lines if line.startswith("provenance "))[len("provenance "):]
    )
    return done.returncode, lines[:-1], provenance, json.loads(lines[-1])


def run_all(seed: int, seconds: float, fast: bool) -> int:
    """Every workload untraced and traced; the two must agree."""
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        digests = []
        for trace in (False, True):
            _code, lines, provenance, result = _child(name, seed, seconds, trace, fast)
            print("\n".join(line for line in lines if not line.startswith("provenance ")))
            digests.append(provenance["digest"])
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and result["correct"]
        print(
            "%-12s path=%s records=%d blocks=%d digest=%s"
            % (name, provenance["engine_path"], provenance["records"],
               provenance["blocks"], digests[0])
        )
        if digests[0] != digests[1]:
            print("FAILED %s: untraced and traced results differ (%s != %s)"
                  % (name, digests[0], digests[1]))
            correct = False
    print("links (layer metric -> end-to-end metric, on workloads):")
    for layer_metrics, moved, workloads in LINKS:
        print("  %s -> %s on %s" % (", ".join(layer_metrics), ", ".join(moved),
                                    ", ".join(workloads)))
    print("cpus=%d python=%s seed=%d" % (os.cpu_count(), platform.python_version(), seed))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    return 0 if correct else 1


def spread(names: Sequence[str], runs: int, seconds: float, fast: bool, out: Path) -> int:
    """Untraced runs of each workload over ``runs`` seeds; write each
    end-to-end metric's quartile spread beside its bound."""
    seeds = [DEFAULT_SEED + index for index in range(runs)]
    report: Dict[str, object] = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
        "links": [list(map(list, link)) for link in LINKS],
    }
    correct = True
    for name in names:
        values: Dict[str, List[float]] = defaultdict(list)
        for seed in seeds:
            code, _lines, provenance, result = _child(name, seed, seconds, False, fast)
            correct = correct and code == 0
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            values["slowdown"].append(provenance["slowdown"])
            print("%-12s seed %-4d %s slowdown %.3f" % (name, seed, " ".join(
                "%s=%.6g" % (metric, entry["value"]) for metric, entry in result["metrics"].items()
            ), provenance["slowdown"]), flush=True)
        summary = {}
        for metric in END_TO_END:
            observed = values[metric.name]
            q1, _, q3 = statistics.quantiles(observed, n=4)
            median = statistics.median(observed)
            summary[metric.name] = {
                "unit": metric.unit,
                "bound": metric.bound,
                "median": median,
                "spread": (q3 - q1) / median,
                "values": observed,
            }
            print("%-12s %-14s spread %6.2f%% (bound %4.0f%%) median %.6g %s" % (
                name, metric.name, 100 * summary[metric.name]["spread"],
                100 * metric.bound, median, metric.unit), flush=True)
        report["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "regime": WORKLOADS[name].regime_rule,
            "engine_path": provenance["engine_path"],
            "records": provenance["records"],
            "blocks": provenance["blocks"],
            "slowdowns": values["slowdown"],
            "metrics": summary,
        }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % out)
    return 0 if correct else 1


def spec() -> Dict[str, object]:
    """BENCHMARK.json, generated from the definitions above."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 ledger/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="tiny traces, for tests")
    parser.add_argument("--spread", type=int, metavar="RUNS",
                        help="untraced runs over RUNS seeds; write ledger/observed.json")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.spread is not None:
        if args.spread < 4:
            parser.error("--spread needs at least 4 runs for quartiles")
        names = [args.workload] if args.workload else list(WORKLOADS)
        return spread(names, args.spread, args.seconds, args.fast, HERE / "observed.json")
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.fast)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.fast)


if __name__ == "__main__":
    sys.exit(main())
