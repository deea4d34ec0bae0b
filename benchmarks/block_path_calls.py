#!/usr/bin/env python
"""Block-path call gate: the ledger's exact per-block counts must hold.

For every ledger workload this runs one traced ``--fast`` ledger run::

    python3 ledger/run.py --workload W --fast --trace 1 --seconds 0.3

(about 3 s each; it only reads the ledger) and parses the run's final
JSON line.  At ``--fast`` the cProfile'd replay is seeded and small, so
its counts per block are exact and repeat identically from run to run
and across CPython versions.

It exits 1 when a workload's run fails its own checks, when
``engine.events_per_block`` or ``engine.resumes_per_block`` differs
from the committed value (the event order is part of the results), or
when ``cache.calls_per_block``, ``host.calls_per_block`` or
``consistency.calls_per_block`` rises above its committed ceiling: each
tier decision on the block path is one operation on the tier's index,
a filer round trip is one generator frame of the network segment, a
single host's directory sees only its ``on_block_write`` calls, a fleet
host notes each copy it holds once, a syncer round with nothing dirty
makes no call, and a helper hop that creeps back shows here first.  The
ceilings sit at least 5 % above the counts measured when they were set.
``net.calls_per_block`` is not capped: the round trip's generator
resumptions count under ``net/``.

Usage::

    python benchmarks/block_path_calls.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = REPO_ROOT / "ledger" / "run.py"

#: workload -> the exact engine counts per block at ``--fast``.
ENGINE = {
    "hit_heavy": {
        "engine.events_per_block": 0.1976318359375,
        "engine.resumes_per_block": 0.57135009765625,
    },
    "miss_heavy": {
        "engine.events_per_block": 3.69680695244605,
        "engine.resumes_per_block": 5.515574650912996,
    },
    "fleet_writes": {
        "engine.events_per_block": 6.313983855650522,
        "engine.resumes_per_block": 7.139957264957265,
    },
}
#: workload -> the most Python calls per block into ``cache/``,
#: ``core/host.py`` and ``core/consistency.py``.
CEILINGS = {
    "hit_heavy": {
        "cache.calls_per_block": 0.58,
        "host.calls_per_block": 1.18,
        "consistency.calls_per_block": 0.053,
    },
    "miss_heavy": {
        "cache.calls_per_block": 8.0,
        "host.calls_per_block": 11.8,
        "consistency.calls_per_block": 0.33,
    },
    "fleet_writes": {
        "cache.calls_per_block": 7.5,
        "host.calls_per_block": 15.1,
        "consistency.calls_per_block": 1.54,
    },
}


def measure(workload: str) -> dict:
    """The final JSON line of one traced ``--fast`` ledger run."""
    command = [
        sys.executable, str(LEDGER),
        "--workload", workload,
        "--fast", "--trace", "1", "--seconds", "0.3",
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=REPO_ROOT)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit("%s failed:\n%s" % (" ".join(command), done.stderr))
    return json.loads(lines[-1])


def main() -> int:
    failures = []
    print("%-12s %-26s %14s %14s" % ("workload", "count", "measured", "committed"))
    for workload in ENGINE:
        result = measure(workload)
        if not result["correct"]:
            failures.append("%s: the ledger run failed its checks" % workload)
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        for name, expected in ENGINE[workload].items():
            print("%-12s %-26s %14.10g %14.10g" % (workload, name, metrics[name], expected))
            if metrics[name] != expected:
                failures.append("%s %s %.10g != %.10g"
                                % (workload, name, metrics[name], expected))
        for name, ceiling in CEILINGS[workload].items():
            print("%-12s %-26s %14.10g %14s" % (workload, name, metrics[name],
                                                "<= %g" % ceiling))
            if metrics[name] > ceiling:
                failures.append("%s %s %.4g > %g" % (workload, name, metrics[name], ceiling))
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("ok: engine counts identical, every call count under its ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
