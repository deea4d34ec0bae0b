#!/usr/bin/env python
"""Eviction scaling gate: a cache tier's victim pick must not grow with its size.

For every eviction policy this fills a :class:`~repro.cache.store.BlockStore`
to N entries, replaces every entry once through steady steps, and then
times the steady step: ``pop_victim()`` and one ``put`` of a new block
(SLRU's step also touches the new block, so its protected segment
demotes).  It prints the best-of-5 median cost of one step at 512,
4,096, 16,384 and 65,536 entries.  For CLOCK it also times one victim
pick over a fully referenced store, which sweeps every entry once, and
prints that pick's cost per swept entry at 512, 4,096 and 16,384.

It exits 1 when any policy's 65,536-entry step costs more than 4x its
512-entry step, or when CLOCK's cost per swept entry at 16,384 is more
than 4x that at 512.  A constant-time step passes with room to spare;
a victim pick that walks a structure's dead front slots fails by an
order of magnitude.

Usage::

    python benchmarks/eviction_scaling.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache.store import BlockStore  # noqa: E402

POLICIES = ("lru", "fifo", "clock", "slru")
SIZES = (512, 4096, 16384, 65536)
SWEEP_SIZES = (512, 4096, 16384)
#: The largest size may cost at most this many times the smallest.
LIMIT = 4.0
ROUNDS = 5
#: Timed samples per round, and steps per sample.
SAMPLES = 31
BATCH = 32


def step_cost(policy: str, size: int) -> float:
    """Best-of-``ROUNDS`` median seconds of one steady step."""
    store = BlockStore(size, policy)
    for block in range(size):
        store.put(block)
    pop_victim = store.pop_victim
    put = store.put
    get = store.get
    touch = policy.startswith("slru")
    next_block = size

    def steps(count: int) -> None:
        nonlocal next_block
        for block in range(next_block, next_block + count):
            pop_victim()
            put(block)
            if touch:
                get(block)
        next_block += count

    steps(size)
    best = float("inf")
    clock = time.perf_counter
    for _ in range(ROUNDS):
        samples = []
        for _ in range(SAMPLES):
            start = clock()
            steps(BATCH)
            samples.append((clock() - start) / BATCH)
        best = min(best, statistics.median(samples))
    return best


def clock_sweep_cost(size: int) -> float:
    """Best-of-``ROUNDS`` seconds per entry of one CLOCK victim pick
    that finds every reference bit set."""
    best = float("inf")
    for _ in range(ROUNDS):
        store = BlockStore(size, "clock")
        for block in range(size):
            store.put(block)
        for block in range(size):
            store.get(block)
        start = time.perf_counter()
        store.pop_victim()
        best = min(best, (time.perf_counter() - start) / size)
    return best


def main() -> int:
    failures = []
    print("%-6s %9s %12s" % ("policy", "entries", "step_us"))
    gc.disable()
    try:
        for policy in POLICIES:
            costs = {size: step_cost(policy, size) for size in SIZES}
            for size, cost in costs.items():
                print("%-6s %9d %12.3f" % (policy, size, cost * 1e6))
            ratio = costs[SIZES[-1]] / costs[SIZES[0]]
            print("%-6s %d/%d step cost %.2fx (limit %gx)"
                  % (policy, SIZES[-1], SIZES[0], ratio, LIMIT))
            if ratio > LIMIT:
                failures.append("%s step %.2fx" % (policy, ratio))
        sweeps = {size: clock_sweep_cost(size) for size in SWEEP_SIZES}
        print("%-6s %9s %12s" % ("policy", "entries", "sweep_us/entry"))
        for size, cost in sweeps.items():
            print("%-6s %9d %12.3f" % ("clock", size, cost * 1e6))
        ratio = sweeps[SWEEP_SIZES[-1]] / sweeps[SWEEP_SIZES[0]]
        print("clock  %d/%d sweep cost per entry %.2fx (limit %gx)"
              % (SWEEP_SIZES[-1], SWEEP_SIZES[0], ratio, LIMIT))
        if ratio > LIMIT:
            failures.append("clock sweep %.2fx" % ratio)
    finally:
        gc.enable()
    if failures:
        print("FAIL: cost grows with capacity: %s" % ", ".join(failures))
        return 1
    print("ok: no step grows more than %gx from %d to %d entries"
          % (LIMIT, SIZES[0], SIZES[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
