"""Golden identity gate for the eviction policies.

How a policy stores its eviction order is an implementation detail;
which block it evicts is a result.  This module replays every
eviction policy on every architecture at two cache sizes, plus ACP
cleaning on the layered stacks and a 16-host LRU fleet, and requires
the sha256 of each replay's :func:`full_signature` to equal the one
recorded in ``tests/eviction_golden.json``.  At the ``small`` size the
flash tier evicts on most misses, so a changed victim shows.

It needs no pytest::

    PYTHONPATH=src python tests/test_eviction_golden.py          # check
    PYTHONPATH=src python tests/test_eviction_golden.py --write  # record

Record the digests only for an intended change of eviction results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.policies import WritebackPolicy
from repro.core.simulator import run_simulation
from repro.experiments.common import baseline_config
from repro.fsmodel.impressions import ImpressionsConfig
from repro.policies.cleaning import AggressiveClean
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.fleet import FleetSpec, fleet_trace
from repro.tracegen.generator import generate_trace
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.validation.differential import full_signature

GOLDEN = Path(__file__).with_name("eviction_golden.json")

#: Geometry divisor: paper GB -> 64 KB, p1 ticks every 61 us.
SCALE = 16384
POLICIES = ("lru", "fifo", "clock", "slru", "slru:0.5")
ARCHITECTURES = ("naive", "lookaside", "unified", "exclusive")
#: size -> (RAM GB, flash GB) before scaling.  Against the 2,048-block
#: working set, ``large`` is 128 RAM and 1,024 flash blocks and
#: ``small`` is 32 and 128.
SIZES = {"large": (8.0, 64.0), "small": (2.0, 8.0)}


@lru_cache(maxsize=None)
def _trace() -> CompiledTrace:
    return compile_trace(
        generate_trace(
            TraceGenConfig(
                fs=ImpressionsConfig(total_bytes=64 * MB, max_file_bytes=4 * MB, seed=7),
                working_set_bytes=8 * MB,
                threads_per_host=4,
                volume_multiple=3.0,
                seed=7,
            )
        )
    )


@lru_cache(maxsize=None)
def _fleet_trace() -> CompiledTrace:
    spec = FleetSpec(n_hosts=16, n_tenants=4, ws_bytes=2 * MB, volume_multiple=4.0, seed=7)
    return compile_trace(fleet_trace(spec, "steady"))


def _config(policy: str, architecture: str, size: str, **overrides) -> SimConfig:
    ram_gb, flash_gb = SIZES[size]
    return baseline_config(
        ram_gb=ram_gb,
        flash_gb=flash_gb,
        scale=SCALE,
        architecture=Architecture(architecture),
        eviction_policy=policy,
        **overrides,
    )


def golden_points() -> Iterator[Tuple[str, int, SimConfig]]:
    """Every ``(name, n_hosts, config)`` point of the identity matrix."""
    for policy in POLICIES:
        for architecture in ARCHITECTURES:
            for size in SIZES:
                name = "%s %s %s" % (policy, architecture, size)
                yield name, 1, _config(policy, architecture, size)
    # ACP drains a dirty backlog that only it cleans (flash policy n);
    # lookaside flash never holds dirty data, so there it must stay idle.
    for architecture in ("naive", "lookaside"):
        for size in SIZES:
            config = _config(
                "lru", architecture, size, flash_policy=WritebackPolicy.none()
            ).with_policies(flash_cleaning=AggressiveClean(high_fraction=0.25))
            yield "lru %s %s acp" % (architecture, size), 1, config
    yield "lru naive small 16h", 16, _config("lru", "naive", "small")


def point_digest(n_hosts: int, config: SimConfig) -> str:
    trace = _trace() if n_hosts == 1 else _fleet_trace()
    result = run_simulation(trace, config, n_hosts=n_hosts)
    encoded = json.dumps(full_signature(result), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def golden_digests() -> Dict[str, str]:
    return {
        name: point_digest(n_hosts, config)
        for name, n_hosts, config in golden_points()
    }


def mismatches() -> Dict[str, Tuple[str, str]]:
    """Points whose digest differs from the recorded one:
    name -> (recorded, found); a missing or extra point counts too."""
    recorded = json.loads(GOLDEN.read_text())
    found = golden_digests()
    return {
        name: (recorded.get(name, "<absent>"), found.get(name, "<absent>"))
        for name in sorted(set(recorded) | set(found))
        if recorded.get(name) != found.get(name)
    }


def test_every_digest_matches():
    assert mismatches() == {}


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n")
        print("wrote %s" % GOLDEN)
    elif sys.argv[1:]:
        sys.exit("usage: python tests/test_eviction_golden.py [--write]")
    else:
        bad = mismatches()
        for name, (recorded, found) in bad.items():
            print("MISMATCH %s: recorded %s, found %s" % (name, recorded, found))
        print("%d mismatched" % len(bad))
        sys.exit(1 if bad else 0)
