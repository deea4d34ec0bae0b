"""Golden identity gate for the synthetic trace generator.

The generator's random draw sequence *is* its output: any change to
what it draws, or in which order, changes every trace.  This module
generates a seeds x geometries matrix through both entry points
(``generate_trace(cfg)`` and
``generate_trace_chunked(cfg)``), every :func:`fleet_trace` scenario
and the ledger's miss-heavy file-server model, and requires every
fingerprint to equal the one recorded in
``tests/tracegen_golden.json``.  Every trace's records, which a
columns-backed trace builds on first access, must pack back to that
fingerprint too.

It needs no pytest, so it also runs under interpreters without one::

    PYTHONPATH=src python tests/test_tracegen_golden.py          # check
    PYTHONPATH=src python tests/test_tracegen_golden.py --write  # record

Record the digests only for an intended change of trace content.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

from repro._units import MB, TB
from repro.fsmodel.impressions import ImpressionsConfig, generate_filesystem
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.fleet import SCENARIOS, FleetSpec, fleet_trace
from repro.tracegen.generator import generate_trace, generate_trace_chunked
from repro.traces.records import Trace

GOLDEN = Path(__file__).with_name("tracegen_golden.json")

SEEDS = (1, 42, 2026)

#: name -> (n_hosts, threads_per_host, extra TraceGenConfig fields)
GEOMETRIES: Dict[str, Tuple[int, int, Dict[str, object]]] = {
    # one host, one thread: every host and thread draw is randrange(1)
    "1x1": (1, 1, {}),
    "4x8-private": (4, 8, {"shared_working_set": False}),
    # mean 60 > 50 takes poisson_sample's Gaussian branch
    "3x2-writes-io60": (3, 2, {"write_fraction": 1.0, "io_mean_blocks": 60.0}),
    "2x5-reads-io1": (2, 5, {"write_fraction": 0.0, "io_mean_blocks": 1.0}),
}

#: The ledger's miss_heavy file-server model (1.4 TB at divisor 4096).
_MISS_HEAVY_FS_BYTES = int(1.4 * TB) // 4096


def _config(seed: int, geometry: str) -> TraceGenConfig:
    n_hosts, threads, extra = GEOMETRIES[geometry]
    return TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=64 * MB, max_file_bytes=4 * MB, seed=seed),
        working_set_bytes=8 * MB,
        n_hosts=n_hosts,
        threads_per_host=threads,
        volume_multiple=8.0,
        seed=seed,
        **extra,
    )


#: A point's fingerprints: the trace's own, then (for a trace) the one
#: its records pack to.
Prints = Tuple[str, ...]


def _from_records(trace: Trace) -> str:
    """The fingerprint of ``trace`` rebuilt from its records."""
    rebuilt = Trace(trace.records, trace.file_blocks, trace.warmup_records, trace.metadata)
    return rebuilt.fingerprint


def _materialized(config: TraceGenConfig) -> Prints:
    trace = generate_trace(config)
    return trace.fingerprint, _from_records(trace)


def _chunked(config: TraceGenConfig) -> Prints:
    trace = generate_trace_chunked(config, chunk_records=1000)
    try:
        return trace.fingerprint, _from_records(trace.to_trace())
    finally:
        trace.delete()


def _fleet(spec: FleetSpec, scenario: str) -> Prints:
    trace = fleet_trace(spec, scenario)
    return trace.fingerprint, _from_records(trace)


def _miss_heavy_filesystem() -> Prints:
    model = generate_filesystem(
        ImpressionsConfig(
            total_bytes=_MISS_HEAVY_FS_BYTES,
            max_file_bytes=max(_MISS_HEAVY_FS_BYTES // 64, MB),
        )
    )
    payload = json.dumps([model.file_blocks(), model.popularities()]).encode()
    return (hashlib.sha256(payload).hexdigest(),)


def golden_points() -> Iterator[Tuple[str, Callable[[], Prints]]]:
    """Every point of the matrix: (name, fingerprints thunk)."""
    for seed in SEEDS:
        for geometry in GEOMETRIES:
            config = _config(seed, geometry)
            yield "trace/%s/seed%d" % (geometry, seed), lambda c=config: _materialized(c)
            yield "chunked/%s/seed%d" % (geometry, seed), lambda c=config: _chunked(c)
    small = FleetSpec(n_hosts=8, n_tenants=4, ws_bytes=1 * MB, volume_multiple=2.0)
    for scenario in SCENARIOS:
        yield "fleet/%s" % scenario, lambda s=scenario: _fleet(small, s)
    # the ledger's fleet_writes geometry at --fast: 8 skewed tenants
    ledger = FleetSpec(
        n_hosts=64, n_tenants=8, ws_bytes=8 * MB, write_fraction=0.5, volume_multiple=0.5
    )
    yield "fleet/steady-64x8", lambda: _fleet(ledger, "steady")
    yield "filesystem/miss_heavy", _miss_heavy_filesystem


def golden_fingerprints() -> Dict[str, Prints]:
    return {name: thunk() for name, thunk in golden_points()}


def mismatches() -> Dict[str, Tuple[str, str]]:
    """Points with a fingerprint other than the recorded one:
    name -> (recorded, found); a missing or extra point counts too."""
    recorded = json.loads(GOLDEN.read_text())
    found = golden_fingerprints()
    bad = {}
    for name in sorted(set(recorded) | set(found)):
        want = recorded.get(name, "<absent>")
        for got in found.get(name, ("<absent>",)):
            if got != want:
                bad[name] = (want, got)
                break
    return bad


def test_every_fingerprint_matches():
    assert mismatches() == {}


def test_chunked_matches_materialized():
    recorded = json.loads(GOLDEN.read_text())
    for name, fingerprint in recorded.items():
        if name.startswith("trace/"):
            assert recorded["chunked/" + name[len("trace/"):]] == fingerprint


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        found = golden_fingerprints()
        split = sorted(name for name, prints in found.items() if len(set(prints)) > 1)
        if split:
            sys.exit("records compile to another fingerprint: %s" % ", ".join(split))
        golden = {name: prints[0] for name, prints in found.items()}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print("wrote %s" % GOLDEN)
    elif sys.argv[1:]:
        sys.exit("usage: python tests/test_tracegen_golden.py [--write]")
    else:
        bad = mismatches()
        for name, (recorded, found) in bad.items():
            print("MISMATCH %s: recorded %s, found %s" % (name, recorded, found))
        print("python %d.%d: %d mismatched" % (sys.version_info[:2] + (len(bad),)))
        sys.exit(1 if bad else 0)
