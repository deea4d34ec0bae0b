"""Degenerate-parameter differential cross-checks.

The cross-check in :mod:`repro.validation.crosscheck` compares the
simulator against an independent reference model; this module compares
the simulator *against itself* at degenerate parameter points where
distinct configurations must provably coincide:

1. **flash = 0 collapses the architectures.**  With no flash tier the
   naive, lookaside, and unified architectures are the same machine (a
   single RAM cache in front of the filer), so their latencies,
   simulated time, filer traffic, writebacks, and network utilization
   must match *exactly* — any drift means one architecture's degenerate
   path charges different costs.  (Cache hit counters are compared only
   between naive and lookaside: the layered read path counts a
   concurrent install as a hit after the initial miss while the unified
   path does not, a documented accounting asymmetry, not a timing
   divergence.)  The exclusive architecture is excluded by design: its
   background demotion staging changes *when* eviction writebacks are
   charged even without flash.

2. **A read-only trace writes nothing back.**  With ``write_fraction=0``
   no block is ever dirty, so writebacks, dirty evictions, and filer
   writes must all be zero, in every architecture.

3. **The s/s policy combination leaves nothing dirty.**  When both
   tiers write through synchronously, every block is clean again by the
   time its operation completes; a pluggable ``zero-dirty`` checker
   (registered via :func:`repro.invariants.registered`) asserts
   ``dirty_count == 0`` on every store after *every* trace record of a
   single-threaded replay.

4. **Chunked replay is the materialized replay.**  Every matrix trace,
   spooled into its bounded-memory chunked form, must replay to a
   bit-identical :func:`full_signature` under every matrix config —
   the streaming pipeline is an implementation of the same semantics,
   not an approximation.

5. **The percentile sketch honors its error bound.**  The streaming
   log-bucket sketch's quantile estimates must land within the
   configured relative error of exact order statistics (merges
   included), so memory-bounded percentile reporting never silently
   degrades.

6. **Fleet scenarios are deterministic.**  Every multi-tenant scenario
   (:mod:`repro.tracegen.fleet`) regenerated at its pinned seed must be
   record-for-record equal and replay bit-identically.

7. **Inline RAM hits are invisible.**  A replay that serves RAM hits
   inline must match the same replay with a breakdown-only Observation
   attached, which sends every block through the host generators.

The sweep-backed identities run over :func:`repro.sweep.run_sweep`
with the :mod:`repro.invariants` sanitizer enabled, so one differential
pass also exercises the full invariant suite.  Run from the command
line with ``python -m repro.validation.differential [--fast]``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.architectures import Architecture
from repro.core.policies import WritebackPolicy
from repro.core.results import SimulationResults
from repro.errors import InvariantViolation
from repro.experiments.common import (
    DEFAULT_SCALE,
    baseline_config,
    baseline_trace,
    shared_fs_model,
    scaled_gb,
)
from repro.invariants import Checker, fail, registered
from repro.sweep import run_sweep
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.records import Trace

#: The three paper architectures that must coincide at flash = 0.
COLLAPSING_ARCHITECTURES = (
    Architecture.NAIVE,
    Architecture.LOOKASIDE,
    Architecture.UNIFIED,
)

ALL_ARCHITECTURES = tuple(Architecture)


# --- result signatures --------------------------------------------------


def result_signature(result: SimulationResults) -> Dict[str, object]:
    """The fields two behaviorally identical runs must agree on exactly."""
    tiers = result.tier_stats
    return {
        "read_mean_us": result.read_latency.mean_us,
        "read_blocks": result.read_latency.count,
        "write_mean_us": result.write_latency.mean_us,
        "write_blocks": result.write_latency.count,
        "simulated_ns": result.simulated_ns,
        "measured_ns": result.measured_ns,
        "writebacks": sum(t.get("writebacks", 0) for t in tiers.values()),
        "filer_fast_reads": result.filer_fast_reads,
        "filer_slow_reads": result.filer_slow_reads,
        "filer_writes": result.filer_writes,
        "flash_blocks_read": result.flash_blocks_read,
        "flash_blocks_written": result.flash_blocks_written,
        "network_utilization": result.network_utilization,
    }


def _signature_diff(
    reference: Dict[str, object], other: Dict[str, object]
) -> List[str]:
    return [
        "%s: %r != %r" % (key, reference[key], other[key])
        for key in reference
        if reference[key] != other[key]
    ]


def _latency_fingerprint(stat) -> Dict[str, object]:
    """Every raw field of a LatencyStat (exact integers, no rounding)."""
    return {
        "count": stat.count,
        "total_ns": stat.total_ns,
        "min_ns": stat.min_ns,
        "max_ns": stat.max_ns,
        "buckets": list(stat._buckets),
    }


def full_signature(result: SimulationResults) -> Dict[str, object]:
    """Bit-exact fingerprint of *all* :class:`SimulationResults` fields.

    Used to prove that a performance change left every simulated result
    untouched: two runs of behaviorally identical code must produce
    equal full signatures, down to histogram bucket counts and per-host
    breakdowns.  (``result_signature`` above is the smaller cross-config
    identity set; this one is the cross-*version* identity set.)
    """
    timeline = None
    if result.read_timeline is not None:
        timeline = {
            "bucket_ns": result.read_timeline.bucket_ns,
            "sums": {str(k): v for k, v in sorted(result.read_timeline._sums.items())},
            "counts": {
                str(k): v for k, v in sorted(result.read_timeline._counts.items())
            },
        }
    return {
        "config": result.config_description,
        "read_latency": _latency_fingerprint(result.read_latency),
        "write_latency": _latency_fingerprint(result.write_latency),
        "read_request_latency": _latency_fingerprint(result.read_request_latency),
        "write_request_latency": _latency_fingerprint(result.write_request_latency),
        "simulated_ns": result.simulated_ns,
        "measured_ns": result.measured_ns,
        "records_replayed": result.records_replayed,
        "blocks_read": result.blocks_read,
        "blocks_written": result.blocks_written,
        "tier_stats": result.tier_stats,
        "filer_fast_reads": result.filer_fast_reads,
        "filer_slow_reads": result.filer_slow_reads,
        "filer_writes": result.filer_writes,
        "flash_blocks_read": result.flash_blocks_read,
        "flash_blocks_written": result.flash_blocks_written,
        "flash_write_amplification": result.flash_write_amplification,
        "network_utilization": result.network_utilization,
        "read_timeline": timeline,
        "per_host": result.per_host,
        "block_writes": result.block_writes,
        "writes_requiring_invalidation": result.writes_requiring_invalidation,
        "copies_invalidated": result.copies_invalidated,
    }


def _matrix_families(scale: int):
    """The differential matrix: ``(family, trace, configs, names)`` rows.

    Covers the three degenerate families (flash=0 collapse, read-only,
    s/s single-thread) plus the standard baseline, across every
    architecture — the fixed 15-point set a performance PR must
    reproduce bit-identically.  Shared by :func:`matrix_signatures`
    (dump/compare) and :func:`check_chunked_replay_identity` (the
    streaming-replay identity), so both gates always cover the same
    points with the same traces.
    """
    base = baseline_trace(scale=scale)
    all_names = [architecture.value for architecture in ALL_ARCHITECTURES]
    return [
        (
            "baseline",
            base,
            [
                baseline_config(scale=scale, architecture=architecture)
                for architecture in ALL_ARCHITECTURES
            ],
            all_names,
        ),
        (
            "flash-zero",
            base,
            [
                baseline_config(flash_gb=0, scale=scale, architecture=architecture)
                for architecture in COLLAPSING_ARCHITECTURES
            ],
            [architecture.value for architecture in COLLAPSING_ARCHITECTURES],
        ),
        (
            "read-only",
            baseline_trace(write_fraction=0.0, scale=scale),
            [
                baseline_config(scale=scale, architecture=architecture)
                for architecture in ALL_ARCHITECTURES
            ],
            all_names,
        ),
        (
            "sync-single-thread",
            _single_thread_trace(scale),
            [
                baseline_config(
                    scale=scale,
                    architecture=architecture,
                    ram_policy=WritebackPolicy.sync(),
                    flash_policy=WritebackPolicy.sync(),
                )
                for architecture in ALL_ARCHITECTURES
            ],
            all_names,
        ),
    ]


def matrix_signatures(
    scale: int = DEFAULT_SCALE, workers: Optional[int] = None
) -> Dict[str, Dict[str, object]]:
    """Full signatures for every point of the differential matrix (see
    :func:`_matrix_families`).  Dump/compare via the CLI's
    ``--dump-signatures`` and ``--compare-signatures``.
    """
    signatures: Dict[str, Dict[str, object]] = {}
    for family, trace, configs, names in _matrix_families(scale):
        for name, result in zip(names, run_sweep(trace, configs, workers=workers)):
            signatures["%s/%s" % (family, name)] = full_signature(result)
    return signatures


# --- report types -------------------------------------------------------


@dataclass
class DifferentialCheck:
    """Outcome of one degenerate-parameter identity."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class DifferentialReport:
    """All differential checks of one harness run."""

    checks: List[DifferentialCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            line = "%-28s %s" % (check.name, status)
            if check.detail:
                line += "  (%s)" % check.detail
            lines.append(line)
        return "\n".join(lines)


# --- trace sources ------------------------------------------------------


def _single_thread_trace(scale: int, write_fraction: float = 0.30) -> Trace:
    """A one-host, one-thread trace: with a single application thread,
    every record boundary is a fully quiescent point, which the
    zero-dirty identity needs (concurrent threads legitimately expose
    another thread's mid-operation dirty window)."""
    model = shared_fs_model(scale)
    config = TraceGenConfig(
        working_set_bytes=scaled_gb(60.0, scale),
        n_hosts=1,
        threads_per_host=1,
        write_fraction=write_fraction,
        volume_multiple=2.0,
        seed=42,
    )
    return generate_trace(config, model=model)


# --- the identities -----------------------------------------------------


def check_flash_zero_collapse(
    scale: int = DEFAULT_SCALE, workers: Optional[int] = None
) -> DifferentialCheck:
    """flash=0 must make naive, lookaside, and unified coincide."""
    trace = baseline_trace(scale=scale)
    configs = [
        baseline_config(
            flash_gb=0,
            scale=scale,
            architecture=architecture,
            check_invariants=True,
            invariant_check_interval=64,
        )
        for architecture in COLLAPSING_ARCHITECTURES
    ]
    results = run_sweep(trace, configs, workers=workers)
    signatures = [result_signature(result) for result in results]
    problems: List[str] = []
    for architecture, signature in zip(COLLAPSING_ARCHITECTURES[1:], signatures[1:]):
        for diff in _signature_diff(signatures[0], signature):
            problems.append("naive vs %s: %s" % (architecture, diff))
    # Naive and lookaside share the layered code path, so even the
    # cache counters must agree bit for bit.
    naive_tiers, lookaside_tiers = results[0].tier_stats, results[1].tier_stats
    if naive_tiers != lookaside_tiers:
        problems.append(
            "naive vs lookaside tier stats: %r != %r"
            % (naive_tiers, lookaside_tiers)
        )
    if problems:
        return DifferentialCheck(
            "flash-zero-collapse", False, "; ".join(problems[:4])
        )
    return DifferentialCheck(
        "flash-zero-collapse",
        True,
        "%d architectures, %d signature fields identical"
        % (len(COLLAPSING_ARCHITECTURES), len(signatures[0])),
    )


def check_read_only_zero_writebacks(
    scale: int = DEFAULT_SCALE, workers: Optional[int] = None
) -> DifferentialCheck:
    """write_fraction=0 must produce zero writebacks everywhere."""
    trace = baseline_trace(write_fraction=0.0, scale=scale)
    configs = [
        baseline_config(
            scale=scale,
            architecture=architecture,
            check_invariants=True,
            invariant_check_interval=64,
        )
        for architecture in ALL_ARCHITECTURES
    ]
    results = run_sweep(trace, configs, workers=workers)
    problems: List[str] = []
    for architecture, result in zip(ALL_ARCHITECTURES, results):
        writebacks = sum(
            t.get("writebacks", 0) for t in result.tier_stats.values()
        )
        dirty_evictions = sum(
            t.get("dirty_evictions", 0) for t in result.tier_stats.values()
        )
        for label, value in (
            ("writebacks", writebacks),
            ("dirty_evictions", dirty_evictions),
            ("filer_writes", result.filer_writes),
            ("measured_write_blocks", result.write_latency.count),
        ):
            if value != 0:
                problems.append("%s: %s = %d" % (architecture, label, value))
    if problems:
        return DifferentialCheck(
            "read-only-zero-writebacks", False, "; ".join(problems[:4])
        )
    return DifferentialCheck(
        "read-only-zero-writebacks",
        True,
        "%d architectures wrote nothing back" % len(ALL_ARCHITECTURES),
    )


class ZeroDirtyChecker(Checker):
    """Custom invariant: no store holds a dirty block at any check point.

    Only sound for write-through-everywhere (s/s) configurations on a
    single application thread; the differential harness registers it
    for exactly that run via :func:`repro.invariants.registered`.
    """

    name = "zero-dirty"

    def check(self, system) -> None:
        for host in system.hosts:
            for attribute in ("ram", "flash", "cache"):
                store = getattr(host, attribute, None)
                if store is not None and store.dirty_count:
                    fail(
                        self.name,
                        "host %d: %s holds %d dirty blocks under s/s"
                        % (host.host_id, attribute, store.dirty_count),
                        system.sim.now,
                        host=host.host_id,
                        tier=attribute,
                        dirty=store.dirty_blocks()[:8],
                    )


def check_sync_policies_zero_dirty(
    scale: int = DEFAULT_SCALE,
) -> DifferentialCheck:
    """s/s writeback policies must keep every store clean at all times.

    Runs serially (the checker registration is per-process) with an
    interval of 1, so the zero-dirty invariant is asserted after every
    single trace record.
    """
    trace = _single_thread_trace(scale)
    configs = [
        baseline_config(
            scale=scale,
            architecture=architecture,
            ram_policy=WritebackPolicy.sync(),
            flash_policy=WritebackPolicy.sync(),
            check_invariants=True,
            invariant_check_interval=1,
        )
        for architecture in ALL_ARCHITECTURES
    ]
    try:
        with registered(lambda _system: [ZeroDirtyChecker()]):
            run_sweep(trace, configs, workers=1)
    except InvariantViolation as violation:
        return DifferentialCheck(
            "sync-policies-zero-dirty", False, str(violation)
        )
    return DifferentialCheck(
        "sync-policies-zero-dirty",
        True,
        "checked after every record in %d architectures"
        % len(ALL_ARCHITECTURES),
    )


def check_chunked_replay_identity(
    scale: int = DEFAULT_SCALE, workers: Optional[int] = None
) -> DifferentialCheck:
    """Chunked (bounded-memory) replay must be bit-identical to the
    materialized replay across the whole differential matrix.

    Every matrix trace is spooled into its chunked form (same content
    fingerprint, asserted) and replayed under every matrix config; the
    :func:`full_signature` of each streamed point must equal the
    materialized one down to histogram buckets and per-host breakdowns.
    This is the gate that lets the streaming pipeline share the sweep
    result cache and the signature-drift tooling with the in-memory
    path.
    """
    from repro.traces.chunked import ChunkedCompiledTrace
    from repro.traces.compiled import compile_trace

    problems: List[str] = []
    points = 0
    for family, trace, configs, names in _matrix_families(scale):
        chunked = ChunkedCompiledTrace.from_trace(trace)
        try:
            if chunked.fingerprint != compile_trace(trace).fingerprint:
                problems.append("%s: spool fingerprint drift" % family)
                continue
            materialized = run_sweep(trace, configs, workers=workers)
            streamed = run_sweep(chunked, configs, workers=workers)
        finally:
            chunked.delete()
        for name, mat, chk in zip(names, materialized, streamed):
            points += 1
            reference, candidate = full_signature(mat), full_signature(chk)
            if reference != candidate:
                drifted = [
                    key for key in reference if reference[key] != candidate[key]
                ]
                problems.append(
                    "%s/%s: %s" % (family, name, ", ".join(drifted[:3]))
                )
    if problems:
        return DifferentialCheck(
            "chunked-replay-identity", False, "; ".join(problems[:4])
        )
    return DifferentialCheck(
        "chunked-replay-identity",
        True,
        "%d matrix points bit-identical to materialized replay" % points,
    )


def check_inline_hit_identity(
    scale: int = DEFAULT_SCALE,
) -> DifferentialCheck:
    """Serving RAM hits inline must not move a single result.

    Every point of the differential matrix plus a 7x7 writeback-policy
    grid (sync/async/periodic 10, 30, 60/trickle/delayed on each tier),
    admission/cleaning-controller points and a shared-working-set fleet
    point is replayed twice — once with ``Observation(events=False)``
    attached, which sends every block, span attached, through the host
    generators and never takes the inline run (the reference), and once
    plain — and the :func:`full_signature` of the two runs must agree
    down to histogram buckets and per-host breakdowns.
    """
    from repro.core.simulator import run_simulation
    from repro.obs import Observation
    from repro.traces.compiled import compile_trace

    problems: List[str] = []
    points = 0

    def compare(label: str, trace, config) -> None:
        nonlocal points
        points += 1
        reference = full_signature(
            run_simulation(trace, config, obs=Observation(events=False))
        )
        candidate = full_signature(run_simulation(trace, config))
        if reference != candidate:
            drifted = [
                key for key in reference if reference[key] != candidate[key]
            ]
            problems.append("%s: %s" % (label, ", ".join(drifted[:3])))

    for family, trace, configs, names in _matrix_families(scale):
        compiled = compile_trace(trace)
        for name, config in zip(names, configs):
            compare("%s/%s" % (family, name), compiled, config)

    grid_trace = compile_trace(
        baseline_trace(n_hosts=2, scale=scale, volume_multiple=2.0)
    )
    grid = ("s", "a", "p10", "p30", "p60", "t30", "d30")
    for ram_spec in grid:
        for flash_spec in grid:
            compare(
                "grid/%s-%s" % (ram_spec, flash_spec),
                grid_trace,
                baseline_config(
                    scale=scale,
                    ram_policy=WritebackPolicy.parse(ram_spec),
                    flash_policy=WritebackPolicy.parse(flash_spec),
                ),
            )
    for label, overrides in (
        ("admission-probationary", {"flash_admission": "probationary:2"}),
        ("admission-budget", {"flash_admission": "budget:8M"}),
        ("cleaning-alru", {"flash_cleaning": "alru:30"}),
        ("cleaning-acp", {"flash_cleaning": "acp:0.5:0.25"}),
    ):
        compare(
            "controller/%s" % label,
            grid_trace,
            baseline_config(scale=scale, **overrides),
        )
    # Fleet-shaped point: several hosts sharing one working set make
    # inline write hits invalidate multi-bit holder masks (the two-host
    # matrix rarely grows masks past two bits).
    multihost_trace = compile_trace(
        baseline_trace(
            n_hosts=4, shared_working_set=True, scale=scale, volume_multiple=2.0
        )
    )
    compare("multihost/shared-ws-4h", multihost_trace, baseline_config(scale=scale))
    if problems:
        return DifferentialCheck(
            "inline-hit-identity", False, "; ".join(problems[:4])
        )
    return DifferentialCheck(
        "inline-hit-identity",
        True,
        "%d points bit-identical to the generator reference" % points,
    )


def _fleet_spec(scale: int):
    """The pinned fleet spec the fleet-backed checks share."""
    from repro.tracegen.fleet import FleetSpec

    return FleetSpec(n_hosts=16, n_tenants=4, ws_bytes=scaled_gb(4.0, scale))


def check_fleet_identity(scale: int = DEFAULT_SCALE) -> DifferentialCheck:
    """Fleet scenario generation and replay must be deterministic.

    Every scenario of the pinned default spec is generated twice; the
    two traces must be record-for-record equal and their default-config
    replays must produce bit-identical :func:`full_signature`\\ s — the
    property the ``fleet_smoke`` CI gate and the fleet experiment's
    comparability across runs both rest on.
    """
    from repro.core.simulator import run_simulation
    from repro.tracegen.fleet import SCENARIOS, fleet_trace

    spec = _fleet_spec(scale)
    config = baseline_config(scale=scale)
    problems: List[str] = []
    for scenario in SCENARIOS:
        first = fleet_trace(spec, scenario)
        second = fleet_trace(spec, scenario)
        if first.records != second.records or (
            first.warmup_records != second.warmup_records
        ):
            problems.append("%s: regenerated trace differs" % scenario)
            continue
        reference = full_signature(run_simulation(first, config, n_hosts=spec.n_hosts))
        candidate = full_signature(run_simulation(second, config, n_hosts=spec.n_hosts))
        if reference != candidate:
            drifted = [key for key in reference if reference[key] != candidate[key]]
            problems.append("%s: %s" % (scenario, ", ".join(drifted[:3])))
    if problems:
        return DifferentialCheck("fleet-identity", False, "; ".join(problems))
    return DifferentialCheck(
        "fleet-identity",
        True,
        "%d scenarios regenerate and replay bit-identically" % len(SCENARIOS),
    )


def check_parallel_replay_identity(scale: int = DEFAULT_SCALE) -> DifferentialCheck:
    """Sharded multi-host replay must be bit-identical to serial replay.

    Each point replays twice — once serially, once with
    ``parallel_hosts=4`` (host groups fanned over the worker pool,
    :mod:`repro.engine.parallel`) — and the :func:`full_signature` of
    the two runs must agree exactly.  Disjoint-tenant fleet traces
    (every scenario) must actually shard (``last_outcome()`` is
    asserted, so a silently-declining engine fails the check rather
    than trivially passing), split 4-host baselines shard when their
    generated working sets are disjoint, and 4-host shared-working-set
    points, whose hosts couple, must decline.  Both runs pin
    ``check_invariants=False``: the point is replay identity, and the
    invariants environment would otherwise turn the parallel leg into
    a no-op.
    """
    from dataclasses import replace as dc_replace

    from repro.core.simulator import run_simulation
    from repro.engine import parallel as parallel_engine
    from repro.filer.timing import FilerTiming
    from repro.tracegen.fleet import SCENARIOS, fleet_trace

    spec = dc_replace(_fleet_spec(scale), warmup_fraction=0.0)
    fleet_steady = fleet_trace(spec, "steady")
    split_trace = baseline_trace(
        n_hosts=4, shared_working_set=False, scale=scale, volume_multiple=2.0
    ).without_warmup()
    shared_trace = baseline_trace(
        n_hosts=4, shared_working_set=True, scale=scale, volume_multiple=2.0
    ).without_warmup()

    def eligible_config(fast_read_rate: float = 1.0, **overrides) -> "SimConfig":
        # Deterministic filer and syncer-free policies: the eligibility
        # conditions documented in docs/INVARIANTS.md.
        overrides.setdefault("ram_policy", WritebackPolicy.parse("a"))
        overrides.setdefault("flash_policy", WritebackPolicy.parse("a"))
        config = baseline_config(scale=scale, **overrides)
        return dc_replace(
            config,
            timing=dc_replace(
                config.timing,
                filer=FilerTiming(fast_read_rate=fast_read_rate),
            ),
        )

    # (label, trace, n_hosts, config, expected outcome kind or None)
    points = []
    for architecture in ALL_ARCHITECTURES:
        points.append(
            (
                "fleet/steady-%s-a" % architecture.value,
                fleet_steady,
                spec.n_hosts,
                eligible_config(architecture=architecture),
                "parallel",
            )
        )
    for policy in ("s", "d30"):
        points.append(
            (
                "fleet/steady-naive-%s" % policy,
                fleet_steady,
                spec.n_hosts,
                eligible_config(
                    ram_policy=WritebackPolicy.parse(policy),
                    flash_policy=WritebackPolicy.parse(policy),
                ),
                "parallel",
            )
        )
    points.append(
        (
            "fleet/steady-naive-slow-filer",
            fleet_steady,
            spec.n_hosts,
            eligible_config(fast_read_rate=0.0),
            "parallel",
        )
    )
    points.append(
        (
            "fleet/steady-naive-flash0",
            fleet_steady,
            spec.n_hosts,
            eligible_config(flash_gb=0),
            "parallel",
        )
    )
    for scenario in SCENARIOS:
        if scenario == "steady":
            continue
        points.append(
            (
                "fleet/%s-naive-a" % scenario,
                fleet_trace(spec, scenario),
                spec.n_hosts,
                eligible_config(),
                "parallel",
            )
        )
    for architecture in ALL_ARCHITECTURES:
        points.append(
            (
                "split4/%s-a" % architecture.value,
                split_trace,
                4,
                eligible_config(architecture=architecture),
                None,  # shards when the generated working sets are disjoint
            )
        )
    points.append(
        ("shared4/naive-a", shared_trace, 4, eligible_config(), "declined")
    )
    points.append(
        (
            "shared4/unified-s",
            shared_trace,
            4,
            eligible_config(
                architecture=Architecture.UNIFIED,
                ram_policy=WritebackPolicy.parse("s"),
                flash_policy=WritebackPolicy.parse("s"),
            ),
            "declined",
        )
    )

    problems: List[str] = []
    for label, trace, n_hosts, config, expected in points:
        reference = full_signature(
            run_simulation(trace, config, n_hosts=n_hosts, check_invariants=False)
        )
        candidate = full_signature(
            run_simulation(
                trace,
                config,
                n_hosts=n_hosts,
                check_invariants=False,
                parallel_hosts=4,
            )
        )
        outcome = parallel_engine.last_outcome()
        if expected is not None and (outcome is None or outcome.kind != expected):
            problems.append(
                "%s: expected %s engine outcome, got %s"
                % (label, expected, outcome)
            )
        elif expected == "declined" and "coupled" not in outcome.detail:
            problems.append("%s: declined for another reason: %s" % (label, outcome))
        if reference != candidate:
            drifted = [key for key in reference if reference[key] != candidate[key]]
            problems.append("%s: %s" % (label, ", ".join(drifted[:3])))
    if problems:
        return DifferentialCheck(
            "parallel-replay-identity", False, "; ".join(problems[:4])
        )
    return DifferentialCheck(
        "parallel-replay-identity",
        True,
        "%d points bit-identical between serial and sharded replay" % len(points),
    )


def check_percentile_sketch(scale: int = DEFAULT_SCALE) -> DifferentialCheck:
    """The streaming percentile sketch must agree with exact quantiles
    to within its configured relative error.

    Deterministic heavy-tailed samples (seeded lognormal — the shape of
    a latency distribution) are fed to :class:`~repro.core.metrics.\
PercentileSketch` at two error settings and to a sorted exact list; the
    sketch's p50/p90/p99/p999 must land within ``relative_error`` of the
    exact order statistics, merged sketches included.  Also asserts the
    :class:`~repro.core.metrics.LatencyStat` integration (the
    ``REPRO_METRICS_SKETCH`` path) reports through ``as_dict``.
    """
    import random

    from repro.core.metrics import LatencyStat, PercentileSketch

    rng = random.Random(0xD5EC7 + scale)
    samples = [int(rng.lognormvariate(10.0, 2.0)) + 1 for _ in range(20_000)]
    ordered = sorted(samples)
    quantiles = (0.5, 0.9, 0.99, 0.999)
    problems: List[str] = []
    for error in (0.01, 0.05):
        whole = PercentileSketch(error)
        left, right = PercentileSketch(error), PercentileSketch(error)
        for index, value in enumerate(samples):
            whole.record(value)
            (left if index % 2 else right).record(value)
        left.merge(right)
        for label, sketch in (("direct", whole), ("merged", left)):
            for fraction in quantiles:
                exact = ordered[int(fraction * (len(ordered) - 1))]
                estimate = sketch.percentile(fraction)
                if abs(estimate - exact) > error * exact:
                    problems.append(
                        "e=%g %s p%g: estimate %.1f vs exact %d"
                        % (error, label, fraction * 100, estimate, exact)
                    )
    stat = LatencyStat(sketch=PercentileSketch(0.01))
    for value in samples[:2000]:
        stat.record(value)
    summary = stat.as_dict()
    if "sketch_p99_us" not in summary:
        problems.append("LatencyStat.as_dict missing sketch percentiles")
    else:
        exact_p99 = sorted(samples[:2000])[int(0.99 * 1999)] / 1000.0
        if abs(summary["sketch_p99_us"] - exact_p99) > 0.011 * exact_p99:
            problems.append(
                "LatencyStat sketch p99 %.2f us vs exact %.2f us"
                % (summary["sketch_p99_us"], exact_p99)
            )
    if problems:
        return DifferentialCheck(
            "percentile-sketch-bounds", False, "; ".join(problems[:4])
        )
    return DifferentialCheck(
        "percentile-sketch-bounds",
        True,
        "%d samples, %d quantiles within bounds at 2 error settings"
        % (len(samples), len(quantiles)),
    )


# --- harness ------------------------------------------------------------


def run_differential(
    scale: int = DEFAULT_SCALE, workers: Optional[int] = None
) -> DifferentialReport:
    """Run every degenerate-parameter identity; see the module docs."""
    return DifferentialReport(
        checks=[
            check_flash_zero_collapse(scale=scale, workers=workers),
            check_read_only_zero_writebacks(scale=scale, workers=workers),
            check_sync_policies_zero_dirty(scale=scale),
            check_chunked_replay_identity(scale=scale, workers=workers),
            check_inline_hit_identity(scale=scale),
            check_fleet_identity(scale=scale),
            check_parallel_replay_identity(scale=scale),
            check_percentile_sketch(scale=scale),
        ]
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation.differential",
        description="Degenerate-parameter differential cross-checks "
        "(flash=0 collapse, read-only zero-writebacks, s/s zero-dirty).",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="coarser geometry scale for a quick CI-sized pass",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="explicit geometry divisor (overrides --fast)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep-backed checks "
        "(0 = all cores; default: serial)",
    )
    parser.add_argument(
        "--dump-signatures",
        type=str,
        default=None,
        metavar="FILE",
        help="write full result signatures for the differential matrix "
        "to FILE (JSON) instead of running the identity checks",
    )
    parser.add_argument(
        "--compare-signatures",
        type=str,
        default=None,
        metavar="FILE",
        help="re-run the differential matrix and compare against "
        "signatures previously dumped to FILE; any difference fails",
    )
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (
        DEFAULT_SCALE * 4 if args.fast else DEFAULT_SCALE
    )
    if args.dump_signatures or args.compare_signatures:
        import json

        signatures = matrix_signatures(scale=scale, workers=args.workers)
        if args.dump_signatures:
            with open(args.dump_signatures, "w") as handle:
                json.dump(signatures, handle, indent=1, sort_keys=True)
            print(
                "dumped %d matrix signatures to %s"
                % (len(signatures), args.dump_signatures)
            )
            return 0
        with open(args.compare_signatures) as handle:
            reference = json.load(handle)
        # Round-trip through JSON so tuple-vs-list and key-type
        # differences introduced by serialization do not register.
        current = json.loads(json.dumps(signatures, sort_keys=True))
        problems: List[str] = []
        for name in sorted(set(reference) | set(current)):
            if name not in reference:
                problems.append("%s: missing from reference" % name)
            elif name not in current:
                problems.append("%s: missing from current run" % name)
            elif reference[name] != current[name]:
                for key in reference[name]:
                    if reference[name].get(key) != current[name].get(key):
                        problems.append("%s.%s differs" % (name, key))
        if problems:
            print("signature drift against %s:" % args.compare_signatures)
            for problem in problems[:20]:
                print("  - %s" % problem)
            return 1
        print(
            "all %d matrix signatures bit-identical to %s"
            % (len(current), args.compare_signatures)
        )
        return 0
    report = run_differential(scale=scale, workers=args.workers)
    print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
