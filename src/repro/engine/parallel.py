"""Parallel intra-simulation replay: shard hosts across worker processes.

One large multi-host simulation is split into host *groups*, each group
replays in a worker from the persistent sweep pool
(:mod:`repro.sweep` — the same zero-copy shared-memory trace fan-out),
and the per-group :class:`~repro.core.results.SimulationResults` are
merged deterministically.  The merged output is **bit-identical** to
the serial replay; the differential harness's
``parallel-replay-identity`` check pins that.

Why this is exact
-----------------

The simulated hosts only interact through the consistency directory,
and only when one host *writes* a block some other host touches
(:mod:`repro.traces.partition` states the exact rule).  For host
groups with no such coupling, the serial event schedule restricted to
one group is exactly the schedule of that group replayed standalone:
every event carries its own simulated timestamp, cross-group events
never read or write common state, and same-time heap ties between
groups commute because tie-breaking only orders *state-disjoint*
callbacks.  So each worker replays its group against a full-size (but
mostly idle) :class:`~repro.core.machine.System` and reports exact
partial sums; idle hosts contribute exact zeros.

Two tiers pick the groups:

* **Independent partitioning** — :func:`~repro.traces.partition.
  analyze_partition` proves which hosts can never observe each other
  (one columnar pass; disjoint-tenant fleets split immediately), and
  :func:`~repro.traces.partition.plan_groups` bins the components into
  balanced groups.  No synchronization of any kind is needed.
* **Conflict-watched splitting** — when the static analysis finds a
  single component (e.g. one shared hot block among thousands of
  private ones), hosts are split evenly anyway and every worker's
  directory *watches* the block set foreign groups write
  (``ConsistencyDirectory.conflict_watch``).  The instant any host
  acquires a copy of a watched block the worker raises
  :class:`~repro.errors.ParallelReplayConflict` — before any
  divergence from the serial schedule can occur — and the parent falls
  back to one serial replay.  This tier is only attempted under the
  paper's instant directory (``timing.directory.is_instant``), where
  invalidations carry no latency that a barrier would have to order.

Eligibility
-----------

:func:`try_parallel_replay` returns ``None`` — and
:func:`~repro.core.simulator.run_simulation` silently runs the serial
path — whenever sharding cannot be proven exact.  The conditions are
listed in ``docs/INVARIANTS.md``; :func:`decline_reason` returns the
first failing one (``last_outcome()`` reports what happened on the most
recent attempt, which the tests and benchmarks assert on).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import repro.sweep as sweep
from repro.core.config import SimConfig
from repro.core.machine import System, mean_in_order
from repro.core.results import SimulationResults
from repro.errors import ParallelReplayConflict
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.partition import (
    analyze_partition,
    plan_groups,
    slice_hosts,
    split_hosts_evenly,
    static_write_blocks,
)
from repro.traces.records import Trace

__all__ = [
    "ParallelOutcome",
    "decline_reason",
    "last_outcome",
    "try_parallel_replay",
]


@dataclass(frozen=True)
class ParallelOutcome:
    """What the most recent :func:`try_parallel_replay` call did.

    ``kind`` is ``"parallel"`` (sharded replay succeeded),
    ``"declined"`` (ineligible — ``detail`` names the first failing
    condition), or ``"conflict"`` (the conflict-watch tier aborted and
    the caller fell back to serial).  ``groups`` is the group count for
    ``"parallel"``, else 0; ``tier`` is ``"independent"`` or
    ``"watched"`` when a sharded replay was attempted.
    """

    kind: str
    detail: str = ""
    groups: int = 0
    tier: str = ""


_LAST_OUTCOME: Optional[ParallelOutcome] = None


def last_outcome() -> Optional[ParallelOutcome]:
    """The outcome of the most recent parallel-replay attempt in this
    process (``None`` before any attempt)."""
    return _LAST_OUTCOME


def _record(outcome: ParallelOutcome) -> ParallelOutcome:
    global _LAST_OUTCOME
    _LAST_OUTCOME = outcome
    return outcome


def decline_reason(
    trace,
    config: SimConfig,
    *,
    n_hosts: int,
    workers: int,
    restart,
    timeline_bucket_ns,
    check_invariants,
    obs,
) -> Optional[str]:
    """The first reason this run cannot shard, or ``None`` if the
    pre-partition gates all pass.

    Every condition here exists because the feature it names either
    couples hosts through global state (syncer loops, cleaning
    controllers, invariant walkers all gate on whole-system state),
    consumes a global RNG stream (fractional ``fast_read_rate``), or
    needs per-record object hooks the sliced columnar replay does not
    provide (observations, timelines, restarts).  Serial replay remains
    the reference semantics for all of them.
    """
    if workers < 2:
        return "fewer than two workers requested"
    if n_hosts < 2:
        return "single-host simulation"
    if multiprocessing.current_process().name != "MainProcess":
        # Already inside a pool worker (e.g. a sweep point inheriting
        # REPRO_PARALLEL_HOSTS): nested pools would thrash the machine.
        return "already running inside a worker process"
    if obs is not None or config.trace_events:
        return "observation attached (events and spans are not merged across workers)"
    if not isinstance(trace, (CompiledTrace, ChunkedCompiledTrace, Trace)):
        return "trace form not shardable"
    if trace.warmup_records != 0:
        return "trace has a warmup phase (cache state crosses the boundary)"
    if restart is not None:
        return "restart/crash schedule is a global event"
    if timeline_bucket_ns is not None:
        return "read timeline buckets are clocked on the global timeline"
    from repro.invariants.suite import resolve_enabled

    if resolve_enabled(check_invariants, config):
        return "invariant checking walks whole-system state"
    rate = config.timing.filer.fast_read_rate
    if rate != 0.0 and rate != 1.0:
        return "fractional filer fast_read_rate consumes a global RNG stream"
    if config.ram_policy.has_syncer or config.flash_policy.has_syncer:
        return "periodic/trickle syncers are clocked on the global timeline"
    if not config.flash_cleaning.is_periodic:
        return "non-periodic flash cleaning runs a global controller loop"
    from repro.core.metrics import SKETCH_ENV

    if os.environ.get(SKETCH_ENV, "").strip().lower() not in ("", "0", "off", "false"):
        return "latency sketches do not merge exactly"
    return None


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _group_slice(ref, group: Tuple[int, ...]) -> CompiledTrace:
    """Resolve the full trace for ``ref`` and slice this group's rows,
    memoized in the sweep worker cache (the slice owns its arrays, so
    it stays valid even if the base trace is evicted)."""
    key = ("slice", ref, group)
    entry = sweep._WORKER_TRACE_CACHE.get(key)
    if entry is not None:
        return entry[0]
    base = sweep._load_trace_ref(ref)
    sliced = slice_hosts(base, set(group))
    while len(sweep._WORKER_TRACE_CACHE) >= sweep._WORKER_TRACE_CACHE_MAX:
        oldest = next(iter(sweep._WORKER_TRACE_CACHE))
        _, old_cleanup = sweep._WORKER_TRACE_CACHE.pop(oldest)
        if old_cleanup is not None:
            old_cleanup()
    sweep._WORKER_TRACE_CACHE[key] = (sliced, None)
    return sliced


def _collect_aux(system: System) -> Dict[str, object]:
    """Raw integers behind the float fields the parent must recompute
    globally (group-level floats have group-local denominators)."""
    from repro.flash.ftl_device import FTLFlashDevice

    wa_factors: List[Optional[float]] = []
    ftl_meters: List[Optional[Tuple[int, int]]] = []
    host_pages = 0
    flash_pages = 0
    seen_ftl = False
    for device in system.flash_devices:
        if isinstance(device, FTLFlashDevice):
            seen_ftl = True
            wa_factors.append(device.write_amplification)
            ftl_meters.append(
                (device.erase_count(), device.ftl.config.rated_total_erases)
            )
            host_pages += device.ftl.host_writes - device._host_writes_at_reset
            flash_pages += device.ftl.flash_writes - device._flash_writes_at_reset
        else:
            wa_factors.append(None)
            ftl_meters.append(None)
    return {
        # Each wire's busy nanoseconds (the numerators of
        # ``NetworkSegment.utilization``), shipped raw so the parent can
        # divide by the *global* clock.
        "segment_busy": [seg.busy_ns() for seg in system.segments],
        "wa_factors": wa_factors,
        "ftl_meters": ftl_meters,
        "wa_pages": (host_pages, flash_pages, seen_ftl),
    }


def _replay_group_task(task):
    """Replay one host group (runs in a pool worker).

    Returns ``("ok", results, aux)`` or ``("conflict", host, block)``
    when the conflict watch proves the groups coupled.
    """
    ref, group, config, n_hosts, foreign_writes = task
    from repro.core.simulator import results_from_system

    sliced = _group_slice(ref, group)
    system = System(config, n_hosts, check_invariants=False)
    if foreign_writes is not None:
        system.directory.conflict_watch = set(foreign_writes)
    try:
        system.replay(sliced)
    except ParallelReplayConflict as conflict:
        return ("conflict", conflict.host_id, conflict.block)
    return (
        "ok",
        results_from_system(system, config, len(sliced)),
        _collect_aux(system),
    )


# --------------------------------------------------------------------------
# Parent side: merge
# --------------------------------------------------------------------------


def _merged_overrides(
    parts: Sequence[SimulationResults],
    auxes: Sequence[Dict[str, object]],
    groups: Sequence[Sequence[int]],
    n_hosts: int,
) -> Dict[str, object]:
    """Recompute the global-denominator float fields exactly as the
    serial ``System`` reporting methods do, from the workers' raw
    integer meters.  Expression shapes are replicated verbatim
    (operation order included) so float results match bit-for-bit."""
    global_now = max(part.simulated_ns for part in parts)
    window_ns = max(part.measured_ns for part in parts)
    owner: Dict[int, int] = {}
    for index, group in enumerate(groups):
        for host in group:
            owner[host] = index

    # mean_network_utilization: segments are per-host, so each
    # segment's busy time is wholly owned by one group; summing the
    # groups' meters recovers the serial busy time.
    n_segments = len(auxes[0]["segment_busy"])
    if not n_segments:
        network = 0.0
    else:
        utilizations = []
        for seg in range(n_segments):
            up = sum(aux["segment_busy"][seg][0] for aux in auxes)
            down = sum(aux["segment_busy"][seg][1] for aux in auxes)
            up_util = 0.0 if global_now == 0 else up / global_now
            down_util = 0.0 if global_now == 0 else down / global_now
            utilizations.append((up_util + down_util) / 2.0)
        network = mean_in_order(utilizations)

    # mean_write_amplification: per-device steady-state factor from the
    # device's *owning* group (an idle replica of the device reports
    # its initial factor, which must not shadow the real one).
    factors = [
        auxes[owner[host]]["wa_factors"][host]
        for host in range(n_hosts)
        if auxes[owner[host]]["wa_factors"][host] is not None
    ]
    mean_wa = mean_in_order(factors) if factors else None

    # measured_write_amplification: idle devices meter zero deltas, so
    # plain sums across groups count each device exactly once.
    host_pages = sum(aux["wa_pages"][0] for aux in auxes)
    flash_pages = sum(aux["wa_pages"][1] for aux in auxes)
    seen_ftl = any(aux["wa_pages"][2] for aux in auxes)
    if not seen_ftl:
        measured_wa = None
    elif host_pages == 0:
        measured_wa = 0.0
    else:
        measured_wa = flash_pages / host_pages

    # device_lifetime_days: per-device erase counts sum across groups
    # (idle replicas erase nothing); the projection window is the
    # global measurement window.
    if window_ns <= 0:
        lifetime = None
    else:
        day_ns = 86_400 * 1_000_000_000
        lifetimes: List[float] = []
        for host in range(n_hosts):
            meters = [
                aux["ftl_meters"][host]
                for aux in auxes
                if aux["ftl_meters"][host] is not None
            ]
            if not meters:
                continue
            erases = sum(meter[0] for meter in meters)
            if erases == 0:
                lifetimes.append(float("inf"))
                continue
            budget = meters[0][1]
            lifetimes.append(budget / erases * window_ns / day_ns)
        lifetime = min(lifetimes) if lifetimes else None

    return {
        "network_utilization": network,
        "flash_write_amplification": mean_wa,
        "flash_write_amp": measured_wa,
        "device_lifetime_days": lifetime,
    }


# --------------------------------------------------------------------------
# Parent side: orchestration
# --------------------------------------------------------------------------


def try_parallel_replay(
    trace,
    config: SimConfig,
    *,
    n_hosts: int,
    workers: int,
    restart=None,
    timeline_bucket_ns=None,
    check_invariants=None,
    obs=None,
) -> Optional[SimulationResults]:
    """Shard an eligible replay across ``workers`` processes.

    Returns the merged results — bit-identical to serial replay — or
    ``None`` when the run is ineligible, the partition is trivial, the
    platform has no process pool, or a conflict-watch worker proved the
    groups coupled.  ``None`` always means "run the serial path"; this
    function never raises for any of those conditions.
    """
    reason = decline_reason(
        trace,
        config,
        n_hosts=n_hosts,
        workers=workers,
        restart=restart,
        timeline_bucket_ns=timeline_bucket_ns,
        check_invariants=check_invariants,
        obs=obs,
    )
    if reason is not None:
        _record(ParallelOutcome("declined", reason))
        return None
    if isinstance(trace, Trace):
        # Explicit parallel request: compiling is cheap, bit-identical,
        # and required for the columnar partition analysis and slicing.
        trace = compile_trace(trace)

    analysis = analyze_partition(trace, n_hosts)
    foreign: List[Optional[frozenset]] = []
    if analysis.independent:
        tier = "independent"
        groups = plan_groups(analysis, workers)
        foreign = [None] * len(groups)
    else:
        if not config.timing.directory.is_instant:
            _record(
                ParallelOutcome(
                    "declined",
                    "coupled hosts under a modeled directory latency",
                )
            )
            return None
        tier = "watched"
        groups = split_hosts_evenly(analysis, workers)
        writes = [static_write_blocks(trace, set(group)) for group in groups]
        for index in range(len(groups)):
            watched: Set[int] = set()
            for other, other_writes in enumerate(writes):
                if other != index:
                    watched |= other_writes
            foreign.append(frozenset(watched))
    if len(groups) < 2:
        _record(ParallelOutcome("declined", "partition produced a single group"))
        return None

    segments: List = []
    spool_state: List = [None, False]
    try:
        refs: Dict[str, object] = {}
        ref = sweep._trace_ref(trace, refs, segments, spool_state, None)
        pool, owned = sweep._acquire_pool(min(workers, len(groups)), False)
        if pool is None:
            _record(ParallelOutcome("declined", "no process pool available"))
            return None
        tasks = [
            (ref, tuple(group), config, n_hosts, foreign[index])
            for index, group in enumerate(groups)
        ]
        try:
            futures = [pool.submit(_replay_group_task, task) for task in tasks]
            replies = [future.result() for future in futures]
        except Exception as exc:
            # A worker died or the pool broke: serial replay is always
            # available and will surface any genuine simulation error.
            if not owned and sweep._pool_is_poisoned(exc):
                sweep._discard_pool()
            _record(ParallelOutcome("declined", "pool failure: %r" % (exc,)))
            return None
        except BaseException as exc:  # KeyboardInterrupt, SystemExit
            if not owned and sweep._pool_is_poisoned(exc):
                sweep._discard_pool()
            raise
        finally:
            if owned:
                sweep._dispose_owned_pool(pool)
        for reply in replies:
            if reply[0] == "conflict":
                _record(
                    ParallelOutcome(
                        "conflict",
                        "host %d touched block %d written by another group"
                        % (reply[1], reply[2]),
                        tier=tier,
                    )
                )
                return None
        parts = [reply[1] for reply in replies]
        auxes = [reply[2] for reply in replies]
        overrides = _merged_overrides(parts, auxes, groups, n_hosts)
        merged = SimulationResults.merge_all(parts, overrides=overrides)
        _record(ParallelOutcome("parallel", groups=len(groups), tier=tier))
        return merged
    finally:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        spool_dir, created_spool = spool_state
        if created_spool and spool_dir is not None:
            import shutil

            shutil.rmtree(spool_dir, ignore_errors=True)
