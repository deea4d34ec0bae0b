"""Parallel intra-simulation replay: shard hosts across worker processes.

One large multi-host simulation is split into host *groups*, each group
replays in a worker of a process pool the call owns and shuts down
before it returns (:mod:`repro.sweep`'s pool and hand-off: the trace is
written once as a binary trace file that every worker maps
read-only), and the parent computes results from the groups' raw
meters with the serial path's own
:func:`~repro.core.simulator.results_from_meters`.
The output is **bit-identical** to the serial replay; the differential
harness's ``parallel-replay-identity`` check pins that.

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
mostly idle) :class:`~repro.core.machine.System` and ships the
:class:`~repro.core.simulator.RunMeters` of its own hosts.  The parent
takes each host's entry from the group that owns it, sums the
run-wide counters (the filer's and the directory's, which only the
owning group's hosts move), takes the clock's maximum and merges the
fleet latency accumulators; every ratio and mean is then computed
once, by the same function as a serial run's.

:func:`~repro.traces.partition.analyze_partition` proves which hosts
can never observe each other (one columnar pass; disjoint-tenant
fleets split immediately), and :func:`~repro.traces.partition.
plan_groups` bins the components that issue rows into balanced
groups.  A trace whose active hosts form one interference component
(hosts linked through blocks one of them writes) cannot be split
exactly, so it declines before any worker starts.

Eligibility
-----------

:func:`try_parallel_replay` returns ``None`` — and
:func:`~repro.core.simulator.run_simulation` runs the serial path —
whenever sharding cannot be proven exact.  The conditions are listed
in ``docs/INVARIANTS.md``; :func:`decline_reason` returns the first
failing one of those checked before the partition (``last_outcome()``
reports what happened on the most recent attempt, which the tests and
benchmarks assert on).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import List, Optional, Sequence

import repro.sweep as sweep
from repro.core.config import SimConfig
from repro.core.machine import System
from repro.core.metrics import LatencyStat, _sketch_error_from_env
from repro.core.results import SimulationResults
from repro.core.simulator import RunMeters, read_meters, results_from_meters
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.partition import analyze_partition, plan_groups, slice_hosts
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

    ``kind`` is ``"parallel"`` (sharded replay succeeded) or
    ``"declined"`` (the serial path ran — ``detail`` names the first
    failing condition).  ``groups`` is the group count for
    ``"parallel"``, else 0.
    """

    kind: str
    detail: str = ""
    groups: int = 0


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
        # Already inside a pool worker (e.g. a sweep point asking for
        # parallel_hosts): nested pools would thrash the machine.
        return "already running inside a worker process"
    if obs is not None or config.trace_events:
        return "observation attached (events and spans are not merged across workers)"
    if not isinstance(trace, (Trace, ChunkedCompiledTrace)):
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
    if _sketch_error_from_env() is not None:
        return "latency sketches do not merge exactly"
    return None


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _replay_group_task(task) -> RunMeters:
    """Replay one host group (runs in a pool worker) and return the
    meters of the group's own hosts."""
    ref, group, config, n_hosts = task
    sliced = slice_hosts(sweep._load_trace_ref(ref), set(group))
    system = System(config, n_hosts, check_invariants=False)
    system.replay(sliced)
    return read_meters(system, group)


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


def _whole_run(
    parts: Sequence[RunMeters], groups: Sequence[Sequence[int]]
) -> RunMeters:
    """The whole run's meters from its groups': each host's entry from
    the group that owns it, run-wide counters summed, the clock's
    maximum, and the fleet latency accumulators merged in group order.
    Hosts outside a group replay nothing in its worker, so no group
    adds to another's counters."""
    owner = {host: index for index, group in enumerate(groups) for host in group}
    latency = {name: LatencyStat() for name in parts[0].latency}
    for part in parts:
        for name, stat in part.latency.items():
            latency[name].merge(stat)
    return RunMeters(
        hosts=[parts[owner[host]].hosts[host] for host in range(len(owner))],
        latency=latency,
        counters={
            name: sum(part.counters[name] for part in parts)
            for name in parts[0].counters
        },
        simulated_ns=max(part.simulated_ns for part in parts),
        measured_ns=max(part.measured_ns for part in parts),
    )


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

    Returns the results — bit-identical to serial replay — or ``None``
    when the run is ineligible, fewer than two independent host groups
    issue rows, or the platform has no working process pool.  ``None``
    always means "run the serial path"; this function never raises for
    any of those conditions.
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
    groups = plan_groups(analyze_partition(trace, n_hosts), workers)
    if len(groups) < 2:
        _record(
            ParallelOutcome(
                "declined",
                "coupled hosts: fewer than two independent host groups issue "
                "rows (hosts touching a block one of them writes replay together)",
            )
        )
        return None

    with sweep._trace_exports() as export:
        ref = export(trace)
        tasks = [(ref, tuple(group), config, n_hosts) for group in groups]
        try:
            with sweep._worker_pool(min(workers, len(groups))) as pool:
                if pool is None:
                    _record(ParallelOutcome("declined", "no process pool available"))
                    return None
                futures = [pool.submit(_replay_group_task, task) for task in tasks]
                parts: List[RunMeters] = [future.result() for future in futures]
        except Exception as exc:
            # A worker died or the pool broke: serial replay is always
            # available and will surface any genuine simulation error.
            _record(ParallelOutcome("declined", "pool failure: %r" % (exc,)))
            return None
    _record(ParallelOutcome("parallel", groups=len(groups)))
    return results_from_meters(_whole_run(parts, groups), config, len(trace))
