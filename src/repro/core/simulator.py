"""Top-level entry point: replay a trace under a configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.core.config import SimConfig
from repro.core.machine import System, _stores_of
from repro.core.metrics import LatencyStat, TimelineStat
from repro.core.restart import RestartSpec
from repro.core.results import SimulationResults
from repro.flash.ftl_device import FTLFlashDevice
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.records import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observation
    from repro.obs.breakdown import LatencyBreakdown


class FtlMeters(NamedTuple):
    """One FTL-modeled flash device's endurance meters."""

    #: the FTL's steady-state write amplification
    write_amplification: float
    #: host page writes during the measurement phase
    host_pages: int
    #: flash page programs (GC relocations included) in the same window
    flash_pages: int
    #: erases in the same window
    erases: int
    #: the device's rated erase budget (rated cycles x erase blocks)
    rated_erases: int


@dataclass
class HostMeters:
    """One host's raw measurement-phase meters."""

    read_latency: LatencyStat
    write_latency: LatencyStat
    #: tier name -> that store's ``CacheStats.as_dict()``
    tiers: Dict[str, Dict[str, float]]
    #: busy nanoseconds of the segment's up and down wires
    wire_busy_ns: Tuple[int, int]
    flash_blocks_read: int = 0
    flash_blocks_written: int = 0
    flash_program_bytes: int = 0
    #: None unless the host's flash device runs the FTL model
    ftl: Optional[FtlMeters] = None
    #: admission verdict counters (None under always-admit)
    admission: Optional[Dict[str, int]] = None


@dataclass
class RunMeters:
    """The raw meters of one replay: everything results are computed
    from, as one picklable record.

    A parallel-replay worker ships the record of its own host group
    (the other hosts' entries are ``None``); the parent rebuilds the
    whole run's record from the groups' (:mod:`repro.engine.parallel`)
    and computes results with the same :func:`results_from_meters`.
    """

    #: per host id, or None for a host this record does not cover
    hosts: List[Optional[HostMeters]]
    #: the fleet latency accumulators, by results field name
    latency: Dict[str, LatencyStat]
    #: run-wide integer counters, by results field name (fleet blocks,
    #: filer traffic, directory counters)
    counters: Dict[str, int]
    #: the clock at the end of the replay
    simulated_ns: int
    #: simulated nanoseconds since the measurement boundary
    measured_ns: int
    read_timeline: Optional[TimelineStat] = None
    breakdown: Optional["LatencyBreakdown"] = None
    obs_counters: Optional[Dict[str, int]] = None


def read_meters(system: System, hosts: Optional[Iterable[int]] = None) -> RunMeters:
    """Read a finished :class:`System`'s meters into a record.

    ``hosts`` limits the per-host entries to those host ids (a parallel
    replay group's own hosts); every host by default.
    """
    wanted = range(system.n_hosts) if hosts is None else set(hosts)
    entries: List[Optional[HostMeters]] = []
    for host_id, stack in enumerate(system.hosts):
        if host_id not in wanted:
            entries.append(None)
            continue
        collector = system.host_metrics[host_id]
        entry = HostMeters(
            read_latency=collector.read_latency,
            write_latency=collector.write_latency,
            tiers={name: store.stats.as_dict() for name, store in _stores_of(stack)},
            wire_busy_ns=system.segments[host_id].busy_ns(),
        )
        device = system.flash_devices[host_id]
        if device is not None:
            entry.flash_blocks_read = device.blocks_read
            entry.flash_blocks_written = device.blocks_written
            entry.flash_program_bytes = device.program_bytes()
            if isinstance(device, FTLFlashDevice):
                ftl = device.ftl
                entry.ftl = FtlMeters(
                    device.write_amplification,
                    ftl.host_writes - device._host_writes_at_reset,
                    ftl.flash_writes - device._flash_writes_at_reset,
                    device.erase_count(),
                    ftl.config.rated_total_erases,
                )
        admission = getattr(stack, "_admission", None)
        if admission is not None:
            entry.admission = admission.counters()
        entries.append(entry)
    metrics = system.metrics
    directory = system.directory
    filer = system.filer
    started = system._measurement_started_at
    obs = system.obs
    return RunMeters(
        hosts=entries,
        latency={
            "read_latency": metrics.read_latency,
            "write_latency": metrics.write_latency,
            "read_request_latency": metrics.read_request_latency,
            "write_request_latency": metrics.write_request_latency,
        },
        counters={
            "blocks_read": metrics.blocks_read,
            "blocks_written": metrics.blocks_written,
            "filer_fast_reads": filer.fast_reads,
            "filer_slow_reads": filer.slow_reads,
            "filer_writes": filer.writes,
            "block_writes": directory.block_writes,
            "writes_requiring_invalidation": directory.writes_requiring_invalidation,
            "copies_invalidated": directory.copies_invalidated,
            "invalidation_latency_ns": directory.invalidation_latency_ns,
        },
        simulated_ns=system.sim.now,
        measured_ns=0 if started is None else system.sim.now - started,
        read_timeline=metrics.read_timeline,
        breakdown=obs.breakdown if obs is not None else None,
        obs_counters=obs.counters() if obs is not None else None,
    )


def mean_in_order(values: List[float]) -> float:
    """The mean of ``values`` summed left to right.

    Python 3.12 made ``sum()`` over floats compensated, so it can round
    differently from a plain loop (and from 3.11's ``sum()``); summing
    in order keeps every reported mean the same on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def results_from_meters(
    meters: RunMeters, config: SimConfig, records_replayed: int
) -> SimulationResults:
    """Compute a run's results from its meters: the one place every
    aggregate and ratio is derived, for serial and parallel replay
    alike.  Hosts are folded in host-id order."""
    hosts = meters.hosts
    now = meters.simulated_ns
    window_ns = meters.measured_ns

    tier_stats: Dict[str, Dict[str, float]] = {}
    for host in hosts:
        for tier_name, stats in host.tiers.items():
            tier = tier_stats.setdefault(tier_name, {})
            for key, value in stats.items():
                if key == "hit_rate":
                    continue
                tier[key] = tier.get(key, 0) + value
    for tier in tier_stats.values():
        accesses = tier.get("hits", 0) + tier.get("misses", 0)
        tier["hit_rate"] = (tier.get("hits", 0) / accesses) if accesses else 0.0

    utilizations = [
        0.0 if now == 0 else (up / now + down / now) / 2.0
        for up, down in (host.wire_busy_ns for host in hosts)
    ]

    ftls = [host.ftl for host in hosts if host.ftl is not None]
    write_amp: Optional[float] = None
    lifetime: Optional[float] = None
    if ftls:
        host_pages = sum(ftl.host_pages for ftl in ftls)
        flash_pages = sum(ftl.flash_pages for ftl in ftls)
        write_amp = 0.0 if host_pages == 0 else flash_pages / host_pages
        if window_ns > 0:
            # The fleet's worst device: its rated erase budget over its
            # erase rate in the measurement window (inf with no erase).
            day_ns = 86_400 * 1_000_000_000
            lifetime = min(
                float("inf")
                if ftl.erases == 0
                else ftl.rated_erases / ftl.erases * window_ns / day_ns
                for ftl in ftls
            )

    admission: Optional[Dict[str, int]] = None
    for host in hosts:
        if host.admission is None:
            continue
        if admission is None:
            admission = dict(host.admission)
        else:
            for key, value in host.admission.items():
                admission[key] = admission.get(key, 0) + value

    return SimulationResults(
        config_description=config.describe(),
        simulated_ns=now,
        measured_ns=window_ns,
        records_replayed=records_replayed,
        tier_stats=tier_stats,
        flash_blocks_read=sum(host.flash_blocks_read for host in hosts),
        flash_blocks_written=sum(host.flash_blocks_written for host in hosts),
        flash_write_amplification=(
            mean_in_order([ftl.write_amplification for ftl in ftls]) if ftls else None
        ),
        flash_program_bytes=sum(host.flash_program_bytes for host in hosts),
        flash_erase_count=sum(ftl.erases for ftl in ftls),
        flash_write_amp=write_amp,
        device_lifetime_days=lifetime,
        flash_admission_stats=admission,
        network_utilization=mean_in_order(utilizations) if utilizations else 0.0,
        read_timeline=meters.read_timeline,
        per_host=[
            {
                "host": host_id,
                "read_us": host.read_latency.mean_us,
                "read_blocks": host.read_latency.count,
                "write_us": host.write_latency.mean_us,
                "write_blocks": host.write_latency.count,
            }
            for host_id, host in enumerate(hosts)
        ],
        breakdown=meters.breakdown,
        obs_counters=meters.obs_counters,
        **meters.latency,
        **meters.counters,
    )


def results_from_system(
    system: System, config: SimConfig, records_replayed: int
) -> SimulationResults:
    """Collect a finished :class:`System`'s results
    (:func:`results_from_meters` over :func:`read_meters`)."""
    return results_from_meters(read_meters(system), config, records_replayed)


def run_simulation(
    trace: Union[Trace, ChunkedCompiledTrace],
    config: SimConfig,
    *,
    n_hosts: Optional[int] = None,
    cold_start: bool = False,
    restart: Optional[RestartSpec] = None,
    timeline_bucket_ns: Optional[int] = None,
    check_invariants: Optional[bool] = None,
    obs: Optional["Observation"] = None,
    parallel_hosts: Optional[int] = None,
) -> SimulationResults:
    """Replay ``trace`` on a system built from ``config``.

    The options are keyword-only: sweep code builds these calls from
    dictionaries of overrides (see :mod:`repro.sweep`), and a keyword
    API keeps a reordered option from silently becoming a host count.

    For batches of independent points, use :func:`repro.sweep.run_sweep`
    — it fans configurations across CPU cores and caches results.

    ``trace`` may be a :class:`~repro.traces.records.Trace` or a
    :class:`~repro.traces.chunked.ChunkedCompiledTrace` (a spooled
    trace replayed with peak memory bounded by chunk size — see
    ``docs/SCALING.md``).  Both replay the same issuer rows, so results
    are bit-identical across the two, with or without an Observation.

    ``n_hosts`` defaults to the number of hosts appearing in the trace.
    ``cold_start=True`` removes the warmup phase instead of replaying
    it — the paper's model of "having a non-persistent flash cache and
    crashing at the beginning of the simulator run" (§7.8): statistics
    then cover the same records as a warm run, but against initially
    empty caches.

    ``restart`` (extension) instead *replays* the warmup and then
    crashes/reboots the caches at the measurement boundary, optionally
    modeling the recovery scan of a persistent flash cache — see
    :class:`~repro.core.restart.RestartSpec`.

    ``timeline_bucket_ns`` additionally collects a read-latency
    *timeline* (mean per time bucket since the measurement boundary),
    exposed as ``results.read_timeline``.

    ``check_invariants`` runs the :mod:`repro.invariants` sanitizer
    during the replay, raising
    :class:`~repro.errors.InvariantViolation` the moment the
    simulation's internal accounting drifts.  ``None`` (the default)
    defers to ``config.check_invariants`` and the
    ``REPRO_CHECK_INVARIANTS`` environment variable.

    ``obs`` attaches a :class:`repro.obs.Observation`: the run then
    emits structured trace events into its recorder and aggregates an
    exact per-request latency breakdown, both also surfaced on the
    results (``results.breakdown`` / ``results.obs_counters``).
    ``config.trace_events=True`` creates an internal Observation
    instead — useful when the run executes in a sweep worker process
    and only the (picklable) results travel back.  The simulation
    itself is bit-identical either way.

    ``parallel_hosts`` shards an eligible multi-host replay across that
    many worker processes — results are bit-identical to the serial
    path, which any ineligible run falls back to (the reason is in
    :func:`repro.engine.parallel.last_outcome`).  See
    :mod:`repro.engine.parallel` and ``docs/SCALING.md``.
    """
    if cold_start:
        trace = trace.without_warmup()
    if n_hosts is None:
        hosts_in_trace = trace.hosts()
        n_hosts = (max(hosts_in_trace) + 1) if hosts_in_trace else 1
    if parallel_hosts and parallel_hosts > 1:
        from repro.engine.parallel import try_parallel_replay

        merged = try_parallel_replay(
            trace,
            config,
            n_hosts=n_hosts,
            workers=parallel_hosts,
            restart=restart,
            timeline_bucket_ns=timeline_bucket_ns,
            check_invariants=check_invariants,
            obs=obs,
        )
        if merged is not None:
            return merged
        # Declined: the serial path is always correct.
    system = System(
        config,
        n_hosts,
        restart=restart,
        timeline_bucket_ns=timeline_bucket_ns,
        check_invariants=check_invariants,
        obs=obs,
    )
    system.replay(trace)
    return results_from_system(system, config, len(trace))
