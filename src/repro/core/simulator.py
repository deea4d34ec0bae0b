"""Top-level entry point: replay a trace under a configuration."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Union

from repro.core.config import SimConfig
from repro.core.machine import System
from repro.core.restart import RestartSpec
from repro.core.results import SimulationResults
from repro.errors import ConfigError
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.compiled import CompiledTrace
from repro.traces.records import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observation

#: Environment default for ``run_simulation(parallel_hosts=...)``:
#: the number of worker processes to shard a multi-host replay across
#: (``0``/unset keeps the serial path).  See
#: :mod:`repro.engine.parallel` for eligibility — ineligible runs fall
#: back to serial with identical results either way.
PARALLEL_HOSTS_ENV = "REPRO_PARALLEL_HOSTS"


def _parallel_hosts_default() -> int:
    env = os.environ.get(PARALLEL_HOSTS_ENV, "").strip()
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError("%s must be an integer, got %r" % (PARALLEL_HOSTS_ENV, env))


def results_from_system(
    system: System, config: SimConfig, records_replayed: int
) -> SimulationResults:
    """Collect a finished :class:`System`'s state into results.

    Shared by the serial replay path below and the parallel replay
    workers (:mod:`repro.engine.parallel`), so both report through the
    exact same aggregation code.
    """
    obs = system.obs
    tier_stats = system.aggregate_tier_stats()
    flash_reads, flash_writes = system.total_flash_traffic()
    metrics = system.metrics
    return SimulationResults(
        config_description=config.describe(),
        read_latency=metrics.read_latency,
        write_latency=metrics.write_latency,
        read_request_latency=metrics.read_request_latency,
        write_request_latency=metrics.write_request_latency,
        simulated_ns=system.sim.now,
        measured_ns=system.measured_ns(),
        records_replayed=records_replayed,
        blocks_read=metrics.blocks_read,
        blocks_written=metrics.blocks_written,
        tier_stats=tier_stats,
        filer_fast_reads=system.filer.fast_reads,
        filer_slow_reads=system.filer.slow_reads,
        filer_writes=system.filer.writes,
        flash_blocks_read=flash_reads,
        flash_blocks_written=flash_writes,
        flash_write_amplification=system.mean_write_amplification(),
        flash_program_bytes=system.total_flash_program_bytes(),
        flash_erase_count=system.total_flash_erases(),
        flash_write_amp=system.measured_write_amplification(),
        device_lifetime_days=system.device_lifetime_days(),
        flash_admission_stats=system.admission_stats(),
        network_utilization=system.mean_network_utilization(),
        read_timeline=metrics.read_timeline,
        per_host=system.per_host_summary(),
        block_writes=system.directory.block_writes,
        writes_requiring_invalidation=system.directory.writes_requiring_invalidation,
        copies_invalidated=system.directory.copies_invalidated,
        invalidation_latency_ns=system.directory.invalidation_latency_ns,
        breakdown=obs.breakdown if obs is not None else None,
        obs_counters=obs.counters() if obs is not None else None,
    )


def run_simulation(
    trace: Union[Trace, CompiledTrace, ChunkedCompiledTrace],
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

    ``trace`` may be a :class:`~repro.traces.records.Trace`, a
    :class:`~repro.traces.compiled.CompiledTrace`, or a
    :class:`~repro.traces.chunked.ChunkedCompiledTrace` (a spooled
    trace replayed with peak memory bounded by chunk size — see
    ``docs/SCALING.md``).  A plain trace is compiled first (memoized on
    the trace), so every form replays the same issuer rows and results
    are bit-identical across all three, with or without an Observation.

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

    ``parallel_hosts`` (or the ``REPRO_PARALLEL_HOSTS`` environment
    variable) shards an eligible multi-host replay across that many
    worker processes with a deterministic merge — results are
    bit-identical to the serial path, which any ineligible run silently
    falls back to.  See :mod:`repro.engine.parallel` and
    ``docs/SCALING.md``.
    """
    if cold_start:
        trace = trace.without_warmup()
    if n_hosts is None:
        hosts_in_trace = trace.hosts()
        n_hosts = (max(hosts_in_trace) + 1) if hosts_in_trace else 1
    if parallel_hosts is None:
        parallel_hosts = _parallel_hosts_default()
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
        # Ineligible (or a cross-group conflict surfaced): fall through
        # to the serial path, which is always correct.
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
