"""The simulated machine: hosts, network segments, filer, directory.

:class:`System` wires the substrates together for one configuration and
replays a trace through them: one simulation process per (host, thread)
pair, each issuing its records in order with at most one I/O in flight
("the simulator issues I/O requests from the trace as quickly as
possible given that each application thread can have only one I/O in
progress").
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Tuple

from repro.cache.block import Medium
from repro.core.config import SimConfig
from repro.core.consistency import ConsistencyDirectory
from repro.core.restart import RestartSpec
from repro.core.host import HostStack, UnifiedStack, build_host_stack
from repro.core.metrics import MetricsCollector
from repro.core.policies import PolicyKind
from repro.engine.compiled import kernel_eligible
from repro.engine.periodic import spawn_periodic
from repro.engine.rng import RngStreams
from repro.engine.simulation import Simulator
from repro.errors import ConfigError
from repro.filer.server import Filer
from repro.flash.device import FlashDevice
from repro.flash.ftl_device import FTLFlashDevice
from repro.invariants import build_suite, resolve_enabled
from repro.net.link import NetworkSegment
from repro.traces.compiled import compile_trace
from repro.traces.records import Trace

#: RAM writeback policies under which a write hit starts a flush.
_FLUSHING_POLICIES = (PolicyKind.SYNC, PolicyKind.ASYNC, PolicyKind.DELAYED)


class System:
    """One simulated deployment: N hosts sharing one filer.

    ``restart`` (a :class:`~repro.core.restart.RestartSpec`) crashes or
    reboots every host's caches at the warmup/measurement boundary, so
    the measured phase runs against freshly-lost RAM and a lost or
    recovering flash cache.

    ``check_invariants`` attaches the :mod:`repro.invariants` sanitizer
    to the replay; ``None`` defers to ``config.check_invariants`` and
    the ``REPRO_CHECK_INVARIANTS`` environment variable.
    """

    def __init__(
        self,
        config: SimConfig,
        n_hosts: int,
        restart: Optional["RestartSpec"] = None,
        timeline_bucket_ns: Optional[int] = None,
        check_invariants: Optional[bool] = None,
        obs: Optional[object] = None,
    ) -> None:
        if n_hosts < 1:
            raise ConfigError("a System needs at least one host (got %r)" % n_hosts)
        self.config = config
        self.n_hosts = n_hosts
        self.restart = restart
        self._timeline_bucket_ns = timeline_bucket_ns
        self.sim = Simulator()
        # Observability: an explicit Observation wins; otherwise
        # config.trace_events creates one internally (the sweep path).
        # The host stacks are the same either way: the traced driver
        # passes each block a span, which the stacks fill.
        if obs is None and config.trace_events:
            from repro.obs import Observation

            obs = Observation()
        self.obs = obs
        streams = RngStreams(config.seed)
        self.filer = Filer(self.sim, streams.stream("filer"), config.timing.filer)
        self.directory = ConsistencyDirectory(n_hosts)
        self.segments: List[NetworkSegment] = []
        self.flash_devices: List[Optional[FlashDevice]] = []
        self.hosts: List[HostStack] = []
        for host_id in range(n_hosts):
            segment = NetworkSegment(
                self.sim, config.timing.network, name="net.h%d" % host_id
            )
            device: Optional[FlashDevice] = None
            if config.has_flash:
                if config.ftl_model:
                    device = FTLFlashDevice(
                        self.sim,
                        capacity_blocks=config.flash_blocks,
                        timing=config.timing.flash,
                        persistent_metadata=config.persistent_flash,
                        overprovision=config.ftl_overprovision,
                        rated_erase_cycles=config.ftl_rated_erase_cycles,
                        name="flash.h%d" % host_id,
                    )
                else:
                    device = FlashDevice(
                        self.sim,
                        config.timing.flash,
                        parallelism=config.flash_parallelism,
                        persistent_metadata=config.persistent_flash,
                        name="flash.h%d" % host_id,
                    )
            stack = build_host_stack(
                self.sim,
                host_id,
                config,
                device,
                segment,
                self.filer,
                self.directory,
                streams.stream("host", host_id),
            )
            self.segments.append(segment)
            self.flash_devices.append(device)
            self.hosts.append(stack)
        if obs is not None:
            from repro.obs.instrument import attach_observation

            attach_observation(self, obs)
        self.invalidation_messages = 0
        if config.model_invalidation_traffic:
            self.directory.traffic_hook = self._send_invalidation_message
        self.metrics = MetricsCollector(timeline_bucket_ns=timeline_bucket_ns)
        self.metrics.measuring = True  # the replay driver gates on warmup
        # Per-host collectors: consolidation workloads (different
        # scenarios per host) need per-host latency, not just the fleet
        # aggregate.
        self.host_metrics: List[MetricsCollector] = []
        for _ in range(n_hosts):
            collector = MetricsCollector()
            collector.measuring = True
            self.host_metrics.append(collector)
        self._blocks_until_measurement = 0
        self._active_threads = 0
        self._measurement_started_at: Optional[int] = None
        self.check_invariants = resolve_enabled(check_invariants, config)
        self.invariants = build_suite(self) if self.check_invariants else None
        self._records_since_check = 0

    def _send_invalidation_message(self, _writer_host: int, victim_host: int) -> None:
        """Occupy the victim's filer→host wire with one notification
        packet (the invalidation itself stays instant, as in the paper;
        only the traffic's contention is added)."""
        from repro.net.packet import Packet

        self.invalidation_messages += 1
        self.sim.spawn(
            self.segments[victim_host].transfer(Packet.request(), "down"),
            name="inval-msg.h%d" % victim_host,
        )

    # --- warmup boundary ------------------------------------------------
    #
    # Application metrics and invalidation counts are gated per record
    # (a record is warmup iff its index precedes trace.warmup_records).
    # The *global* statistics that cannot be attributed to single
    # records — cache hit counters, device/filer/network traffic — are
    # reset once the replay has completed a warmup's worth of block
    # volume.  Threads interleave uniformly, so that moment corresponds
    # to the paper's "half of the volume is warmup" boundary.

    def _record_completed(self, nblocks: int) -> None:
        if self.invariants is not None:
            # Record boundaries are safe check points: every simulation
            # process (this thread included) is suspended at a yield.
            self._records_since_check += 1
            if self._records_since_check >= self.config.invariant_check_interval:
                self._records_since_check = 0
                self.invariants.check()
        if self._measurement_started_at is not None:
            return
        self._blocks_until_measurement -= nblocks
        if self._blocks_until_measurement <= 0:
            self._begin_measurement()

    def _begin_measurement(self) -> None:
        """Reset everything that reports measurement-phase statistics."""
        self._measurement_started_at = self.sim.now
        if self.restart is not None:
            for host in self.hosts:
                host.apply_restart(
                    self.restart.volatile_flash, self.restart.scan_ns_per_block
                )
        self.metrics.begin_measurement(self.sim.now)
        self.filer.reset_counters()
        for host in self.hosts:
            host.reset_measurement_stats()
        for device in self.flash_devices:
            if device is not None:
                device.reset_counters()
        for segment in self.segments:
            segment.reset_counters()

    # --- replay -----------------------------------------------------------

    def replay(self, trace) -> None:
        """Replay the whole trace (``Trace``, ``CompiledTrace``, or
        ``ChunkedCompiledTrace``) to completion.

        A plain ``Trace`` is compiled first (one pass, memoized on the
        trace object).  Every form then hands the drivers the same
        issuer plan — per (host, thread), its ``(op, start_block,
        nblocks)`` rows with the warmup prefix split off — so the three
        replay bit-identically; a chunked trace streams its rows, so
        peak memory stays bounded by chunk size.
        """
        if isinstance(trace, Trace):
            trace = compile_trace(trace)
        plan = trace.issuer_plan()
        # Every issuer is checked before anything is spawned or reset, so
        # a bad trace leaves the system as it was.
        for host_id, _thread_id, _warmup_rows, _measured_rows in plan:
            if host_id >= self.n_hosts:
                raise ValueError(
                    "trace references host %d but the system has %d hosts"
                    % (host_id, self.n_hosts)
                )
        self._blocks_until_measurement = trace.warmup_blocks()
        if self._blocks_until_measurement == 0:
            self._begin_measurement()
        self._active_threads = len(plan)
        recorded = self.obs is not None or self.metrics.read_timeline is not None
        for host_id, thread_id, warmup_rows, measured_rows in plan:
            stack = self.hosts[host_id]
            if recorded:
                process = self._thread_process_obs(
                    stack, thread_id, warmup_rows, measured_rows
                )
            else:
                process = self._thread_process(stack, warmup_rows, measured_rows)
            self.sim.spawn(process, name="app.h%d" % host_id)
        # Syncers and cleaners tick while application threads are live
        # and wind down afterwards, letting the event queue drain.
        spawn_periodic(
            self.sim,
            [task for host in self.hosts for task in host.periodic_tasks()],
            lambda: self._active_threads > 0,
        )
        # The replay loop's allocations (generator frames, event-heap
        # tuples) are acyclic and die by reference counting, so cyclic
        # collections during the run only re-scan the stable simulation
        # heap — a few thousand times on a million-record trace.  Pause
        # the collector for the duration; any stray cycle is picked up
        # by the first collection after re-enabling.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        if self.invariants is not None:
            self.invariants.final()

    def _thread_process(self, stack: HostStack, warmup_rows, measured_rows):
        """One application thread: issue its rows in order, one I/O at a
        time.

        The row containers are any re-iterable of ``(op, start_block,
        nblocks)`` int tuples (materialized lists or a chunked trace's
        lazy streams), each iterated once, in order.

        When :func:`~repro.engine.compiled.kernel_eligible` holds, a
        block resident in RAM is served inline: the store effects of
        the generators' hit path (a write first invalidates remote
        copies and dirties the block), then the clock jumps past the
        hit if it ends strictly before the heap front — the rule the
        unbounded ``Simulator.run`` of a replay applies to a yielded
        delay — and otherwise the delay is yielded.  Every other block
        goes through ``read_block``/``write_block``.

        A hit whose clock was fast-forwarded took exactly the hit delay,
        so it is counted rather than recorded: the counts are run-length
        records of that delay (and of the store's lookup/hit counters),
        flushed before every suspension and every ``_record_completed``.
        Nothing else runs in between, so no other code ever sees them
        part-way and the flushed totals equal per-block updates bit for
        bit.  Every other block records its latency directly.  See
        DESIGN.md §9.
        """
        sim = self.sim
        heap = sim._heap
        read_block = stack.read_block
        write_block = stack.write_block
        host_id = stack.host_id
        on_block_write = self.directory.on_block_write
        record_completed = self._record_completed
        check_invariants = self.invariants is not None
        fleet = self.metrics
        host_m = self.host_metrics[host_id]
        fleet_reads = fleet.read_latency
        fleet_writes = fleet.write_latency
        host_reads = host_m.read_latency
        host_writes = host_m.write_latency
        request_reads = fleet.read_request_latency
        request_writes = fleet.write_request_latency
        ram_read_ns = stack._ram_read_ns
        ram_write_ns = stack._ram_write_ns
        if kernel_eligible(self):
            store = stack.cache if isinstance(stack, UnifiedStack) else stack.ram
            resident = store._entries
            # Under a sync, async or delayed RAM policy a write hit
            # starts a flush: those write hits take the generators.
            flushing = self.config.ram_policy.kind in _FLUSHING_POLICIES
            writable = {} if flushing else resident
            stats = store.stats
            dirty_add = store._dirty.add
            touch = store._touch
        else:
            resident = writable = {}  # every block takes the generators
            stats = dirty_add = touch = None
        # Bound once: the store's index is an OrderedDict, whose
        # instance __dict__ every ``.get`` attribute lookup would search.
        resident_get = resident.get
        writable_get = writable.get
        ram = Medium.RAM
        # Pending: fast-forwarded measured read and write hits, and every
        # inline hit (for the store's counters).
        reads = writes = hits = 0

        def flush():
            nonlocal reads, writes, hits
            if reads:
                fleet_reads.record_n(ram_read_ns, reads)
                host_reads.record_n(ram_read_ns, reads)
                fleet.blocks_read += reads
                host_m.blocks_read += reads
                reads = 0
            if writes:
                fleet_writes.record_n(ram_write_ns, writes)
                host_writes.record_n(ram_write_ns, writes)
                fleet.blocks_written += writes
                host_m.blocks_written += writes
                writes = 0
            if hits:
                stats.lookups += hits
                stats.hits += hits
                hits = 0

        for measured, rows in ((False, warmup_rows), (True, measured_rows)):
            for op, start, nb in rows:
                if op:
                    lookup, hit_ns = writable_get, ram_write_ns
                else:
                    lookup, hit_ns = resident_get, ram_read_ns
                request_start = now = sim.now
                for block in range(start, start + nb):
                    entry = lookup(block)
                    if entry is not None and entry.medium is ram:
                        if op:
                            on_block_write(host_id, block, measured)
                            entry.dirty = True
                            dirty_add(block)
                        touch(block)
                        hits += 1
                        when = now + hit_ns
                        if hit_ns > 0 and (not heap or when < heap[0][0]):
                            sim.now = now = when
                            if measured:
                                if op:
                                    writes += 1
                                else:
                                    reads += 1
                            continue
                        flush()
                        yield hit_ns
                    else:
                        if reads or writes or hits:
                            flush()
                        if op:
                            yield from write_block(block, measured)
                        else:
                            yield from read_block(block)
                    latency = sim.now - now
                    now = sim.now
                    if measured:
                        if op:
                            fleet_writes.record_n(latency, 1)
                            host_writes.record_n(latency, 1)
                            fleet.blocks_written += 1
                            host_m.blocks_written += 1
                        else:
                            fleet_reads.record_n(latency, 1)
                            host_reads.record_n(latency, 1)
                            fleet.blocks_read += 1
                            host_m.blocks_read += 1
                if measured:
                    if op:
                        request_writes.record_n(now - request_start, 1)
                    else:
                        request_reads.record_n(now - request_start, 1)
                if check_invariants or self._measurement_started_at is None:
                    flush()
                    record_completed(nb)
        flush()
        self._active_threads -= 1

    def _thread_process_obs(
        self, stack: HostStack, thread_id: int, warmup_rows, measured_rows
    ):
        """One application thread with per-block records: the driver of
        replays with an Observation attached or a latency timeline.

        Adds request start/finish events and passes every block a
        reusable :class:`~repro.obs.breakdown.Span`, which the stack's
        ``read_block``/``write_block`` fill with exact component
        attribution.  Latencies go through the collectors'
        ``record_block``, which also keeps the timeline.
        """
        from repro.obs.breakdown import Span
        from repro.obs.events import EventKind

        sim = self.sim
        obs = self.obs
        rec = obs.recorder if obs is not None else None
        collector = obs.breakdown_collector if obs is not None else None
        record_span = collector.record if collector is not None else None
        read_block = stack.read_block
        write_block = stack.write_block
        metrics = self.metrics
        record_fleet_block = metrics.record_block
        record_request = metrics.record_request
        record_host_block = self.host_metrics[stack.host_id].record_block
        record_completed = self._record_completed
        host_id = stack.host_id
        start_kind = EventKind.REQUEST_START
        finish_kind = EventKind.REQUEST_FINISH
        span = Span()
        for measured, rows in ((False, warmup_rows), (True, measured_rows)):
            for op, start, nb in rows:
                is_write = op != 0
                request_start = sim.now
                if rec is not None:
                    rec.emit(
                        request_start,
                        start_kind,
                        host_id,
                        info={
                            "thread": thread_id,
                            "op": "w" if is_write else "r",
                            "blocks": nb,
                        },
                    )
                for block in range(start, start + nb):
                    span.reset()
                    block_start = sim.now
                    if is_write:
                        yield from write_block(block, measured, span)
                    else:
                        yield from read_block(block, span)
                    if measured:
                        now = sim.now
                        latency = now - block_start
                        record_fleet_block(is_write, latency, at_ns=now)
                        record_host_block(is_write, latency)
                        if record_span is not None:
                            record_span(is_write, latency, span)
                if measured:
                    record_request(is_write, sim.now - request_start)
                if rec is not None:
                    rec.emit(
                        sim.now,
                        finish_kind,
                        host_id,
                        dur=sim.now - request_start,
                        info={"thread": thread_id},
                    )
                record_completed(nb)
        self._active_threads -= 1

    # --- reporting inputs ----------------------------------------------------

    def measured_ns(self) -> int:
        if self._measurement_started_at is None:
            return 0
        return self.sim.now - self._measurement_started_at

    def aggregate_tier_stats(self) -> Dict[str, Dict[str, float]]:
        """Sum per-tier cache counters across hosts."""
        totals: Dict[str, Dict[str, float]] = {}
        for host in self.hosts:
            for tier_name, store in _stores_of(host):
                tier = totals.setdefault(tier_name, {})
                for key, value in store.stats.as_dict().items():
                    if key == "hit_rate":
                        continue
                    tier[key] = tier.get(key, 0) + value
        for tier in totals.values():
            accesses = tier.get("hits", 0) + tier.get("misses", 0)
            tier["hit_rate"] = (tier.get("hits", 0) / accesses) if accesses else 0.0
        return totals

    def mean_network_utilization(self) -> float:
        if not self.segments:
            return 0.0
        return mean_in_order([s.utilization() for s in self.segments])

    def total_flash_traffic(self) -> Tuple[int, int]:
        reads = sum(d.blocks_read for d in self.flash_devices if d is not None)
        writes = sum(d.blocks_written for d in self.flash_devices if d is not None)
        return reads, writes

    def per_host_summary(self) -> List[Dict[str, float]]:
        """Per-host application latency summary (measurement phase)."""
        rows: List[Dict[str, float]] = []
        for host_id, collector in enumerate(self.host_metrics):
            rows.append(
                {
                    "host": host_id,
                    "read_us": collector.read_latency.mean_us,
                    "read_blocks": collector.read_latency.count,
                    "write_us": collector.write_latency.mean_us,
                    "write_blocks": collector.write_latency.count,
                }
            )
        return rows

    def mean_write_amplification(self) -> Optional[float]:
        """Mean FTL write amplification across hosts (None without FTLs)."""
        factors = [
            d.write_amplification
            for d in self.flash_devices
            if isinstance(d, FTLFlashDevice)
        ]
        if not factors:
            return None
        return mean_in_order(factors)

    # --- endurance reporting -------------------------------------------

    def total_flash_program_bytes(self) -> int:
        """Bytes physically programmed across all flash devices during
        the measurement phase (GC relocations included with the FTL
        model; plain host traffic without)."""
        return sum(
            d.program_bytes() for d in self.flash_devices if d is not None
        )

    def total_flash_erases(self) -> int:
        """Erase operations across all flash devices during the
        measurement phase (0 without the FTL model)."""
        return sum(
            d.erase_count() for d in self.flash_devices if d is not None
        )

    def measured_write_amplification(self) -> Optional[float]:
        """Measurement-window write amplification (flash page programs
        per host page write), aggregated over the fleet's FTL devices.
        None without the FTL model; 0.0 when nothing was written."""
        host_pages = 0
        flash_pages = 0
        seen_ftl = False
        for device in self.flash_devices:
            if not isinstance(device, FTLFlashDevice):
                continue
            seen_ftl = True
            host_pages += device.ftl.host_writes - device._host_writes_at_reset
            flash_pages += device.ftl.flash_writes - device._flash_writes_at_reset
        if not seen_ftl:
            return None
        if host_pages == 0:
            return 0.0
        return flash_pages / host_pages

    def device_lifetime_days(self) -> Optional[float]:
        """Projected device lifetime at the measured erase rate.

        The fleet's worst (minimum) estimate: each FTL device's rated
        erase budget (``rated_erase_cycles x n_blocks``) divided by its
        measured erase rate over the measurement window.  ``inf`` when
        no erase happened; None without the FTL model or before the
        measurement phase produced any simulated time.
        """
        window_ns = self.measured_ns()
        if window_ns <= 0:
            return None
        day_ns = 86_400 * 1_000_000_000
        lifetimes: List[float] = []
        for device in self.flash_devices:
            if not isinstance(device, FTLFlashDevice):
                continue
            erases = device.erase_count()
            if erases == 0:
                lifetimes.append(float("inf"))
                continue
            budget = device.ftl.config.rated_total_erases
            lifetimes.append(budget / erases * window_ns / day_ns)
        if not lifetimes:
            return None
        return min(lifetimes)

    def admission_stats(self) -> Optional[Dict[str, int]]:
        """Summed admission-verdict counters across hosts (None when
        the paper-default always-admit policy is active everywhere)."""
        totals: Optional[Dict[str, int]] = None
        for host in self.hosts:
            controller = getattr(host, "_admission", None)
            if controller is None:
                continue
            counters = controller.counters()
            if totals is None:
                totals = dict(counters)
            else:
                for key, value in counters.items():
                    totals[key] = totals.get(key, 0) + value
        return totals


def mean_in_order(values: List[float]) -> float:
    """The mean of ``values`` summed left to right.

    Python 3.12 made ``sum()`` over floats compensated, so it can round
    differently from a plain loop (and from 3.11's ``sum()``).  The
    parallel-replay merge recomputes these means from its workers'
    meters (``repro.engine.parallel``); summing in order on both sides
    keeps them bit-identical on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _stores_of(host: HostStack):
    """Yield (tier name, store) pairs for any architecture."""
    ram = getattr(host, "ram", None)
    if ram is not None and ram.capacity_blocks > 0:
        yield "ram", ram
    flash = getattr(host, "flash", None)
    if flash is not None:
        yield "flash", flash
    cache = getattr(host, "cache", None)
    if cache is not None:
        yield "unified", cache
