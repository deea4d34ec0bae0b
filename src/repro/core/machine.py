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
from typing import List, Optional

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
        # The host stacks are the same either way: with an Observation
        # the replay driver passes each block a span, which they fill.
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
                self.sim,
                config.timing.network,
                name="net.h%d" % host_id,
                filer=self.filer,
                host_id=host_id,
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
        # Per-host collectors: consolidation workloads (different
        # scenarios per host) need per-host latency, not just the fleet
        # aggregate.
        self.host_metrics: List[MetricsCollector] = [
            MetricsCollector() for _ in range(n_hosts)
        ]
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
        for host_id, thread_id, warmup_rows, measured_rows in plan:
            process = self._thread_process(
                self.hosts[host_id], thread_id, warmup_rows, measured_rows
            )
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

    def _thread_process(
        self, stack: HostStack, thread_id: int, warmup_rows, measured_rows
    ):
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
        bit.  Every other block records its latency directly.

        An attached Observation or a latency timeline turns the inline
        run off, so every block takes the generators.  With an
        Observation each block carries a reused
        :class:`~repro.obs.breakdown.Span`, which the stack fills with
        exact component attribution, and each request emits start and
        finish events; a timeline records every measured read.  See
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
        timeline = fleet.read_timeline
        ram_read_ns = stack._ram_read_ns
        ram_write_ns = stack._ram_write_ns
        obs = self.obs
        if obs is None:
            span = rec = record_span = None
        else:
            from repro.obs.breakdown import Span
            from repro.obs.events import EventKind

            span = Span()
            rec = obs.recorder
            collector = obs.breakdown_collector
            record_span = collector.record if collector is not None else None
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
                if rec is not None:
                    rec.emit(
                        now,
                        EventKind.REQUEST_START,
                        host_id,
                        info={
                            "thread": thread_id,
                            "op": "w" if op else "r",
                            "blocks": nb,
                        },
                    )
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
                        if span is not None:
                            span.reset()
                        if op:
                            yield from write_block(block, measured, span)
                        else:
                            yield from read_block(block, span)
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
                            if timeline is not None:
                                # A read of a measured row can finish
                                # before the warmup boundary (another
                                # thread is still warming up): bucket 0.
                                origin = fleet.measurement_start_ns
                                timeline.record(
                                    0 if origin is None else now - origin, latency
                                )
                        if record_span is not None:
                            record_span(op, latency, span)
                if measured:
                    if op:
                        request_writes.record_n(now - request_start, 1)
                    else:
                        request_reads.record_n(now - request_start, 1)
                if rec is not None:
                    rec.emit(
                        now,
                        EventKind.REQUEST_FINISH,
                        host_id,
                        dur=now - request_start,
                        info={"thread": thread_id},
                    )
                if check_invariants or self._measurement_started_at is None:
                    flush()
                    record_completed(nb)
        flush()
        self._active_threads -= 1


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
