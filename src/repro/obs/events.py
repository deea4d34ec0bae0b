"""Structured trace events: the vocabulary of the simulation event stream.

One simulation run with tracing enabled produces an append-only stream
of :class:`TraceEvent` records with monotonic simulated timestamps —
the blktrace-style per-request view (request issue/complete, tier
hit/miss, writeback, eviction, invalidation, queue enter/exit) that the
end-to-end latency histograms cannot provide.  Events are *passive*:
emitting them never schedules simulation work, so a traced run is
bit-identical to an untraced one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class EventKind:
    """Event kind names (plain strings, stable across versions).

    Grouped by the layer that emits them; the JSONL exporter writes the
    kind verbatim, so these are also the on-disk schema.
    """

    # application requests (machine.py replay driver)
    REQUEST_START = "request_start"
    REQUEST_FINISH = "request_finish"
    # cache tiers (host stack block paths, traced replays)
    TIER_HIT = "tier_hit"
    TIER_MISS = "tier_miss"
    WRITEBACK = "writeback"
    # cache stores (cache/store.py)
    EVICTION = "eviction"
    INVALIDATION = "invalidation"
    # contended resources (host filer paths)
    QUEUE_ENTER = "queue_enter"
    QUEUE_EXIT = "queue_exit"
    # network segments (net/link.py)
    NET_XFER = "net_xfer"
    # filer (filer/server.py)
    FILER_READ = "filer_read"
    FILER_WRITE = "filer_write"
    # flash devices (flash/device.py, flash/ftl_device.py)
    DEVICE_READ = "device_read"
    DEVICE_WRITE = "device_write"
    # simulation kernel (engine/simulation.py)
    PROCESS_SPAWN = "process_spawn"
    # syncers (host stacks)
    SYNCER_RUN = "syncer_run"

    #: every kind, in emission-layer order (schema validation uses this)
    ALL = (
        REQUEST_START,
        REQUEST_FINISH,
        TIER_HIT,
        TIER_MISS,
        WRITEBACK,
        EVICTION,
        INVALIDATION,
        QUEUE_ENTER,
        QUEUE_EXIT,
        NET_XFER,
        FILER_READ,
        FILER_WRITE,
        DEVICE_READ,
        DEVICE_WRITE,
        PROCESS_SPAWN,
        SYNCER_RUN,
    )


class TraceEvent(NamedTuple):
    """One structured event in a simulation's trace stream.

    ``ts`` is the simulated time in nanoseconds at emission.  ``host``
    is -1 when the emitting layer has no host context (the shared
    filer).  ``block`` is the global block number or -1.  ``tier`` names
    the cache tier, wire, or device involved (``ram``, ``flash``,
    ``unified``, ``net.h0.up``, ``flash.h0``, ...).  ``dur`` is a
    duration in nanoseconds for events that cover an interval
    (transfers, services, request completions), else ``None``.  ``info``
    is an optional dict of kind-specific fields.
    """

    ts: int
    kind: str
    host: int = -1
    block: int = -1
    tier: Optional[str] = None
    dur: Optional[int] = None
    info: Optional[dict] = None

    def as_dict(self) -> dict:
        """Flatten to the JSONL schema (info keys are inlined)."""
        payload = {"ts": self.ts, "kind": self.kind}
        if self.host >= 0:
            payload["host"] = self.host
        if self.block >= 0:
            payload["block"] = self.block
        if self.tier is not None:
            payload["tier"] = self.tier
        if self.dur is not None:
            payload["dur"] = self.dur
        if self.info:
            for key, value in self.info.items():
                if key not in payload:
                    payload[key] = value
        return payload
