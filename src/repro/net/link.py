"""The network segment: two FIFO wires and the filer round trip.

PAPER.md §3: "each segment can carry one packet at a time, and each I/O
request uses one packet in each direction", each packet paying a fixed
latency plus a small time per bit of block data.  A host's private
segment is full duplex, so each direction is one capacity-1 FIFO
server, a :class:`_Wire`.  :class:`NetworkSegment` owns both wires and
runs the wire protocol itself: a block's round trip to the filer
(:meth:`NetworkSegment.read`, :meth:`NetworkSegment.write`) is one
generator frame that sends the request leg, charges the filer's
service and returns the reply leg, with each leg's acquire and release
written out in that frame.

The wire protocol, per packet:

* count the packet (``packets_sent``, ``payload_bytes_sent``) and, with
  an event recorder attached, emit ``NET_XFER`` at issue;
* an idle wire (``busy_since is None``) is taken at once and its busy
  period starts now; a busy wire parks the process in the wire's
  :class:`~repro.engine.events.WaitQueue`;
* hold the wire for the packet's wire time (computed once per packet
  shape, at construction);
* release: hand the wire to the first parked process, which resumes at
  this instant, or, with nobody waiting, close the busy period into
  the integer ``busy_time``.

A wire behaves exactly as a capacity-1
:class:`~repro.engine.resources.Resource` would, with no helper frame
per packet: the same heap pushes in the same order and the same busy
nanoseconds (DESIGN.md §16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro._units import NS
from repro.engine.events import WaitQueue
from repro.engine.simulation import Simulator
from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.obs.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.filer.server import Filer
    from repro.obs.breakdown import Span

_NET_XFER = EventKind.NET_XFER
_QUEUE_ENTER = EventKind.QUEUE_ENTER
_QUEUE_EXIT = EventKind.QUEUE_EXIT

#: The protocol's three packet shapes: a read is request up, data down;
#: a write is data up, ack down.
_PKT_REQUEST = Packet.request()
_PKT_DATA = Packet.data_block()
_PKT_ACK = Packet.ack()
_DATA_BYTES = _PKT_DATA.payload_bytes


@dataclass(frozen=True)
class NetworkTiming:
    """Table 1's network parameters.

    ``base_latency_ns`` is the fixed per-packet cost (8.2 µs — headers,
    block information, protocol overhead); ``per_bit_ns`` is the wire
    time per bit of block data (1 ns/bit ≈ gigabit speed).
    """

    base_latency_ns: int = 8_200 * NS  # 8.2 us per packet
    per_bit_ns: float = 1.0            # 1 ns per bit of data

    def __post_init__(self) -> None:
        if self.base_latency_ns < 0 or self.per_bit_ns < 0:
            raise ConfigError("network latencies must be non-negative")

    def packet_time_ns(self, packet: Packet) -> int:
        """Wire time of one packet on the segment."""
        return self.base_latency_ns + round(self.per_bit_ns * packet.payload_bits)

    @classmethod
    def paper_default(cls) -> "NetworkTiming":
        return cls()


class _Wire:
    """One direction of a segment: a capacity-1 FIFO server.

    ``busy_since`` is the start of the open busy period (None while the
    wire is idle), ``busy_time`` the integer nanoseconds of every closed
    busy period, and ``waiters`` the processes parked until the wire
    frees, in arrival order.
    """

    __slots__ = ("name", "busy_since", "busy_time", "waiters")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_since: Optional[int] = None
        self.busy_time = 0
        self.waiters = WaitQueue()

    def busy_ns(self, now: int) -> int:
        """Busy nanoseconds up to ``now``, the open period included."""
        busy = self.busy_time
        if self.busy_since is not None:
            busy += now - self.busy_since
        return busy


class NetworkSegment:
    """A private host↔filer segment: one packet at a time per direction.

    The host→filer wire (``up``: requests, write data) and the
    filer→host wire (``down``: read data, acks) serialize independently.
    Convoys still form: threads evicting dirty blocks queue on the
    host→filer wire.

    ``filer`` is the server behind the segment; :meth:`read` and
    :meth:`write` need it, :meth:`transfer` does not.  ``host_id``
    labels the segment's queue events.
    """

    __slots__ = (
        "_sim",
        "timing",
        "filer",
        "host_id",
        "_up",
        "_down",
        "_request_ns",
        "_data_ns",
        "_ack_ns",
        "name",
        "packets_sent",
        "payload_bytes_sent",
        "obs",
    )

    def __init__(
        self,
        sim: Simulator,
        timing: Optional[NetworkTiming] = None,
        name: str = "net",
        filer: Optional["Filer"] = None,
        host_id: int = 0,
    ) -> None:
        self._sim = sim
        self.timing = timing = timing or NetworkTiming.paper_default()
        self.filer = filer
        self.host_id = host_id
        self._up = _Wire(name + ".up")
        self._down = _Wire(name + ".down")
        self._request_ns = timing.packet_time_ns(_PKT_REQUEST)
        self._data_ns = timing.packet_time_ns(_PKT_DATA)
        self._ack_ns = timing.packet_time_ns(_PKT_ACK)
        self.name = name
        self.packets_sent = 0
        self.payload_bytes_sent = 0
        #: observability sink (an EventRecorder); None when tracing is
        #: off — each packet then pays a single branch.
        self.obs = None

    # --- the filer round trip ----------------------------------------

    def read(self, block: int, span: Optional["Span"] = None) -> Iterator:
        """Process generator: read one block from the filer.

        A request packet up, the filer's read service, a data packet
        down.  With a ``span``, time parked for a busy wire goes to
        ``filer_queue`` (bracketed by ``QUEUE_ENTER``/``QUEUE_EXIT``
        events when a recorder is attached), the two wire times to
        ``net`` and the service to ``filer_service``.
        """
        sim = self._sim
        obs = self.obs
        wire = self._up
        up_ns = self._request_ns
        self.packets_sent += 1
        if obs is not None:
            # ts marks packet *issue* (queueing for the wire, if any,
            # happens after); dur is the pure wire time.
            obs.emit(sim.now, _NET_XFER, tier=wire.name, dur=up_ns)
        if wire.busy_since is None:
            wire.busy_since = sim.now
        elif span is None:
            yield wire.waiters
        else:
            yield from self._park(wire, block, span)
        yield up_ns
        if wire.waiters:
            wire.waiters.wake_first()
        else:
            wire.busy_time += sim.now - wire.busy_since
            wire.busy_since = None
        service_ns = self.filer.read_service_ns()
        yield service_ns
        wire = self._down
        down_ns = self._data_ns
        self.packets_sent += 1
        self.payload_bytes_sent += _DATA_BYTES
        if obs is not None:
            obs.emit(sim.now, _NET_XFER, tier=wire.name, dur=down_ns)
        if wire.busy_since is None:
            wire.busy_since = sim.now
        elif span is None:
            yield wire.waiters
        else:
            yield from self._park(wire, block, span)
        yield down_ns
        if wire.waiters:
            wire.waiters.wake_first()
        else:
            wire.busy_time += sim.now - wire.busy_since
            wire.busy_since = None
        if span is not None:
            span.net += up_ns + down_ns
            span.filer_service += service_ns

    def write(self, block: int, span: Optional["Span"] = None) -> Iterator:
        """Process generator: write one block to the filer.

        A data packet up, the filer's write service, an ack down; a
        ``span`` is filled as in :meth:`read`.
        """
        sim = self._sim
        obs = self.obs
        wire = self._up
        up_ns = self._data_ns
        self.packets_sent += 1
        self.payload_bytes_sent += _DATA_BYTES
        if obs is not None:
            obs.emit(sim.now, _NET_XFER, tier=wire.name, dur=up_ns)
        if wire.busy_since is None:
            wire.busy_since = sim.now
        elif span is None:
            yield wire.waiters
        else:
            yield from self._park(wire, block, span)
        yield up_ns
        if wire.waiters:
            wire.waiters.wake_first()
        else:
            wire.busy_time += sim.now - wire.busy_since
            wire.busy_since = None
        service_ns = self.filer.write_service_ns()
        yield service_ns
        wire = self._down
        down_ns = self._ack_ns
        self.packets_sent += 1
        if obs is not None:
            obs.emit(sim.now, _NET_XFER, tier=wire.name, dur=down_ns)
        if wire.busy_since is None:
            wire.busy_since = sim.now
        elif span is None:
            yield wire.waiters
        else:
            yield from self._park(wire, block, span)
        yield down_ns
        if wire.waiters:
            wire.waiters.wake_first()
        else:
            wire.busy_time += sim.now - wire.busy_since
            wire.busy_since = None
        if span is not None:
            span.net += up_ns + down_ns
            span.filer_service += service_ns

    def _park(self, wire: _Wire, block: int, span: "Span") -> Iterator:
        """Wait for a busy wire, attributing the wait to ``filer_queue``."""
        sim = self._sim
        rec = self.obs
        entered = sim.now
        if rec is not None:
            rec.emit(entered, _QUEUE_ENTER, self.host_id, block, tier=wire.name)
        yield wire.waiters
        waited = sim.now - entered
        span.filer_queue += waited
        if rec is not None:
            rec.emit(
                sim.now, _QUEUE_EXIT, self.host_id, block, tier=wire.name, dur=waited
            )

    # --- one packet ----------------------------------------------------

    def transfer(self, packet: Packet, direction: str = "up") -> Iterator:
        """Process generator: occupy one direction of the segment for
        the packet's wire time (``up`` is host→filer, ``down``
        filer→host).  The invalidation messages use it; they share the
        wires with the round trips."""
        if direction == "up":
            wire = self._up
        elif direction == "down":
            wire = self._down
        else:
            raise ConfigError(
                "direction must be 'up' or 'down', got %r" % (direction,)
            )
        sim = self._sim
        wire_ns = self.timing.packet_time_ns(packet)
        self.packets_sent += 1
        self.payload_bytes_sent += packet.payload_bytes
        obs = self.obs
        if obs is not None:
            obs.emit(sim.now, _NET_XFER, tier=wire.name, dur=wire_ns)
        if wire.busy_since is None:
            wire.busy_since = sim.now
        else:
            yield wire.waiters
        yield wire_ns
        if wire.waiters:
            wire.waiters.wake_first()
        else:
            wire.busy_time += sim.now - wire.busy_since
            wire.busy_since = None

    # --- accounting ------------------------------------------------------

    def busy_ns(self) -> Tuple[int, int]:
        """Busy nanoseconds of the up and down wires so far (the
        numerators of :meth:`utilization`)."""
        now = self._sim.now
        return self._up.busy_ns(now), self._down.busy_ns(now)

    def utilization(self) -> float:
        """Mean busy fraction of the two directions."""
        now = self._sim.now
        if now == 0:
            return 0.0
        up, down = self.busy_ns()
        return (up / now + down / now) / 2.0

    @property
    def queue_length(self) -> int:
        """Processes parked for either wire."""
        return len(self._up.waiters) + len(self._down.waiters)

    def reset_counters(self) -> None:
        self.packets_sent = 0
        self.payload_bytes_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NetworkSegment %s packets=%d>" % (self.name, self.packets_sent)
