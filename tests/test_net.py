"""Tests for the network model."""

import random
from collections import deque

import pytest

from repro._units import BLOCK_SIZE
from repro.engine.events import Completion
from repro.engine.simulation import Simulator
from repro.errors import ConfigError
from repro.filer.server import Filer
from repro.net.link import NetworkSegment, NetworkTiming
from repro.net.packet import Packet, PacketKind


class TestPacket:
    def test_request_has_no_payload(self):
        assert Packet.request().payload_bytes == 0

    def test_data_block_carries_4k(self):
        assert Packet.data_block().payload_bytes == BLOCK_SIZE

    def test_ack_has_no_payload(self):
        assert Packet.ack().payload_bytes == 0

    def test_payload_bits(self):
        assert Packet.data_block().payload_bits == 8 * BLOCK_SIZE

    def test_non_data_payload_rejected(self):
        with pytest.raises(ConfigError):
            Packet(PacketKind.ACK, payload_bytes=10)

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigError):
            Packet(PacketKind.DATA, payload_bytes=-1)


class TestTiming:
    def test_header_only_packet_time(self):
        timing = NetworkTiming.paper_default()
        assert timing.packet_time_ns(Packet.request()) == 8_200

    def test_data_packet_time(self):
        timing = NetworkTiming.paper_default()
        # base 8.2 us + 32768 bits at 1 ns/bit
        assert timing.packet_time_ns(Packet.data_block()) == 8_200 + 32_768

    def test_custom_per_bit(self):
        timing = NetworkTiming(base_latency_ns=1_000, per_bit_ns=0.5)
        assert timing.packet_time_ns(Packet.data_block()) == 1_000 + 16_384

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            NetworkTiming(base_latency_ns=-1)


class TestSegment:
    def test_single_transfer_time(self):
        sim = Simulator()
        segment = NetworkSegment(sim)

        def proc():
            yield from segment.transfer(Packet.data_block())

        sim.run_until_complete(proc())
        assert sim.now == 8_200 + 32_768

    def test_one_packet_at_a_time_per_direction(self):
        sim = Simulator()
        segment = NetworkSegment(sim)
        done = []

        def sender(tag):
            yield from segment.transfer(Packet.request(), "up")
            done.append((tag, sim.now))

        for tag in "abc":
            sim.spawn(sender(tag))
        sim.run()
        # serialized, not overlapped, in arrival order
        assert done == [("a", 8_200), ("b", 2 * 8_200), ("c", 3 * 8_200)]

    def test_directions_are_independent(self):
        sim = Simulator()
        segment = NetworkSegment(sim)

        def up():
            yield from segment.transfer(Packet.request(), "up")

        def down():
            yield from segment.transfer(Packet.request(), "down")

        sim.spawn(up())
        sim.spawn(down())
        sim.run()
        assert sim.now == 8_200  # full duplex: both overlap
        assert segment.busy_ns() == (8_200, 8_200)

    def test_queue_length_counts_parked_packets(self):
        sim = Simulator()
        segment = NetworkSegment(sim)

        def sender():
            yield from segment.transfer(Packet.request(), "up")

        for _ in range(3):
            sim.spawn(sender())
        sim.run(until=1)
        assert segment.queue_length == 2
        assert sim.blocked_processes == 2
        sim.run()
        assert segment.queue_length == 0
        assert sim.blocked_processes == 0

    def test_unknown_direction_rejected(self):
        sim = Simulator()
        segment = NetworkSegment(sim)
        with pytest.raises(ConfigError):
            list(segment.transfer(Packet.request(), "sideways"))

    def test_counters(self):
        sim = Simulator()
        segment = NetworkSegment(sim)

        def proc():
            yield from segment.transfer(Packet.data_block())
            yield from segment.transfer(Packet.ack())

        sim.run_until_complete(proc())
        assert segment.packets_sent == 2
        assert segment.payload_bytes_sent == BLOCK_SIZE
        segment.reset_counters()
        assert segment.packets_sent == 0

    def test_utilization_when_one_direction_saturated(self):
        sim = Simulator()
        segment = NetworkSegment(sim)

        def sender():
            yield from segment.transfer(Packet.request(), "up")

        for _ in range(3):
            sim.spawn(sender())
        sim.run()
        # up is 100% busy, down idle; the reported mean is 50%.
        assert segment.utilization() == pytest.approx(0.5)


class _GrantWire:
    """The parent's capacity-1 ``Resource`` protocol for one wire: a
    grant completion per acquire, fired at grant time."""

    def __init__(self, sim):
        self.sim = sim
        self.in_use = False
        self.queue = deque()
        self.busy_since = None
        self.busy_time = 0
        self.queued = 0

    def acquire(self):
        grant = Completion()
        if self.in_use:
            self.queued += 1
            self.queue.append(grant)
        else:
            self._grant(grant)
        return grant

    def _grant(self, grant):
        if self.busy_since is None:
            self.busy_since = self.sim.now
        self.in_use = True
        grant.fire(self)

    def release(self):
        self.in_use = False
        if self.queue:
            self._grant(self.queue.popleft())
        else:
            self.busy_time += self.sim.now - self.busy_since
            self.busy_since = None


def _grant_round_trip(sim, up, down, filer, timing, reading):
    """The parent's host-side filer round trip over two grant wires."""
    first, second = (
        (Packet.request(), Packet.data_block())
        if reading
        else (Packet.data_block(), Packet.ack())
    )
    yield up.acquire()
    yield timing.packet_time_ns(first)
    up.release()
    yield filer.read_service_ns() if reading else filer.write_service_ns()
    yield down.acquire()
    yield timing.packet_time_ns(second)
    down.release()


class TestRoundTripMatchesGrantWires:
    """On a contended run the segment's inline wires give the parent's
    grant-completion protocol's event order, busy nanoseconds and
    utilization exactly."""

    @staticmethod
    def _workload(seed):
        rng = random.Random(seed)
        return [
            (rng.randrange(0, 400_000), rng.random() < 0.6, rng.randrange(1, 5))
            for _ in range(40)
        ]

    def _run(self, workload, inline, queued=None):
        sim = Simulator()
        filer = Filer(sim, random.Random(11))
        timing = NetworkTiming.paper_default()
        log = []
        if inline:
            segment = NetworkSegment(sim, timing, filer=filer)
        else:
            up, down = _GrantWire(sim), _GrantWire(sim)

        def client(tag, start, reading, trips):
            yield start
            for trip in range(trips):
                if inline:
                    trip_gen = segment.read(tag) if reading else segment.write(tag)
                else:
                    trip_gen = _grant_round_trip(sim, up, down, filer, timing, reading)
                yield from trip_gen
                log.append((tag, trip, sim.now, sim._seq))

        for tag, (start, reading, trips) in enumerate(workload):
            sim.spawn(client(tag, start, reading, trips))
        sim.run()
        assert sim.blocked_processes == 0
        if inline:
            busy = segment.busy_ns()
            utilization = segment.utilization()
        else:
            busy = (up.busy_time, down.busy_time)
            utilization = (busy[0] / sim.now + busy[1] / sim.now) / 2.0
            queued.append(up.queued + down.queued)
        return log, busy, utilization, sim.now, sim._seq

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_contended_run_is_identical(self, seed):
        workload = self._workload(seed)
        queued = []
        inline = self._run(workload, inline=True)
        reference = self._run(workload, inline=False, queued=queued)
        assert inline == reference
        # The run really contended: packets waited for a wire.
        assert queued[0] > 10
