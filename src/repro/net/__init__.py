"""Network model: private host↔filer segments.

The paper models the network coarsely but deliberately: "each segment
can carry one packet at a time, and each I/O request uses one packet in
each direction.  Each packet is assumed to incur a fixed latency (for
headers, block information, and so forth) plus a small amount of
additional time per bit of block data transferred."

:class:`NetworkSegment` implements exactly that: two capacity-1 FIFO
wires, one per direction, each packet holding its wire for the
packet's wire time; the segment also runs a block's whole filer round
trip.  Serialization here is what produces the paper's convoy effect
when many threads evict dirty blocks simultaneously (§7.1).
"""

from repro.net.packet import Packet, PacketKind
from repro.net.link import NetworkSegment, NetworkTiming
from repro.net.directory import DirectoryTiming

__all__ = [
    "DirectoryTiming",
    "Packet",
    "PacketKind",
    "NetworkSegment",
    "NetworkTiming",
]
