"""Per-request latency breakdown: where an application I/O spends its time.

The paper's figures are latency *decompositions* — an application read
costs RAM time on a hit, flash time on a flash hit, and network + filer
time on a miss; writes additionally stall behind evictions of other
blocks' dirty data.  The breakdown machinery attributes every simulated
nanosecond of a block I/O to exactly one component:

``ram``
    RAM buffer reads/writes (the 400 ns/4 KB charges).
``flash_read`` / ``flash_write``
    flash device service time (including channel queueing on
    parallelism-limited devices).
``net``
    wire occupancy of the host↔filer segment (packet transmission).
``filer_queue``
    time spent *waiting* to acquire a network wire — the convoy
    component that makes the ``n`` policy degrade.
``filer_service``
    the filer's service time for reads and writes.
``syncer_stall``
    time an application I/O spends writing back *other* blocks' dirty
    data — dirty-victim evictions charged to the requesting thread (the
    paper's "multiple threads doing evictions contend ... and slow
    down").
``invalidation``
    consistency-directory stalls on the write path — lookup plus
    per-victim invalidate messages (zero unless ``timing.directory``
    models them; the paper's default is instant invalidation).
``other``
    anything the block paths do not attribute: the residue
    :meth:`BreakdownCollector.record` folds in.  Zero on every
    architecture (property-tested), so a non-zero value flags an
    unattributed yield.

Exactness: simulated time advances only at generator yields, so
measuring ``sim.now`` deltas around every yield segment partitions a
block's end-to-end latency exactly — the components sum to the
latency in integer nanoseconds, with no rounding and no double
counting.  :class:`BreakdownCollector` verifies this per block and
counts any mismatch.
"""

from __future__ import annotations

from typing import Dict

from repro._units import US

#: component attribution order (stable; the report renders in this order)
COMPONENTS = (
    "ram",
    "flash_read",
    "flash_write",
    "net",
    "filer_queue",
    "filer_service",
    "syncer_stall",
    "invalidation",
    "other",
)


class Span:
    """Mutable per-block attribution scratchpad.

    One span is reused across a thread's blocks (reset between blocks)
    so the replay driver allocates nothing per block.  The host
    stacks' block paths add nanoseconds into the component fields as
    their yields complete.
    """

    __slots__ = COMPONENTS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.ram = 0
        self.flash_read = 0
        self.flash_write = 0
        self.net = 0
        self.filer_queue = 0
        self.filer_service = 0
        self.syncer_stall = 0
        self.invalidation = 0
        self.other = 0

    def total_ns(self) -> int:
        return (
            self.ram
            + self.flash_read
            + self.flash_write
            + self.net
            + self.filer_queue
            + self.filer_service
            + self.syncer_stall
            + self.invalidation
            + self.other
        )

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in COMPONENTS}


class LatencyBreakdown:
    """Aggregated component totals for one run, split read/write.

    ``unattributed_ns`` accumulates ``latency - span.total()`` residues
    and ``mismatched_blocks`` counts blocks where that residue was
    non-zero; both stay exactly zero when the instrumentation covers
    every yield of the replayed paths (the exactness property test).
    """

    __slots__ = (
        "read_ns",
        "write_ns",
        "read_blocks",
        "write_blocks",
        "unattributed_ns",
        "mismatched_blocks",
    )

    def __init__(self) -> None:
        self.read_ns: Dict[str, int] = {name: 0 for name in COMPONENTS}
        self.write_ns: Dict[str, int] = {name: 0 for name in COMPONENTS}
        self.read_blocks = 0
        self.write_blocks = 0
        self.unattributed_ns = 0
        self.mismatched_blocks = 0

    # --- reporting -----------------------------------------------------

    def mean_read_us(self) -> Dict[str, float]:
        """Mean per-block read cost of each component, µs (figures' unit)."""
        n = self.read_blocks
        if n == 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: self.read_ns[name] / n / US for name in COMPONENTS}

    def mean_write_us(self) -> Dict[str, float]:
        n = self.write_blocks
        if n == 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: self.write_ns[name] / n / US for name in COMPONENTS}

    def as_dict(self) -> Dict[str, object]:
        """Flatten to plain types (JSON-safe)."""
        return {
            "read_blocks": self.read_blocks,
            "write_blocks": self.write_blocks,
            "read_ns": dict(self.read_ns),
            "write_ns": dict(self.write_ns),
            "mean_read_us": self.mean_read_us(),
            "mean_write_us": self.mean_write_us(),
            "unattributed_ns": self.unattributed_ns,
            "mismatched_blocks": self.mismatched_blocks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<LatencyBreakdown reads=%d writes=%d unattributed=%dns>" % (
            self.read_blocks,
            self.write_blocks,
            self.unattributed_ns,
        )


class BreakdownCollector:
    """Accumulates per-block spans into a :class:`LatencyBreakdown`.

    Mirrors the MetricsCollector's warmup gating: the replay driver
    calls :meth:`record` only for measurement-phase blocks.
    """

    __slots__ = ("breakdown",)

    def __init__(self) -> None:
        self.breakdown = LatencyBreakdown()

    def record(self, is_write: bool, latency_ns: int, span: Span) -> None:
        """Fold one measured block's span into the aggregate.

        Any residue between the end-to-end latency and the span's
        attributed total is charged to ``other`` (so components always
        sum to total latency) *and* tallied as unattributed, keeping
        instrumentation gaps visible.
        """
        bd = self.breakdown
        residue = latency_ns - span.total_ns()
        if residue:
            span.other += residue
            bd.unattributed_ns += residue
            bd.mismatched_blocks += 1
        totals = bd.write_ns if is_write else bd.read_ns
        totals["ram"] += span.ram
        totals["flash_read"] += span.flash_read
        totals["flash_write"] += span.flash_write
        totals["net"] += span.net
        totals["filer_queue"] += span.filer_queue
        totals["filer_service"] += span.filer_service
        totals["syncer_stall"] += span.syncer_stall
        totals["invalidation"] += span.invalidation
        totals["other"] += span.other
        if is_write:
            bd.write_blocks += 1
        else:
            bd.read_blocks += 1
