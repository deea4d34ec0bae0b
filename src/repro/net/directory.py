"""Timing of the consistency directory's invalidation protocol.

The paper invalidates "instantly (using global knowledge)" and only
*counts* invalidations (§3.8); both directory parameters therefore
default to zero, which keeps every default-configuration run
bit-identical to the paper model.  Setting them turns the consistency
protocol into a real latency term on the write path: each block write
pays one directory lookup, plus one invalidate message per remote copy
actually dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class DirectoryTiming:
    """Consistency-directory latencies charged to the writing host.

    ``lookup_ns`` is the round trip to the directory for the block
    (paid on every block write when nonzero); ``invalidate_ns``
    is the cost of one invalidate message to a host whose copy was
    dropped (paid per dropped copy).
    """

    lookup_ns: int = 0
    invalidate_ns: int = 0

    def __post_init__(self) -> None:
        if self.lookup_ns < 0 or self.invalidate_ns < 0:
            raise ConfigError("directory latencies must be non-negative")

    @property
    def is_instant(self) -> bool:
        """Whether this is the paper's zero-cost (instant) model."""
        return self.lookup_ns == 0 and self.invalidate_ns == 0

    @classmethod
    def paper_default(cls) -> "DirectoryTiming":
        """The paper's instant-invalidation model (both terms zero)."""
        return cls()
