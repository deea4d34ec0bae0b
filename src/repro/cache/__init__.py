"""Block-cache substrate: LRU chains, block stores, eviction policies.

The paper models every cache as "a single LRU chain of blocks"; this
package provides that structure (:class:`BlockStore` with the default
:class:`LRUPolicy`, whose block index is the chain) plus the
alternative eviction policies (FIFO, CLOCK, SLRU) used by the ablation
benchmarks, and the per-store statistics the simulator reports.

Stores are *pure data structures*: they take no simulated time.  The
host stack in :mod:`repro.core.host` orchestrates the latencies around
store operations.
"""

from repro.cache.block import BlockEntry, Medium
from repro.cache.policy import (
    ClockPolicy,
    EvictionPolicy,
    FIFOPolicy,
    LRUPolicy,
    SLRUPolicy,
)
from repro.cache.store import BlockStore
from repro.cache.stats import CacheStats

__all__ = [
    "BlockEntry",
    "Medium",
    "EvictionPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
    "SLRUPolicy",
    "BlockStore",
    "CacheStats",
]
