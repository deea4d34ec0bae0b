"""Shared helpers for the test suite."""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Dict, List, Sequence, Tuple, Union

from repro._units import MB
from repro.core.config import SimConfig, TimingModel
from repro.core.metrics import LatencyStat
from repro.core.policies import WritebackPolicy
from repro.core.results import SimulationResults
from repro.filer.timing import FilerTiming
from repro.traces.records import Trace, TraceOp, TraceRecord

#: (op, block) or (op, block, host) shorthand used by make_trace.
OpSpec = Union[Tuple[str, int], Tuple[str, int, int]]


def make_trace(
    ops: Sequence[OpSpec],
    file_blocks: int = 4096,
    warmup: int = 0,
    thread: int = 0,
) -> Trace:
    """Build a single-file trace from (op, block[, host]) tuples.

    Blocks are offsets within one file of ``file_blocks`` blocks, so
    block numbers equal global block numbers.
    """
    records: List[TraceRecord] = []
    for spec in ops:
        if len(spec) == 3:
            op, block, host = spec
        else:
            op, block = spec
            host = 0
        records.append(
            TraceRecord(
                TraceOp.WRITE if op.lower() == "w" else TraceOp.READ,
                host,
                thread,
                0,
                block,
                1,
            )
        )
    return Trace(records, [file_blocks], warmup_records=warmup)


def deterministic_timing(fast_read_rate: float = 1.0) -> TimingModel:
    """Table 1 timing with a deterministic filer (all reads fast)."""
    timing = TimingModel.paper_default()
    return replace(timing, filer=FilerTiming(fast_read_rate=fast_read_rate))


def tiny_config(**overrides) -> SimConfig:
    """A small deterministic config for micro-traces.

    1 MB RAM / 8 MB flash, deterministic filer, async write-through at
    both tiers (no syncer noise) unless overridden.
    """
    defaults = dict(
        ram_bytes=1 * MB,
        flash_bytes=8 * MB,
        timing=deterministic_timing(),
        ram_policy=WritebackPolicy.asynchronous(),
        flash_policy=WritebackPolicy.asynchronous(),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# Exact single-block path latencies under Table 1 timing (nanoseconds).
RAM_READ_NS = 400
RAM_WRITE_NS = 400
FLASH_READ_NS = 88_000
FLASH_WRITE_NS = 21_000
NET_REQUEST_NS = 8_200               # header-only packet
NET_DATA_NS = 8_200 + 8 * 4096      # header + 4 KB at 1 ns/bit
FILER_FAST_READ_NS = 92_000
FILER_WRITE_NS = 92_000

#: App-observed read latencies for each hit level (naive architecture).
RAM_HIT_READ_NS = RAM_READ_NS
FLASH_HIT_READ_NS = FLASH_READ_NS + RAM_WRITE_NS
MISS_READ_NS = (
    NET_REQUEST_NS
    + FILER_FAST_READ_NS
    + NET_DATA_NS
    + FLASH_WRITE_NS
    + RAM_WRITE_NS
)
MISS_READ_NOFLASH_NS = NET_REQUEST_NS + FILER_FAST_READ_NS + NET_DATA_NS + RAM_WRITE_NS

#: Full synchronous filer write as seen from a host (data, service, ack).
FILER_WRITE_PATH_NS = NET_DATA_NS + FILER_WRITE_NS + NET_REQUEST_NS


def every_field(results: SimulationResults) -> Dict[str, object]:
    """Every :class:`SimulationResults` field, each ``LatencyStat`` by
    its raw fields (``full_signature`` leaves the endurance, admission
    and directory-stall fields out)."""
    values = {}
    for spec in fields(SimulationResults):
        value = getattr(results, spec.name)
        if isinstance(value, LatencyStat):
            value = (
                value.count,
                value.total_ns,
                value.min_ns,
                value.max_ns,
                list(value._buckets),
            )
        values[spec.name] = value
    return values
