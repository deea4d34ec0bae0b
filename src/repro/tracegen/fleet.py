"""Multi-tenant fleet trace scenarios (extension).

The paper's consistency experiments (§7.9, Figures 11/12) stop at two
hosts sharing one working set.  A storage-client cache deployed
fleet-wide sees a different shape: *groups* of hosts each serve one
tenant's working set, tenant popularity is skewed, and the interesting
consistency traffic comes from operational events — rolling restarts
that re-warm caches group by group, and failovers that shift a tenant's
whole load onto cold standby hosts (shaped on Open-CAS's
``failover_standby`` flow, where a standby instance takes over a
primary's cache volume).

This module composes such fleet traces out of the §4 generator:

* each tenant gets its own scaled Impressions file-server model and a
  shared-working-set trace across its host group (the consistency
  worst case *within* the group; groups never overlap, as tenants
  don't share data);
* tenant volumes follow a Zipf-like skew, so a few tenants dominate
  the fleet's traffic as in production multi-tenant clusters;
* scenarios reshape the per-tenant traces before they are interleaved
  onto the combined host space.

Scenarios (:data:`SCENARIOS`):

``steady``
    skewed multi-tenant steady state — the fleet baseline.
``rolling_restart``
    staggered per-group re-warm read bursts spliced into the measured
    region, one group at a time, modeling a rolling maintenance
    restart's cold-cache refill traffic.
``failover_storm``
    tenant 0's group is split into primary and standby halves; the
    standbys idle through warmup, then the tenant's entire load
    switches onto them mid-measurement — a cold-cache miss storm whose
    writes must invalidate the primaries' now-stale copies.

Everything here is deterministic in ``FleetSpec.seed``: the same spec
and scenario always produce the same trace (the ``fleet-identity``
differential gate depends on it).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import List, Sequence

from repro._units import MB
from repro.errors import ConfigError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.records import ROW_TYPECODES, Trace

#: The scenario names :func:`fleet_trace` accepts, in reporting order.
SCENARIOS = ("steady", "rolling_restart", "failover_storm")

#: Upper bound on one group's re-warm burst (distinct warmup triples).
_REWARM_BURST_RECORDS = 256

#: Fraction of the measured region after which a failover switches the
#: tenant's load onto the standby half.
_FAILOVER_SWITCH_FRACTION = 0.5


@dataclass(frozen=True)
class FleetSpec:
    """Geometry of a multi-tenant fleet trace.

    ``n_hosts`` hosts are split into ``n_tenants`` equal groups;
    tenant ``t``'s traffic share follows ``1 / (t + 1)**tenant_skew``
    (normalized), so ``tenant_skew=0`` is uniform and larger values
    concentrate the fleet's volume on the first tenants.  ``ws_bytes``
    is each tenant's working-set size — like the experiments, fleet
    runs use scaled geometry, so this is typically megabytes.
    """

    n_hosts: int = 16
    n_tenants: int = 4
    tenant_skew: float = 1.0
    ws_bytes: int = 4 * MB
    threads_per_host: int = 2
    write_fraction: float = 0.30
    volume_multiple: float = 4.0
    warmup_fraction: float = 0.5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_hosts < 1 or self.n_tenants < 1:
            raise ConfigError("need at least one host and one tenant")
        if self.n_hosts % self.n_tenants:
            raise ConfigError(
                "n_hosts (%d) must split evenly across %d tenants"
                % (self.n_hosts, self.n_tenants)
            )
        if self.tenant_skew < 0:
            raise ConfigError("tenant skew must be non-negative")
        if self.ws_bytes <= 0:
            raise ConfigError("working set must be positive")
        if self.threads_per_host < 1:
            raise ConfigError("need at least one thread per host")

    @property
    def group_size(self) -> int:
        """Hosts per tenant group."""
        return self.n_hosts // self.n_tenants

    def tenant_shares(self) -> List[float]:
        """Normalized per-tenant traffic shares (Zipf-like skew)."""
        weights = [1.0 / (t + 1) ** self.tenant_skew for t in range(self.n_tenants)]
        total = sum(weights)
        return [w / total for w in weights]


def _tenant_config(
    spec: FleetSpec, tenant: int, share: float, group_hosts: int
) -> TraceGenConfig:
    """The §4 generator configuration for one tenant's group.

    Each tenant samples a private file-server model a few times its
    working set (the full 1.4 TB paper model is pointless overhead at
    fleet scale and would dominate generation time).  The tenant's
    skewed share scales its trace *volume*, floored so even cold
    tenants produce enough records to exercise their group.
    """
    fs_total = max(8 * spec.ws_bytes, 16 * MB)
    return TraceGenConfig(
        fs=ImpressionsConfig(
            total_bytes=fs_total,
            max_file_bytes=max(fs_total // 64, 1 * MB),
            seed=spec.seed * 7919 + tenant,
        ),
        working_set_bytes=spec.ws_bytes,
        n_hosts=group_hosts,
        threads_per_host=spec.threads_per_host,
        write_fraction=spec.write_fraction,
        shared_working_set=True,
        volume_multiple=max(0.25, spec.volume_multiple * share * spec.n_tenants),
        warmup_fraction=spec.warmup_fraction,
        seed=spec.seed * 1009 + tenant,
    )


def _with_rewarm_burst(spec: FleetSpec, tenant: int, trace: Trace) -> Trace:
    """Splice one group's re-warm read burst into its measured region.

    The burst replays distinct ``(file, offset, nblocks)`` triples from
    the group's own warmup — the blocks a restarted host would refill —
    as reads spread across the group's existing issuer streams, at a
    splice point staggered by tenant index (groups restart one after
    another, not all at once).
    """
    warm = trace.warmup_records
    measured = len(trace) - warm
    if warm == 0 or measured == 0:
        return trace
    issuers = trace.issuers()
    seen = set()
    burst = []
    for key in zip(trace.file_ids[:warm], trace.offsets[:warm], trace.nblocks[:warm]):
        if key in seen:
            continue
        seen.add(key)
        # a read (op 0) on the next issuer in turn
        burst.append((0,) + issuers[len(burst) % len(issuers)] + key)
        if len(burst) >= _REWARM_BURST_RECORDS:
            break
    point = warm + int(measured * (tenant + 1) / (spec.n_tenants + 1))
    spliced = [
        column[:point] + array(column.typecode, values) + column[point:]
        for column, values in zip(trace.row_columns(), zip(*burst))
    ]
    return Trace.from_columns(*spliced, trace.file_blocks, warm, trace.metadata)


def _with_failover(spec: FleetSpec, trace: Trace) -> Trace:
    """Switch a tenant's load from its primary half to cold standbys.

    ``trace`` was generated over the group's *primary* half only, so
    the standby hosts idle (cold caches, no holder bits) until the
    switch point, when every remaining record moves onto them.  The
    issuer remap gives each primary ``(host, thread)`` stream a unique
    stream on its standby (same folding rule as
    :func:`repro.traces.tools.merge_traces`), preserving concurrency.
    """
    group = spec.group_size
    n_primary = (group + 1) // 2
    n_standby = group - n_primary
    measured = len(trace) - trace.warmup_records
    switch = trace.warmup_records + int(measured * _FAILOVER_SWITCH_FRACTION)
    ops, hosts, threads, file_ids, offsets, nblocks = trace.row_columns()
    moved = list(zip(hosts[switch:], threads[switch:]))
    hosts = hosts[:switch] + array("I", [n_primary + host % n_standby for host, _ in moved])
    threads = threads[:switch] + array(
        "I",
        [thread + (host // n_standby) * spec.threads_per_host for host, thread in moved],
    )
    return Trace.from_columns(
        ops, hosts, threads, file_ids, offsets, nblocks,
        trace.file_blocks, trace.warmup_records, trace.metadata,
    )


def _interleave(groups: Sequence[Sequence[int]]) -> List[int]:
    """Proportional round-robin (the :func:`merge_traces` discipline):
    at each step pick the group whose progress lags its share most, so
    the combined replay overlaps all tenants as concurrent groups
    would.  Equal lags go to the lowest group index.

    The groups sit in a heap keyed by ``(lag, index)``; only the group
    that advanced gets a new lag, so a record costs O(log groups).
    """
    heap = [(0.0, index, 0) for index, group in enumerate(groups) if group]
    out: List[int] = []
    while heap:
        _lag, index, cursor = heap[0]
        group = groups[index]
        out.append(group[cursor])
        cursor += 1
        if cursor < len(group):
            heapq.heapreplace(heap, (cursor / len(group), index, cursor))
        else:
            heapq.heappop(heap)
    return out


def _assemble(spec: FleetSpec, scenario: str, tenant_traces: List[Trace]) -> Trace:
    """Rebase each tenant onto its host group and private file region,
    then interleave — warmup phases together first, measured phases
    after, so the combined warmup boundary is exact.

    The tenants' columns are joined, host and file ids shifted, and the
    interleave orders row indices, by which each column is gathered
    once."""
    file_blocks: List[int] = []
    joined = [array(typecode) for typecode in ROW_TYPECODES]
    ops, hosts, threads, file_ids, offsets, nblocks = joined
    warm_groups: List[range] = []
    measured_groups: List[range] = []
    for tenant, trace in enumerate(tenant_traces):
        first_row = len(ops)
        ops.extend(trace.ops)
        hosts.extend(map(add, trace.hosts_col, repeat(tenant * spec.group_size)))
        threads.extend(trace.threads_col)
        file_ids.extend(map(add, trace.file_ids, repeat(len(file_blocks))))
        offsets.extend(trace.offsets)
        nblocks.extend(trace.nblocks)
        file_blocks.extend(trace.file_blocks)
        boundary = first_row + trace.warmup_records
        warm_groups.append(range(first_row, boundary))
        measured_groups.append(range(boundary, first_row + len(trace)))
    order = _interleave(warm_groups)
    warmup = len(order)
    order.extend(_interleave(measured_groups))
    return Trace.from_columns(
        *(array(column.typecode, map(column.__getitem__, order)) for column in joined),
        file_blocks,
        warmup_records=warmup,
        metadata={
            "fleet_scenario": scenario,
            "n_hosts": str(spec.n_hosts),
            "n_tenants": str(spec.n_tenants),
        },
    )


def fleet_trace(spec: FleetSpec, scenario: str = "steady") -> Trace:
    """Generate one fleet trace for ``spec`` under ``scenario``.

    See the module docstring for scenario semantics.  The result spans
    hosts ``0 .. spec.n_hosts - 1`` (replay with
    ``n_hosts=spec.n_hosts``: under ``failover_storm`` the standby
    hosts issue nothing before the switch, and a host-count inferred
    from early records would be short).
    """
    if scenario not in SCENARIOS:
        raise ConfigError(
            "unknown fleet scenario %r (choose from %s)"
            % (scenario, ", ".join(SCENARIOS))
        )
    if scenario == "failover_storm" and spec.group_size < 2:
        raise ConfigError(
            "failover_storm needs tenant groups of at least 2 hosts "
            "(got groups of %d)" % spec.group_size
        )
    shares = spec.tenant_shares()
    traces: List[Trace] = []
    for tenant in range(spec.n_tenants):
        group_hosts = spec.group_size
        if scenario == "failover_storm" and tenant == 0:
            # Generate over the primary half only; the standby half
            # stays cold until the switch moves the load onto it.
            group_hosts = (spec.group_size + 1) // 2
        trace = generate_trace(_tenant_config(spec, tenant, shares[tenant], group_hosts))
        if scenario == "rolling_restart":
            trace = _with_rewarm_burst(spec, tenant, trace)
        elif scenario == "failover_storm" and tenant == 0:
            trace = _with_failover(spec, trace)
        traces.append(trace)
    return _assemble(spec, scenario, traces)
