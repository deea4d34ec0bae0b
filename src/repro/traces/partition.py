"""Host interference analysis over packed trace columns.

The parallel replay engine (:mod:`repro.engine.parallel`) shards one
multi-host simulation across worker processes.  That is only
bit-identical to the serial replay when the host groups cannot observe
each other, and the single cross-host coupling a trace itself creates
is the consistency directory: a host that *writes* a block invalidates
every other host's copy, and the invalidation both perturbs the
victims' cache contents and moves the shared counters.  Hosts that
merely read a common block never interact — holder bookkeeping is
write-triggered, and no data payloads are modeled.

So the exact interference rule, per block ``b`` over the *whole* trace
(warmup included — warmup accesses still populate caches and holder
bits):

    let ``T(b)`` be the hosts touching ``b`` and ``W(b)`` those
    writing it; if ``len(T(b)) >= 2`` and ``W(b)`` is non-empty, every
    host in ``T(b)`` must replay in the same group.

Note the rule unions *all* touchers, not just writer/victim pairs: two
readers of ``b`` are coupled through a third writer, whose invalidation
empties both of their caches at the same simulated instant.

:func:`plan_groups` bins the components that issue rows into replay
groups.  When those hosts form a single component, no exact split
exists and the engine replays the trace serially.

:func:`analyze_partition` evaluates the rule in two levels so fleet
traces stay cheap:

1. one columnar pass computes each host's block-range bounding box and
   row/write counts; hosts whose boxes do not overlap cannot share a
   block, which already separates disjoint-tenant fleets;
2. hosts in overlapping box clusters get an exact elementary-segment
   interval sweep with the write refinement above, merged through a
   union-find.

Everything here is pure analysis over the rows' ``(op, host,
start_block, nblocks)``; it reads any trace through ``iter_records()``,
so a :class:`~repro.traces.chunked.ChunkedCompiledTrace` streams and
never materializes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple, Union

from repro.errors import SimulationError
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.records import ROW_TYPECODES, Trace, _file_bases

__all__ = [
    "PartitionAnalysis",
    "analyze_partition",
    "plan_groups",
    "slice_hosts",
]

AnyTrace = Union[Trace, ChunkedCompiledTrace]


def _iter_ranges(trace: AnyTrace) -> Iterator[Tuple[int, int, int, int]]:
    """Stream ``(op, host, start_block, nblocks)`` for every row,
    warmup included."""
    base = _file_bases(trace.file_blocks)
    for op, host, _thread, file_id, offset, nb in trace.iter_records():
        yield op, host, base[file_id] + offset, nb


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items: Iterable[int]) -> None:
        self.parent: Dict[int, int] = {item: item for item in items}

    def find(self, item: int) -> int:
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic orientation: smaller id wins.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass
class PartitionAnalysis:
    """The interference structure of one multi-host trace.

    ``components`` are the maximal host groups that may observe each
    other (sorted host lists, ordered by smallest member); hosts in
    different components provably never interact during replay.
    ``host_rows`` counts trace rows per host (the balancing weight) and
    ``host_writes`` counts write rows (zero ⇒ the host perturbs
    nobody).
    """

    n_hosts: int
    components: List[List[int]]
    host_rows: Dict[int, int] = field(default_factory=dict)
    host_writes: Dict[int, int] = field(default_factory=dict)


def _box_clusters(
    boxes: Dict[int, Tuple[int, int]]
) -> List[List[int]]:
    """Group hosts whose block bounding boxes overlap (interval sweep
    over ``[min_block, max_block)`` boxes).  Hosts in different clusters
    cannot share any block."""
    ordered = sorted(boxes, key=lambda host: (boxes[host][0], host))
    clusters: List[List[int]] = []
    cluster_end = None
    for host in ordered:
        lo, hi = boxes[host]
        if cluster_end is None or lo >= cluster_end:
            clusters.append([host])
            cluster_end = hi
        else:
            clusters[-1].append(host)
            cluster_end = max(cluster_end, hi)
    return clusters


def _sweep_cluster(
    hosts: List[int],
    events: List[Tuple[int, int, int, int]],
    union: _UnionFind,
) -> None:
    """Exact per-block refinement of one box cluster.

    ``events`` are ``(position, delta, host, is_write)`` interval
    endpoints.  Between consecutive positions the covering host set is
    constant; wherever at least two hosts are covered and at least one
    of them writes, all covered hosts are unioned.
    """
    touch: Dict[int, int] = {host: 0 for host in hosts}
    write: Dict[int, int] = {host: 0 for host in hosts}
    n_active = 0
    n_writing = 0
    events.sort()
    index, n_events = 0, len(events)
    while index < n_events:
        position = events[index][0]
        while index < n_events and events[index][0] == position:
            _pos, delta, host, is_write = events[index]
            before = touch[host]
            touch[host] = before + delta
            if before == 0 or before + delta == 0:
                n_active += 1 if delta > 0 else -1
            if is_write:
                w_before = write[host]
                write[host] = w_before + delta
                if w_before == 0 or w_before + delta == 0:
                    n_writing += 1 if delta > 0 else -1
            index += 1
        if n_active >= 2 and n_writing:
            active = [host for host in hosts if touch[host] > 0]
            first = active[0]
            for other in active[1:]:
                union.union(first, other)


def analyze_partition(trace: AnyTrace, n_hosts: int) -> PartitionAnalysis:
    """Compute the interference components of ``trace`` (see module
    docstring for the rule).  Hosts ``0..n_hosts-1`` that never appear
    in the trace are idle singletons."""
    boxes: Dict[int, Tuple[int, int]] = {}
    host_rows: Dict[int, int] = {}
    host_writes: Dict[int, int] = {}
    for op, host, start, nb in _iter_ranges(trace):
        end = start + nb
        box = boxes.get(host)
        if box is None:
            boxes[host] = (start, end)
        else:
            lo, hi = box
            boxes[host] = (start if start < lo else lo, end if end > hi else hi)
        host_rows[host] = host_rows.get(host, 0) + 1
        if op:
            host_writes[host] = host_writes.get(host, 0) + 1

    union = _UnionFind(range(n_hosts))
    refine: List[List[int]] = [
        cluster
        for cluster in _box_clusters(boxes)
        if len(cluster) >= 2
        # Read-only overlap needs no refinement: with no writer
        # anywhere in the cluster, no block can satisfy the rule.
        and any(host_writes.get(host) for host in cluster)
    ]
    if refine:
        # One more streaming pass collects every cluster's interval
        # endpoints together (chunked spools re-read once, not once per
        # cluster).
        cluster_of: Dict[int, int] = {
            host: index for index, cluster in enumerate(refine) for host in cluster
        }
        events: List[List[Tuple[int, int, int, int]]] = [[] for _ in refine]
        for op, host, start, nb in _iter_ranges(trace):
            index = cluster_of.get(host)
            if index is not None:
                events[index].append((start, 1, host, op))
                events[index].append((start + nb, -1, host, op))
        for index, cluster in enumerate(refine):
            _sweep_cluster(cluster, events[index], union)

    by_root: Dict[int, List[int]] = {}
    for host in range(n_hosts):
        by_root.setdefault(union.find(host), []).append(host)
    components = [sorted(members) for members in by_root.values()]
    components.sort(key=lambda members: members[0])
    return PartitionAnalysis(
        n_hosts=n_hosts,
        components=components,
        host_rows=host_rows,
        host_writes=host_writes,
    )


def plan_groups(
    analysis: PartitionAnalysis, max_groups: int
) -> List[List[int]]:
    """Bin the components into at most ``max_groups`` replay groups,
    balancing by trace-row weight (greedy largest-first — deterministic
    and within 4/3 of optimal makespan).  Components are never split,
    and only components that issue rows open a group: idle hosts join
    the lightest group, so no worker replays an empty slice.  The
    result is a partition of ``0..n_hosts-1`` into groups that cannot
    observe each other."""
    if max_groups < 1:
        raise SimulationError("need at least one replay group")
    weights = {
        index: sum(analysis.host_rows.get(host, 0) for host in component)
        for index, component in enumerate(analysis.components)
    }
    order = sorted(weights, key=lambda index: (-weights[index], index))
    active = sum(1 for weight in weights.values() if weight)
    n_groups = max(1, min(max_groups, active))
    bins: List[List[int]] = [[] for _ in range(n_groups)]
    loads = [0] * n_groups
    for index in order:
        lightest = min(range(n_groups), key=lambda b: (loads[b], b))
        bins[lightest].extend(analysis.components[index])
        loads[lightest] += weights[index]
    groups = [sorted(members) for members in bins if members]
    groups.sort(key=lambda members: members[0])
    return groups


def slice_hosts(trace: AnyTrace, hosts: Set[int]) -> Trace:
    """A new owning :class:`Trace` holding exactly the rows issued by
    ``hosts``, in trace order.

    Only defined for warmup-free traces: a sliced warmup boundary would
    not be a row index of the slice, and the parallel engine (its only
    caller) already requires ``warmup_records == 0``.  ``file_blocks``
    and ``metadata`` are preserved, so global block ids (and therefore
    cache behavior) are unchanged — idle hosts simply issue nothing.
    """
    if trace.warmup_records != 0:
        raise SimulationError(
            "slice_hosts requires a warmup-free trace "
            "(got warmup_records=%d)" % trace.warmup_records
        )
    kept = [row for row in trace.iter_records() if row[1] in hosts]
    fields = zip(*kept) if kept else [()] * len(ROW_TYPECODES)
    return Trace.from_columns(
        *(array(typecode, values) for typecode, values in zip(ROW_TYPECODES, fields)),
        trace.file_blocks,
        0,
        trace.metadata,
    )
