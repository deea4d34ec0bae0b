"""Parallel intra-simulation replay: partition analysis properties and
the serial/parallel bit-identity contract (:mod:`repro.engine.parallel`,
:mod:`repro.traces.partition`)."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import repro.sweep as sweep
from repro.core.metrics import SKETCH_ENV
from repro.core.simulator import run_simulation
from repro.engine import parallel as par
from repro.errors import ConfigError, SimulationError
from repro.net.directory import DirectoryTiming
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.partition import analyze_partition, plan_groups, slice_hosts
from repro.traces.records import Trace, TraceOp
from repro.validation.differential import full_signature

from tests.helpers import every_field, make_trace, tiny_config


def random_multihost_ops(rng, n_hosts, n_ops, *, span=2000, shared=0.0):
    """(op, block, host) tuples: mostly host-private ranges, with a
    ``shared`` fraction of accesses landing in a common range."""
    ops = []
    for _ in range(n_ops):
        host = rng.randrange(n_hosts)
        if rng.random() < shared:
            block = rng.randrange(200)
        else:
            block = 300 + host * span + rng.randrange(span // 2)
        ops.append(("w" if rng.random() < 0.3 else "r", block, host))
    return ops


def brute_force_components(trace, n_hosts):
    """The interference rule evaluated literally, block by block."""
    touchers = {}
    writers = {}
    if isinstance(trace, Trace):
        rows = [
            (1 if r.op is TraceOp.WRITE else 0, r.host, r.offset, r.nblocks)
            for r in trace.records
        ]
    else:
        rows = list(
            zip(
                trace.ops.tolist(),
                trace.hosts_col.tolist(),
                trace.start_blocks.tolist(),
                trace.nblocks.tolist(),
            )
        )
    for op, host, start, nb in rows:
        for block in range(start, start + nb):
            touchers.setdefault(block, set()).add(host)
            if op:
                writers.setdefault(block, set()).add(host)
    parent = list(range(n_hosts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block, hosts in touchers.items():
        if len(hosts) >= 2 and writers.get(block):
            first, *rest = sorted(hosts)
            for other in rest:
                ra, rb = sorted((find(first), find(other)))
                parent[rb] = ra
    groups = {}
    for host in range(n_hosts):
        groups.setdefault(find(host), []).append(host)
    components = [sorted(g) for g in groups.values()]
    components.sort(key=lambda g: g[0])
    return components


class TestPartitionAnalysis:
    def test_components_match_brute_force_on_random_traces(self):
        rng = random.Random(0xA11CE)
        for trial in range(25):
            n_hosts = rng.randrange(2, 9)
            shared = rng.choice([0.0, 0.0, 0.05, 0.3])
            trace = make_trace(
                random_multihost_ops(rng, n_hosts, 300, span=80, shared=shared),
                file_blocks=4096,
            )
            analysis = analyze_partition(trace, n_hosts)
            assert analysis.components == brute_force_components(
                trace, n_hosts
            ), "trial %d" % trial

    def test_separated_hosts_share_no_written_block(self):
        rng = random.Random(0xBEEF)
        for trial in range(15):
            n_hosts = rng.randrange(3, 8)
            trace = make_trace(
                random_multihost_ops(rng, n_hosts, 400, span=60, shared=0.1),
                file_blocks=4096,
            )
            analysis = analyze_partition(trace, n_hosts)
            for i, left in enumerate(analysis.components):
                for right in analysis.components[i + 1 :]:
                    # No block written on either side may be touched by
                    # the other side.
                    left_w = _written_blocks(trace, set(left))
                    right_w = _written_blocks(trace, set(right))
                    left_touch = _touched_blocks(trace, set(left))
                    right_touch = _touched_blocks(trace, set(right))
                    assert not (left_w & right_touch)
                    assert not (right_w & left_touch)

    def test_chunked_and_compiled_analyses_agree(self):
        rng = random.Random(0x5EED)
        trace = make_trace(
            random_multihost_ops(rng, 6, 500, span=100, shared=0.08),
            file_blocks=4096,
        )
        chunked = ChunkedCompiledTrace.from_trace(trace, chunk_records=64)
        a = analyze_partition(trace, 6)
        b = analyze_partition(chunked, 6)
        assert a.components == b.components
        assert a.host_rows == b.host_rows
        assert a.host_writes == b.host_writes

    def test_warmup_rows_participate_in_the_analysis(self):
        # The only interference is inside the warmup: host 0 writes a
        # block host 1 reads during warmup.  Warmup populates caches
        # and holder bits, so the hosts are coupled regardless.
        ops = [("w", 10, 0), ("r", 10, 1), ("r", 500, 0), ("r", 600, 1)]
        trace = make_trace(ops, warmup=2)
        analysis = analyze_partition(trace, 2)
        assert analysis.components == [[0, 1]]

    def test_pure_read_sharing_does_not_couple(self):
        ops = [("r", 10, 0), ("r", 10, 1), ("w", 500, 0), ("w", 600, 1)]
        analysis = analyze_partition(make_trace(ops), 2)
        assert analysis.components == [[0], [1]]

    def test_readers_couple_through_a_third_writer(self):
        # Hosts 0 and 1 only read block 7; host 2 writes it.  All three
        # must land in one component — 2's invalidation hits both.
        ops = [("r", 7, 0), ("r", 7, 1), ("w", 7, 2)]
        analysis = analyze_partition(make_trace(ops), 3)
        assert analysis.components == [[0, 1, 2]]

    def test_idle_hosts_are_singletons(self):
        ops = [("r", 1, 0), ("w", 1, 0)]
        analysis = analyze_partition(make_trace(ops), 4)
        assert analysis.components == [[0], [1], [2], [3]]


def _touched_blocks(trace, hosts, writes_only=False):
    touched = set()
    rows = zip(
        trace.ops.tolist(),
        trace.hosts_col.tolist(),
        trace.start_blocks.tolist(),
        trace.nblocks.tolist(),
    )
    for op, host, start, nb in rows:
        if host in hosts and (op or not writes_only):
            touched.update(range(start, start + nb))
    return touched


def _written_blocks(trace, hosts):
    return _touched_blocks(trace, hosts, writes_only=True)


class TestGroupPlanning:
    def _analysis(self, rng, n_hosts=8):
        trace = make_trace(
            random_multihost_ops(rng, n_hosts, 400, span=50),
            file_blocks=4096,
        )
        return trace, analyze_partition(trace, n_hosts)

    def test_plan_groups_partitions_all_hosts(self):
        rng = random.Random(1)
        _trace, analysis = self._analysis(rng)
        for max_groups in (1, 2, 3, 8, 20):
            groups = plan_groups(analysis, max_groups)
            assert sorted(h for g in groups for h in g) == list(range(8))
            assert len(groups) <= max(max_groups, 1)

    def test_plan_groups_never_splits_a_component(self):
        rng = random.Random(2)
        _trace, analysis = self._analysis(rng)
        groups = plan_groups(analysis, 3)
        for component in analysis.components:
            owners = {
                index
                for index, group in enumerate(groups)
                for host in component
                if host in group
            }
            assert len(owners) == 1

    def test_plan_groups_is_deterministic(self):
        rng = random.Random(3)
        _trace, analysis = self._analysis(rng)
        assert plan_groups(analysis, 4) == plan_groups(analysis, 4)

    def test_idle_hosts_open_no_group(self):
        # Host 0 and host 2 issue rows; hosts 1 and 3 are idle and join
        # the lightest group instead of getting a worker each.
        ops = [("r", 1, 0), ("w", 1, 0), ("r", 900, 2)]
        analysis = analyze_partition(make_trace(ops), 4)
        groups = plan_groups(analysis, 4)
        assert sorted(h for g in groups for h in g) == [0, 1, 2, 3]
        assert len(groups) == 2
        assert all(any(h in (0, 2) for h in g) for g in groups)


class TestSliceHosts:
    def test_slice_preserves_rows_and_order(self):
        rng = random.Random(5)
        ops = random_multihost_ops(rng, 4, 200, span=40, shared=0.2)
        trace = make_trace(ops)
        hosts = {1, 3}
        sliced = slice_hosts(trace, hosts)
        expected = [
            row
            for row in zip(
                trace.ops.tolist(),
                trace.hosts_col.tolist(),
                trace.start_blocks.tolist(),
            )
            if row[1] in hosts
        ]
        got = list(
            zip(
                sliced.ops.tolist(),
                sliced.hosts_col.tolist(),
                sliced.start_blocks.tolist(),
            )
        )
        assert got == expected
        assert sliced.file_blocks == trace.file_blocks
        assert sliced.warmup_records == 0

    def test_slices_cover_the_trace_exactly_once(self):
        rng = random.Random(6)
        trace = make_trace(random_multihost_ops(rng, 5, 150, span=30))
        total = sum(
            len(slice_hosts(trace, {h})) for h in range(5)
        )
        assert total == len(trace)

    def test_slice_rejects_warmup_traces(self):
        trace = make_trace([("r", 1, 0), ("r", 2, 1)], warmup=1)
        with pytest.raises(SimulationError):
            slice_hosts(trace, {0})


def _eligible_multihost_trace(seed=7, n_hosts=4, n_ops=3000, warmup=0):
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        host = rng.randrange(n_hosts)
        block = host * 1000 + rng.randrange(500)
        ops.append(("w" if rng.random() < 0.3 else "r", block, host))
    return make_trace(ops, file_blocks=8192, warmup=warmup)


def _no_pool(*_args, **_kwargs):
    raise AssertionError("a declined replay must not start a worker pool")


class TestParallelReplayIdentity:
    # check_invariants=False on the parallel call only: invariant
    # checking walks whole-system state, so parallel replay declines
    # under it (TestEligibilityGates covers that decline).  The serial
    # replay keeps the ambient setting.

    def test_independent_hosts_replay_bit_identical(self):
        trace = _eligible_multihost_trace()
        config = tiny_config()
        serial = run_simulation(trace, config)
        merged = run_simulation(trace, config, parallel_hosts=4, check_invariants=False)
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "parallel"
        assert full_signature(serial) == full_signature(merged)

    def test_two_workers_on_four_hosts(self):
        trace = _eligible_multihost_trace(seed=21)
        config = tiny_config()
        serial = run_simulation(trace, config)
        merged = run_simulation(trace, config, parallel_hosts=2, check_invariants=False)
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "parallel"
        assert outcome.groups == 2
        assert full_signature(serial) == full_signature(merged)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # A 64-block FTL flash tier under 500-block working sets:
            # garbage collection erases, so write amplification and
            # device lifetime are finite.
            {"ram_bytes": 128 * 1024, "flash_bytes": 256 * 1024, "ftl_model": True},
            {"flash_admission": "budget:1M"},
        ],
        ids=["plain", "ftl", "admission"],
    )
    def test_every_result_field_matches_serial(self, overrides):
        """Every field the parent computes equals serial replay's: a
        field that a parallel run drops or derives differently fails
        here."""
        trace = _eligible_multihost_trace(seed=9)
        config = tiny_config(**overrides)
        serial = run_simulation(trace, config)
        merged = run_simulation(trace, config, parallel_hosts=2, check_invariants=False)
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "parallel"
        assert every_field(merged) == every_field(serial)
        if "ftl_model" in overrides:
            assert serial.flash_erase_count > 0
            assert 0 < serial.device_lifetime_days < float("inf")
        if "flash_admission" in overrides:
            assert serial.flash_admission_stats["rejects"] > 0

    def test_chunked_cold_start_shards_like_serial(self):
        """A chunked trace with a warmup phase, replayed cold: workers
        reopen the spool past the warmup, so the run shards and equals
        serial replay field for field."""
        trace = ChunkedCompiledTrace.from_trace(
            _eligible_multihost_trace(seed=17, warmup=600)
        )
        config = tiny_config()
        serial = run_simulation(trace, config, cold_start=True)
        merged = run_simulation(
            trace, config, cold_start=True, parallel_hosts=2, check_invariants=False
        )
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "parallel"
        assert every_field(merged) == every_field(serial)

    def test_sketch_setting_read_by_the_metrics_parser(self, monkeypatch):
        """``REPRO_METRICS_SKETCH`` means what the metrics parser says:
        ``no`` is off, so the replay shards; ``1`` is on, so it
        declines; an invalid value is a configuration error."""
        trace = _eligible_multihost_trace(seed=23)
        config = tiny_config()
        monkeypatch.setenv(SKETCH_ENV, "no")
        run_simulation(trace, config, parallel_hosts=2, check_invariants=False)
        assert par.last_outcome().kind == "parallel"
        monkeypatch.setenv(SKETCH_ENV, "1")
        run_simulation(trace, config, parallel_hosts=2, check_invariants=False)
        outcome = par.last_outcome()
        assert outcome.kind == "declined" and "sketches" in outcome.detail
        monkeypatch.setenv(SKETCH_ENV, "bogus")
        with pytest.raises(ConfigError, match=SKETCH_ENV):
            run_simulation(trace, config, parallel_hosts=2, check_invariants=False)

    def test_shared_working_set_conflicts_and_falls_back(self, monkeypatch):
        """Four hosts writing one shared working set are coupled: the
        run declines before any worker starts and replays serially."""
        rng = random.Random(11)
        ops = [
            ("w" if rng.random() < 0.3 else "r", rng.randrange(300), rng.randrange(4))
            for _ in range(1500)
        ]
        trace = make_trace(ops)
        config = tiny_config()
        serial = run_simulation(trace, config)
        monkeypatch.setattr(sweep, "_worker_pool", _no_pool)
        merged = run_simulation(trace, config, parallel_hosts=4, check_invariants=False)
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "declined"
        assert "coupled" in outcome.detail
        assert full_signature(serial) == full_signature(merged)

    def test_coupled_hosts_with_modeled_directory_decline(self):
        ops = [("w", 5, 0), ("r", 5, 1)] * 50
        trace = make_trace(ops)
        config = tiny_config()
        config = replace(
            config,
            timing=replace(
                config.timing,
                directory=DirectoryTiming(lookup_ns=1000, invalidate_ns=500),
            ),
        )
        serial = run_simulation(trace, config)
        merged = run_simulation(trace, config, parallel_hosts=2, check_invariants=False)
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "declined"
        assert "coupled" in outcome.detail
        assert full_signature(serial) == full_signature(merged)

    def test_one_active_group_declines(self, monkeypatch):
        """Three coupled hosts and an idle fourth: the idle host is a
        component of its own but issues no row, so no split exists."""
        rng = random.Random(13)
        ops = [
            ("w" if rng.random() < 0.3 else "r", rng.randrange(200), rng.randrange(3))
            for _ in range(600)
        ]
        trace = make_trace(ops)
        config = tiny_config()
        serial = run_simulation(trace, config, n_hosts=4)
        monkeypatch.setattr(sweep, "_worker_pool", _no_pool)
        merged = run_simulation(
            trace, config, n_hosts=4, parallel_hosts=2, check_invariants=False
        )
        outcome = par.last_outcome()
        assert outcome is not None and outcome.kind == "declined"
        assert outcome.groups == 0
        assert "coupled" in outcome.detail
        assert full_signature(serial) == full_signature(merged)


class TestSegmentBusyMeters:
    def test_group_ships_each_segments_busy_ns(self):
        """A replay group ships the raw wire busy time of its own hosts'
        segments, from which the parent computes network utilization;
        the other hosts' entries stay empty."""
        from repro.core.machine import System
        from repro.core.simulator import read_meters

        group = (0, 2)
        system = System(tiny_config(), 4, check_invariants=False)
        trace = _eligible_multihost_trace(seed=5)
        system.replay(slice_hosts(trace, set(group)))
        shipped = read_meters(system, group)
        for host, segment in enumerate(system.segments):
            entry = shipped.hosts[host]
            if host not in group:
                assert entry is None
                continue
            assert entry.wire_busy_ns == segment.busy_ns()
            up, down = entry.wire_busy_ns
            assert up > 0 and down > 0


class TestEligibilityGates:
    def _reason(self, trace, config, **kwargs):
        options = dict(
            n_hosts=4,
            workers=4,
            restart=None,
            timeline_bucket_ns=None,
            check_invariants=False,
            obs=None,
        )
        options.update(kwargs)
        return par.decline_reason(trace, config, **options)

    def test_eligible_baseline(self):
        trace = _eligible_multihost_trace()
        assert self._reason(trace, tiny_config()) is None

    def test_warmup_declines(self):
        trace = make_trace([("r", 1, 0), ("r", 2, 1)], warmup=1)
        assert "warmup" in self._reason(trace, tiny_config())

    def test_fractional_fast_read_rate_declines(self):
        from tests.helpers import deterministic_timing

        trace = _eligible_multihost_trace()
        config = tiny_config(timing=deterministic_timing(fast_read_rate=0.9))
        assert "RNG" in self._reason(trace, config)

    def test_single_host_declines(self):
        trace = make_trace([("r", 1, 0)])
        assert "single-host" in self._reason(trace, tiny_config(), n_hosts=1)

    def test_invariant_checking_declines(self):
        trace = _eligible_multihost_trace()
        assert "invariant" in self._reason(
            trace, tiny_config(), check_invariants=True
        )

    def test_timeline_declines(self):
        trace = _eligible_multihost_trace()
        assert "timeline" in self._reason(
            trace, tiny_config(), timeline_bucket_ns=1_000_000
        )

    def test_one_worker_declines(self):
        trace = _eligible_multihost_trace()
        assert "workers" in self._reason(trace, tiny_config(), workers=1)
