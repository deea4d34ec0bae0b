"""Tests for the observability layer (``repro.obs``).

The load-bearing property: the per-request latency breakdown is
*exact* — for every replayed block, the attributed components sum to
the end-to-end application latency in nanoseconds, with nothing lost
(``unattributed_ns == 0``) — and attaching an Observation never changes
the simulation itself (bit-identical results with tracing on and off).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.policies import WritebackPolicy
from repro.core.simulator import run_simulation
from repro.net.directory import DirectoryTiming
from repro.obs import (
    COMPONENTS,
    EventKind,
    EventRecorder,
    Observation,
    to_chrome_trace,
    validate_jsonl,
    write_jsonl,
)
from repro.obs.events import TraceEvent
from repro.traces.records import Trace, TraceOp, TraceRecord
from repro.validation.differential import full_signature
from tests.helpers import make_trace, tiny_config

ARCHITECTURES = [
    Architecture.NAIVE,
    Architecture.LOOKASIDE,
    Architecture.UNIFIED,
    Architecture.EXCLUSIVE,
]

#: A sample of the paper's 7x7 writeback-policy grid (Figure 2's axes),
#: covering every policy kind on each axis.
POLICY_SAMPLE = [
    (WritebackPolicy.sync(), WritebackPolicy.sync()),
    (WritebackPolicy.asynchronous(), WritebackPolicy.asynchronous()),
    (WritebackPolicy.periodic(1), WritebackPolicy.periodic(5)),
    (WritebackPolicy.periodic(15), WritebackPolicy.asynchronous()),
    (WritebackPolicy.none(), WritebackPolicy.sync()),
    (WritebackPolicy.asynchronous(), WritebackPolicy.none()),
    (WritebackPolicy.periodic(30), WritebackPolicy.periodic(30)),
]


def mixed_trace(n_ops: int = 600, seed: int = 3, span: int = 700):
    """A deterministic read/write mix with enough reuse to hit caches."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        block = rng.randrange(span)
        ops.append(("w" if rng.random() < 0.3 else "r", block))
    return make_trace(ops, file_blocks=max(4096, span))


def assert_exact_breakdown(results):
    breakdown = results.breakdown
    assert breakdown is not None
    assert breakdown.unattributed_ns == 0
    assert breakdown.mismatched_blocks == 0
    assert sum(breakdown.read_ns.values()) == results.read_latency.total_ns
    assert sum(breakdown.write_ns.values()) == results.write_latency.total_ns
    assert breakdown.read_blocks == results.read_latency.count
    assert breakdown.write_blocks == results.write_latency.count


class TestBreakdownExactness:
    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.value)
    @pytest.mark.parametrize(
        "policies", POLICY_SAMPLE, ids=lambda p: "%s-%s" % (p[0], p[1])
    )
    def test_components_sum_exactly(self, arch, policies):
        ram_policy, flash_policy = policies
        config = tiny_config(
            architecture=arch, ram_policy=ram_policy, flash_policy=flash_policy
        )
        obs = Observation()
        results = run_simulation(mixed_trace(), config, obs=obs)
        assert_exact_breakdown(results)
        # something beyond RAM was actually exercised
        assert sum(results.breakdown.read_ns.values()) > 0

    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.value)
    def test_stochastic_filer_still_exact(self, arch):
        from tests.helpers import deterministic_timing

        config = tiny_config(
            architecture=arch, timing=deterministic_timing(fast_read_rate=0.5)
        )
        results = run_simulation(mixed_trace(seed=11), config, obs=Observation())
        assert_exact_breakdown(results)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["r", "w"]), st.integers(min_value=0, max_value=96)
            ),
            min_size=1,
            max_size=120,
        ),
    )
    def test_property_exact_for_any_trace(self, data, ops):
        arch = data.draw(st.sampled_from(ARCHITECTURES))
        ram_policy, flash_policy = data.draw(st.sampled_from(POLICY_SAMPLE))
        config = tiny_config(
            architecture=arch,
            ram_bytes=64 * 4096,
            flash_bytes=256 * 4096,
            ram_policy=ram_policy,
            flash_policy=flash_policy,
        )
        trace = make_trace(ops, file_blocks=4096)
        results = run_simulation(trace, config, obs=Observation())
        assert_exact_breakdown(results)

    def test_multi_host_exact(self):
        ops = [("r", b, h) for b in range(120) for h in (0, 1)] + [
            ("w", b, h) for b in range(0, 120, 3) for h in (0, 1)
        ]
        trace = make_trace(ops, file_blocks=4096)
        config = tiny_config(architecture=Architecture.NAIVE)
        results = run_simulation(trace, config, n_hosts=2, obs=Observation())
        assert_exact_breakdown(results)

    def test_exclusive_arch_is_exact(self):
        # The exclusive extension attributes through the same block
        # paths as the paper architectures: nothing lands in "other".
        config = tiny_config(architecture=Architecture.EXCLUSIVE)
        results = run_simulation(mixed_trace(), config, obs=Observation())
        assert_exact_breakdown(results)
        breakdown = results.breakdown
        total = {c: breakdown.read_ns[c] + breakdown.write_ns[c] for c in COMPONENTS}
        assert total["other"] == 0
        assert total["ram"] > 0
        assert total["net"] > 0
        assert total["filer_service"] > 0

    def test_warmup_excluded_like_latency_stats(self):
        ops = [("r", b) for b in range(50)] * 2
        trace = make_trace(ops, file_blocks=4096, warmup=50)
        results = run_simulation(trace, tiny_config(), obs=Observation())
        assert_exact_breakdown(results)
        assert results.breakdown.read_blocks == 50


class TestTracingIsInert:
    """Attaching an Observation must not change the simulation."""

    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.value)
    def test_bit_identical_results(self, arch):
        from tests.helpers import deterministic_timing

        config = tiny_config(
            architecture=arch,
            timing=deterministic_timing(fast_read_rate=0.7),
            ram_policy=WritebackPolicy.periodic(1),
        )
        trace = mixed_trace(seed=5)
        plain = run_simulation(trace, config)
        traced = run_simulation(trace, config, obs=Observation())
        plain_dict = plain.as_dict()
        traced_dict = traced.as_dict()
        traced_dict.pop("breakdown")
        traced_dict.pop("obs_counters")
        assert plain_dict == traced_dict
        assert plain.simulated_ns == traced.simulated_ns
        assert plain.read_latency.total_ns == traced.read_latency.total_ns
        assert plain.write_latency.total_ns == traced.write_latency.total_ns

    def test_config_flag_equivalent_to_explicit_obs(self):
        trace = mixed_trace(seed=8)
        config = tiny_config()
        explicit = run_simulation(trace, config, obs=Observation())
        implicit = run_simulation(
            trace, config.with_overrides(trace_events=True)
        )
        assert implicit.breakdown is not None
        assert implicit.obs_counters == explicit.obs_counters
        assert implicit.breakdown.as_dict() == explicit.breakdown.as_dict()


class TestRecorder:
    def test_max_events_caps_list_not_counters(self):
        recorder = EventRecorder(max_events=3)
        for ts in range(10):
            recorder.emit(ts, EventKind.TIER_HIT, tier="ram")
        assert len(recorder.events) == 3
        assert recorder.dropped_events == 7
        snapshot = recorder.counters_snapshot()
        assert snapshot[EventKind.TIER_HIT] == 10
        assert snapshot["dropped_events"] == 7

    def test_observation_requires_some_sink(self):
        with pytest.raises(ValueError):
            Observation(events=False, breakdown=False)

    def test_breakdown_only_observation(self):
        obs = Observation(events=False)
        results = run_simulation(mixed_trace(), tiny_config(), obs=obs)
        assert_exact_breakdown(results)
        assert obs.events == []
        assert obs.counters() == {}


class TestEventStream:
    @pytest.fixture(scope="class")
    def traced(self):
        obs = Observation()
        results = run_simulation(
            mixed_trace(), tiny_config(ram_policy=WritebackPolicy.periodic(1)), obs=obs
        )
        return obs, results

    def test_timestamps_monotone(self, traced):
        obs, _results = traced
        timestamps = [event.ts for event in obs.events]
        assert timestamps == sorted(timestamps)

    def test_request_events_balance(self, traced):
        obs, results = traced
        counters = obs.counters()
        assert counters[EventKind.REQUEST_START] == results.records_replayed
        assert counters[EventKind.REQUEST_FINISH] == results.records_replayed

    def test_tier_events_cover_block_reads(self, traced):
        obs, results = traced
        counters = obs.counters()
        lookups = counters[EventKind.TIER_HIT] + counters[EventKind.TIER_MISS]
        # every app read consults RAM (and flash on a RAM miss): at
        # least one lookup event per read block, at most two.
        assert lookups >= results.blocks_read
        assert lookups <= 2 * results.blocks_read

    def test_filer_events_match_filer_counters(self, traced):
        obs, results = traced
        counters = obs.counters()
        assert counters.get(EventKind.FILER_READ, 0) == results.filer_reads
        assert counters.get(EventKind.FILER_WRITE, 0) == results.filer_writes

    def test_eviction_events_carry_dirty_flag(self):
        obs = Observation()
        # RAM of 8 blocks, no flash: heavy writes force dirty evictions.
        config = tiny_config(ram_bytes=8 * 4096, flash_bytes=0)
        run_simulation(
            make_trace([("w", b) for b in range(64)], file_blocks=4096),
            config,
            obs=obs,
        )
        evictions = [e for e in obs.events if e.kind == EventKind.EVICTION]
        assert evictions
        assert all(isinstance(e.info.get("dirty"), bool) for e in evictions)


class TestExporters:
    def events_fixture(self):
        obs = Observation()
        run_simulation(mixed_trace(n_ops=120), tiny_config(), obs=obs)
        return obs

    def test_jsonl_round_trip_validates(self, tmp_path):
        obs = self.events_fixture()
        path = tmp_path / "events.jsonl"
        written = obs.write_jsonl(str(path))
        assert written == len(obs.events)
        assert validate_jsonl(str(path)) == written

    def test_validate_rejects_unknown_kind(self):
        stream = io.StringIO('{"ts": 1, "kind": "no_such_kind"}\n')
        with pytest.raises(ValueError, match="unknown kind"):
            validate_jsonl(stream)

    def test_validate_rejects_backwards_time(self):
        stream = io.StringIO(
            '{"ts": 5, "kind": "tier_hit"}\n{"ts": 4, "kind": "tier_hit"}\n'
        )
        with pytest.raises(ValueError, match="backwards"):
            validate_jsonl(stream)

    def test_validate_rejects_non_integer_fields(self):
        stream = io.StringIO('{"ts": 1, "kind": "tier_hit", "dur": "fast"}\n')
        with pytest.raises(ValueError, match="integer"):
            validate_jsonl(stream)

    def test_chrome_trace_loads_and_uses_integer_tids(self, tmp_path):
        obs = self.events_fixture()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path))
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["traceEvents"]
        for entry in document["traceEvents"]:
            assert isinstance(entry["tid"], int)
            assert entry["ph"] in ("X", "i", "M")
            if entry["ph"] == "X":
                assert entry["ts"] >= 0
                assert entry["dur"] >= 0

    def test_chrome_request_slices_span_the_request(self):
        events = [
            TraceEvent(ts=1000, kind=EventKind.REQUEST_START, host=0),
            TraceEvent(ts=5000, kind=EventKind.REQUEST_FINISH, host=0, dur=4000),
        ]
        document = to_chrome_trace(events)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == 1.0  # microseconds
        assert slices[0]["dur"] == 4.0

    def test_chrome_service_slices_are_start_anchored(self):
        events = [
            TraceEvent(ts=2000, kind=EventKind.DEVICE_READ, host=0, dur=3000,
                       tier="flash"),
        ]
        document = to_chrome_trace(events)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["ts"] == 2.0
        assert slices[0]["dur"] == 3.0

    def test_jsonl_writes_to_stream(self):
        events = [TraceEvent(ts=1, kind=EventKind.TIER_HIT, tier="ram")]
        stream = io.StringIO()
        assert write_jsonl(events, stream) == 1
        payload = json.loads(stream.getvalue())
        assert payload == {"ts": 1, "kind": "tier_hit", "tier": "ram"}


class TestResultsSurface:
    def test_summary_renders_breakdown(self):
        results = run_simulation(mixed_trace(), tiny_config(), obs=Observation())
        summary = results.summary()
        assert "latency breakdown" in summary
        assert "filer_service" in summary

    def test_markdown_breakdown_table(self):
        from repro.report import breakdown_to_markdown

        results = run_simulation(mixed_trace(), tiny_config(), obs=Observation())
        table = breakdown_to_markdown(results.breakdown)
        assert "| component |" in table
        assert "**total**" in table


# --- golden breakdown gate ----------------------------------------------
#
# The exactness tests above check only that the components sum to the
# latency, so a change that swapped ``net`` and ``filer_service`` or
# dropped a ``QUEUE_*`` event would pass them.  This gate pins, per
# point, a digest of the breakdown, the event counters and the full
# result signature.  Record the digests only for an intended change of
# what a traced replay reports:
#
#     PYTHONPATH=src python -m tests.test_obs --write

OBS_GOLDEN = Path(__file__).with_name("obs_golden.json")

#: (name, ram policy, flash policy) — every policy kind on each axis
GOLDEN_POLICIES = (
    ("s-s", "s", "s"),
    ("a-a", "a", "a"),
    ("p1-p5", "p1", "p5"),
    ("n-s", "n", "s"),
    ("a-n", "a", "n"),
)

#: name -> (ram bytes, flash bytes): the working set fits in flash, or
#: overflows both tiers (dirty-victim writebacks, syncer stalls)
GOLDEN_SIZES = {
    "large": (1 * MB, 8 * MB),
    "small": (32 * 4096, 128 * 4096),
}

PAPER_ARCHITECTURES = (
    Architecture.NAIVE,
    Architecture.LOOKASIDE,
    Architecture.UNIFIED,
)


def golden_trace(n_hosts: int = 1) -> Trace:
    """Four threads per host of mixed 1-4 block requests over ~700
    blocks: enough concurrency that the wires queue."""
    rng = random.Random(17)
    records = []
    for _ in range(900):
        records.append(
            TraceRecord(
                TraceOp.WRITE if rng.random() < 0.3 else TraceOp.READ,
                rng.randrange(n_hosts),
                rng.randrange(4),
                0,
                rng.randrange(700),
                rng.randint(1, 4),
            )
        )
    return Trace(records, [4096], warmup_records=100)


def _golden_config(arch, size="small", policies=("p1", "p5"), **overrides):
    ram_bytes, flash_bytes = GOLDEN_SIZES[size]
    overrides.setdefault("ram_bytes", ram_bytes)
    overrides.setdefault("flash_bytes", flash_bytes)
    return tiny_config(
        architecture=arch,
        ram_policy=WritebackPolicy.parse(policies[0]),
        flash_policy=WritebackPolicy.parse(policies[1]),
        **overrides,
    )


def golden_obs_points():
    """Every point of the gate: (name, config, n_hosts)."""
    for arch in PAPER_ARCHITECTURES:
        for pair, ram_spec, flash_spec in GOLDEN_POLICIES:
            for size in GOLDEN_SIZES:
                yield (
                    "%s/%s/%s" % (arch.value, pair, size),
                    _golden_config(arch, size, (ram_spec, flash_spec)),
                    1,
                )
        yield "%s/parallelism1" % arch.value, _golden_config(
            arch, flash_parallelism=1
        ), 1
        yield "%s/no-flash" % arch.value, _golden_config(arch, flash_bytes=0), 1
        directory = _golden_config(arch)
        directory = replace(
            directory,
            timing=directory.timing.with_directory(
                DirectoryTiming(lookup_ns=500, invalidate_ns=2_000)
            ),
        )
        yield "%s/2-hosts-directory" % arch.value, directory, 2
    for arch in (Architecture.NAIVE, Architecture.LOOKASIDE):
        yield "%s/probationary2" % arch.value, _golden_config(
            arch, flash_admission="probationary:2"
        ), 1
        yield "%s/no-ram" % arch.value, _golden_config(arch, ram_bytes=0), 1


def golden_obs_digest(config, n_hosts: int) -> str:
    obs = Observation()
    results = run_simulation(golden_trace(n_hosts), config, n_hosts=n_hosts, obs=obs)
    payload = [results.breakdown.as_dict(), obs.counters(), full_signature(results)]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def golden_obs_digests():
    return {
        name: golden_obs_digest(config, n_hosts)
        for name, config, n_hosts in golden_obs_points()
    }


class TestGoldenBreakdowns:
    def test_every_digest_matches(self):
        recorded = json.loads(OBS_GOLDEN.read_text())
        found = golden_obs_digests()
        assert sorted(found) == sorted(recorded)
        assert {name for name in found if found[name] != recorded[name]} == set()

    def test_gate_points_queue_and_stall(self):
        # The gate is only as strong as what its points exercise: some
        # replay must queue on a wire and some must stall on a victim.
        config = _golden_config(Architecture.NAIVE, policies=("n", "s"))
        obs = Observation()
        results = run_simulation(golden_trace(), config, obs=obs)
        breakdown = results.breakdown
        assert obs.counters()[EventKind.QUEUE_ENTER] > 0
        assert breakdown.read_ns["filer_queue"] > 0
        assert breakdown.read_ns["syncer_stall"] + breakdown.write_ns["syncer_stall"] > 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        OBS_GOLDEN.write_text(
            json.dumps(golden_obs_digests(), indent=1, sort_keys=True) + "\n"
        )
        print("wrote %s" % OBS_GOLDEN)
    else:
        sys.exit("usage: python -m tests.test_obs --write")
