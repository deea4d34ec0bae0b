"""Tests for SimulationResults reporting."""

import json

import pytest

from repro.core.metrics import LatencyStat
from repro.core.results import SimulationResults


def make_results(**overrides):
    read = LatencyStat()
    read.record(88_400)
    read.record(162_568)
    write = LatencyStat()
    write.record(400)
    defaults = dict(
        config_description="naive ram=1.0 MB flash=8.0 MB",
        read_latency=read,
        write_latency=write,
        read_request_latency=LatencyStat(),
        write_request_latency=LatencyStat(),
        simulated_ns=2_000_000_000,
        measured_ns=1_000_000_000,
        records_replayed=100,
        blocks_read=2,
        blocks_written=1,
        tier_stats={"ram": {"hits": 10, "misses": 30, "hit_rate": 0.25}},
        filer_fast_reads=27,
        filer_slow_reads=3,
        filer_writes=12,
        flash_blocks_read=5,
        flash_blocks_written=9,
        network_utilization=0.125,
        block_writes=40,
        writes_requiring_invalidation=10,
        copies_invalidated=11,
    )
    defaults.update(overrides)
    return SimulationResults(**defaults)


class TestHeadlineMetrics:
    def test_latency_in_us(self):
        results = make_results()
        assert results.read_latency_us == pytest.approx((88.4 + 162.568) / 2)
        assert results.write_latency_us == pytest.approx(0.4)

    def test_hit_rate_lookup(self):
        results = make_results()
        assert results.hit_rate("ram") == 0.25
        assert results.hit_rate("flash") is None

    def test_invalidation_fraction(self):
        assert make_results().invalidation_fraction == pytest.approx(0.25)

    def test_invalidation_fraction_no_writes(self):
        assert make_results(block_writes=0).invalidation_fraction == 0.0

    def test_filer_reads_total(self):
        assert make_results().filer_reads == 30

    def test_throughput(self):
        results = make_results()
        # 3 blocks over 1 simulated second
        assert results.blocks_per_second == pytest.approx(3.0)
        assert results.throughput_mb_s == pytest.approx(3 * 4096 / 2**20)

    def test_throughput_zero_measured_time(self):
        assert make_results(measured_ns=0).blocks_per_second == 0.0


class TestSummary:
    def test_mentions_key_quantities(self):
        text = make_results().summary()
        assert "naive ram=1.0 MB" in text
        assert "read latency" in text
        assert "ram hit rate" in text
        assert "90% fast" in text
        assert "invalidations" in text
        assert "12.5%" in text  # network utilization

    def test_no_flash_traffic_line_when_zero(self):
        results = make_results(flash_blocks_read=0, flash_blocks_written=0)
        assert "flash traffic" not in results.summary()

    def test_empty_filer_is_safe(self):
        results = make_results(filer_fast_reads=0, filer_slow_reads=0)
        assert "0 reads" in results.summary()


class TestAsDict:
    def test_json_serializable(self):
        payload = json.dumps(make_results().as_dict())
        decoded = json.loads(payload)
        assert decoded["read_latency_us"] == pytest.approx((88.4 + 162.568) / 2)
        assert decoded["tier_stats"]["ram"]["hits"] == 10


class TestMerge:
    def test_every_field_has_a_merge_rule(self):
        from dataclasses import fields

        from repro.core.results import _MERGE_RULES

        assert set(_MERGE_RULES) == {f.name for f in fields(SimulationResults)}

    def test_counters_sum_and_clocks_max(self):
        a = make_results(simulated_ns=500, blocks_read=2, records_replayed=10)
        b = make_results(simulated_ns=900, blocks_read=5, records_replayed=4)
        merged = a.merge(b)
        assert merged.simulated_ns == 900
        assert merged.blocks_read == 7
        assert merged.records_replayed == 14
        assert merged.block_writes == 80

    def test_latencies_merge_counts_and_totals(self):
        merged = make_results().merge(make_results())
        single = make_results()
        assert merged.read_latency.count == 2 * single.read_latency.count
        assert merged.read_latency.total_ns == 2 * single.read_latency.total_ns
        assert merged.read_latency.min_ns == single.read_latency.min_ns
        assert merged.read_latency.max_ns == single.read_latency.max_ns

    def test_tier_stats_recompute_hit_rate(self):
        merged = make_results().merge(make_results())
        ram = merged.tier_stats["ram"]
        assert ram["hits"] == 20 and ram["misses"] == 60
        assert ram["hit_rate"] == 20 / 80

    def test_overrides_replace_derived_floats(self):
        merged = make_results().merge(
            make_results(), overrides={"network_utilization": 0.5}
        )
        assert merged.network_utilization == 0.5

    def test_unknown_override_name_raises(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            make_results().merge(make_results(), overrides={"not_a_field": 1})

    def test_merge_all_folds_in_order(self):
        parts = [make_results(blocks_read=i) for i in (1, 2, 3)]
        merged = SimulationResults.merge_all(parts)
        assert merged.blocks_read == 6

    def test_new_field_without_rule_fails_loudly(self):
        # The regression this guards: a future PR adds a counter to
        # SimulationResults but forgets the merge rule, and parallel
        # replay silently drops it.  merge() must refuse instead.
        from dataclasses import dataclass

        from repro.errors import SimulationError

        @dataclass
        class ExtendedResults(SimulationResults):
            brand_new_counter: int = 0

        base = make_results()
        kwargs = {f: getattr(base, f) for f in base.__dataclass_fields__}
        extended = ExtendedResults(**kwargs)
        with pytest.raises(SimulationError, match="_MERGE_RULES"):
            extended.merge(extended)
