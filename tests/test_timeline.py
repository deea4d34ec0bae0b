"""Tests for the TimelineStat metric and its plumbing."""

import pytest

from repro._units import MS, US
from repro.core.metrics import TimelineStat
from repro.core.restart import RestartSpec
from repro.core.simulator import run_simulation
from repro.traces.records import Trace, TraceOp, TraceRecord

from tests.helpers import make_trace, tiny_config


class TestTimelineStat:
    def test_bucketing(self):
        timeline = TimelineStat(bucket_ns=1000)
        timeline.record(100, 10)
        timeline.record(900, 30)
        timeline.record(1500, 100)
        series = timeline.series()
        assert series == [(0, 20.0, 2), (1000, 100.0, 1)]

    def test_sorted_output(self):
        timeline = TimelineStat(bucket_ns=10)
        timeline.record(95, 1)
        timeline.record(5, 1)
        starts = [start for start, _mean, _count in timeline.series()]
        assert starts == sorted(starts)

    def test_len_counts_buckets(self):
        timeline = TimelineStat(bucket_ns=10)
        timeline.record(1, 1)
        timeline.record(2, 1)
        timeline.record(25, 1)
        assert len(timeline) == 2

    def test_bad_bucket_width(self):
        with pytest.raises(ValueError):
            TimelineStat(bucket_ns=0)


class TestPlumbing:
    def test_disabled_by_default(self):
        results = run_simulation(make_trace([("r", 0)]), tiny_config())
        assert results.read_timeline is None

    def test_enabled_collects_reads(self):
        trace = make_trace([("r", block) for block in range(20)])
        results = run_simulation(
            trace, tiny_config(), timeline_bucket_ns=int(1 * MS)
        )
        assert results.read_timeline is not None
        total = sum(count for _s, _m, count in results.read_timeline.series())
        assert total == 20

    def test_timeline_mean_matches_aggregate(self):
        trace = make_trace([("r", block) for block in range(30)])
        results = run_simulation(
            trace, tiny_config(), timeline_bucket_ns=int(100 * MS)
        )
        series = results.read_timeline.series()
        weighted = sum(mean * count for _s, mean, count in series)
        total = sum(count for _s, _m, count in series)
        assert weighted / total == pytest.approx(results.read_latency.mean_ns)

    def test_recovery_dip_visible(self):
        """After a volatile crash, the first buckets are slower than the
        last ones (the cache refills over time)."""
        trace = make_trace(
            [("r", block % 64) for block in range(400)], warmup=200
        )
        results = run_simulation(
            trace,
            tiny_config(),
            restart=RestartSpec.crash_volatile(),
            timeline_bucket_ns=int(5 * MS),
        )
        series = results.read_timeline.series()
        assert len(series) >= 2
        first_mean = series[0][1]
        last_mean = series[-1][1]
        assert first_mean > last_mean

    def test_reads_measured_before_the_boundary_land_in_bucket_zero(self):
        """Thread 1 has no warmup rows, so its two measured reads finish
        while thread 0 is still replaying the warmup; the measurement
        boundary comes later.  Those reads belong to the first bucket,
        not to buckets at their absolute completion times."""
        read = TraceOp.READ
        warmup = [TraceRecord(read, 0, 0, 0, block, 1) for block in range(8)]
        measured = [TraceRecord(read, 0, 1, 0, block, 1) for block in (100, 101)]
        trace = Trace(warmup + measured, [4096], warmup_records=len(warmup))
        results = run_simulation(
            trace, tiny_config(), timeline_bucket_ns=int(100 * US)
        )
        series = results.read_timeline.series()
        assert sum(count for _s, _m, count in series) == results.read_latency.count
        assert results.read_latency.count == 2
        assert [(start, count) for start, _m, count in series] == [(0, 2)]
