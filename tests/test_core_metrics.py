"""Tests for latency statistics."""

import pickle
import random

import pytest

from repro.core.metrics import (
    DEFAULT_SKETCH_ERROR,
    LatencyStat,
    MetricsCollector,
    PercentileSketch,
    SKETCH_ENV,
    TimelineStat,
    _sketch_error_from_env,
)
from repro.errors import ConfigError


class TestLatencyStat:
    def test_empty(self):
        stat = LatencyStat()
        assert stat.count == 0
        assert stat.mean_ns == 0.0
        assert stat.percentile(0.5) == 0.0

    def test_mean_min_max(self):
        stat = LatencyStat()
        for value in (100, 200, 300):
            stat.record(value)
        assert stat.mean_ns == pytest.approx(200.0)
        assert stat.min_ns == 100
        assert stat.max_ns == 300

    def test_mean_us(self):
        stat = LatencyStat()
        stat.record(88_000)
        assert stat.mean_us == pytest.approx(88.0)

    def test_percentile_monotone(self):
        stat = LatencyStat()
        for value in range(100, 100_000, 500):
            stat.record(value)
        assert stat.percentile(0.1) <= stat.percentile(0.5) <= stat.percentile(0.99)

    def test_percentile_bucket_accuracy(self):
        stat = LatencyStat()
        for _ in range(100):
            stat.record(1_000)
        p50 = stat.percentile(0.5)
        assert 1_000 <= p50 <= 2_000  # within the bucket factor of two

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            LatencyStat().percentile(1.5)

    def test_merge(self):
        a, b = LatencyStat(), LatencyStat()
        a.record(100)
        b.record(300)
        a.merge(b)
        assert a.count == 2
        assert a.mean_ns == pytest.approx(200.0)
        assert a.min_ns == 100
        assert a.max_ns == 300

    def test_merge_empty(self):
        a = LatencyStat()
        a.record(50)
        a.merge(LatencyStat())
        assert a.count == 1

    def test_as_dict_keys(self):
        stat = LatencyStat()
        stat.record(1000)
        data = stat.as_dict()
        assert set(data) == {"count", "mean_us", "min_us", "max_us", "p50_us", "p99_us"}

    def test_huge_latency_lands_in_last_bucket(self):
        stat = LatencyStat()
        stat.record(10**12)  # beyond the last bucket edge
        assert stat.percentile(1.0) > 0

    def test_percentile_zero_reflects_minimum(self):
        # Regression: with every observation far above the first bucket,
        # percentile(0.0) used to report the first bucket edge (100 ns)
        # instead of anything the sample actually contains.
        stat = LatencyStat()
        for _ in range(10):
            stat.record(5_000)
        assert stat.percentile(0.0) == 5_000.0

    def test_percentile_clamped_to_observed_maximum(self):
        # Regression: the raw bucket upper edge can exceed every recorded
        # value; the estimate must stay inside [min_ns, max_ns].
        stat = LatencyStat()
        for _ in range(100):
            stat.record(1_500)  # bucket upper edge is 1_600
        assert stat.percentile(0.99) == 1_500.0

    def test_percentile_never_leaves_observed_range(self):
        stat = LatencyStat()
        for value in (5_000, 7_000, 9_000):
            stat.record(value)
        for fraction in (0.0, 0.01, 0.5, 0.99, 1.0):
            estimate = stat.percentile(fraction)
            assert stat.min_ns <= estimate <= stat.max_ns

    def test_merge_equals_combined_accumulator(self):
        # The merged accumulator must be indistinguishable from one that
        # saw both sample streams directly: min/max/count/total and every
        # histogram bucket.
        first = (100, 250, 1_500, 90_000)
        second = (50, 1_500, 2**40)
        a, b, combined = LatencyStat(), LatencyStat(), LatencyStat()
        for value in first:
            a.record(value)
        for value in second:
            b.record(value)
        for value in first + second:
            combined.record(value)
        a.merge(b)
        assert a.count == combined.count
        assert a.total_ns == combined.total_ns
        assert a.min_ns == combined.min_ns
        assert a.max_ns == combined.max_ns
        assert a._buckets == combined._buckets

    def test_bucket_index_matches_doubling_thresholds(self):
        # The closed-form bucket index must agree with the definition:
        # bucket i spans (100 * 2**(i-1), 100 * 2**i].
        for latency, expected in (
            (0, 0),
            (1, 0),
            (100, 0),
            (101, 1),
            (200, 1),
            (201, 2),
            (400, 2),
            (401, 3),
        ):
            stat = LatencyStat()
            stat.record(latency)
            assert stat._buckets[expected] == 1, latency


class TestRecordN:
    """``record_n`` is the replay driver's run-length flush."""

    @staticmethod
    def _state(stat):
        state = stat.__getstate__()
        state["sketch"] = state["sketch"].__getstate__()
        return state

    @pytest.mark.parametrize(
        "latency, n",
        [(0, 3), (1, 1), (100, 4), (101, 2), (400, 9), (88_000, 5), (10**12, 2)],
    )
    def test_equals_n_calls_of_record(self, latency, n):
        batched = LatencyStat(sketch=PercentileSketch(0.01))
        single = LatencyStat(sketch=PercentileSketch(0.01))
        for stat in (batched, single):
            stat.record(250)
        batched.record_n(latency, n)
        for _ in range(n):
            single.record(latency)
        assert self._state(batched) == self._state(single)
        assert batched.sketch.count == 1 + n

    def test_run_length_records_equal_single_records(self):
        rng = random.Random(5)
        latencies = [rng.choice((400, 400, 400, 21_000, 92_000)) for _ in range(300)]
        batched = LatencyStat(sketch=PercentileSketch(0.02))
        single = LatencyStat(sketch=PercentileSketch(0.02))
        run_latency, run_length = latencies[0], 0
        for latency in latencies:
            single.record(latency)
            if latency != run_latency:
                batched.record_n(run_latency, run_length)
                run_latency, run_length = latency, 0
            run_length += 1
        batched.record_n(run_latency, run_length)
        assert self._state(batched) == self._state(single)


class TestPercentileSketch:
    def test_empty(self):
        sketch = PercentileSketch(0.01)
        assert sketch.count == 0
        assert sketch.percentile(0.5) == 0.0

    def test_relative_error_bound_holds(self):
        rng = random.Random(1234)
        samples = [int(rng.lognormvariate(8.0, 1.5)) + 1 for _ in range(5000)]
        for error in (0.01, 0.05, 0.2):
            sketch = PercentileSketch(error)
            for value in samples:
                sketch.record(value)
            ordered = sorted(samples)
            for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
                exact = ordered[int(fraction * (len(ordered) - 1))]
                estimate = sketch.percentile(fraction)
                assert abs(estimate - exact) <= error * exact, (
                    "e=%g p%g" % (error, fraction)
                )

    def test_zero_values(self):
        sketch = PercentileSketch(0.01)
        for value in (0, 0, 0, 100):
            sketch.record(value)
        assert sketch.percentile(0.5) == 0.0
        assert sketch.percentile(1.0) == pytest.approx(100, rel=0.01)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PercentileSketch(0.01).record(-1)

    def test_rejects_bad_error(self):
        with pytest.raises(ValueError):
            PercentileSketch(0.0)
        with pytest.raises(ValueError):
            PercentileSketch(1.0)

    def test_merge_matches_single_sketch(self):
        rng = random.Random(99)
        samples = [int(rng.expovariate(0.001)) + 1 for _ in range(2000)]
        whole = PercentileSketch(0.02)
        left, right = PercentileSketch(0.02), PercentileSketch(0.02)
        for index, value in enumerate(samples):
            whole.record(value)
            (left if index % 2 else right).record(value)
        left.merge(right)
        assert left.count == whole.count
        for fraction in (0.5, 0.9, 0.99):
            assert left.percentile(fraction) == whole.percentile(fraction)

    def test_merge_rejects_mismatched_error(self):
        with pytest.raises(ValueError):
            PercentileSketch(0.01).merge(PercentileSketch(0.02))

    def test_merge_rejects_near_identical_gamma(self):
        # Pre-fix, the check tolerated |gamma_a - gamma_b| <= 1e-12,
        # which let sketches built from *distinct* relative errors merge
        # silently when both gammas were within float noise of each
        # other — mixing incompatible bucket geometries.
        near_a, near_b = 1e-13, 3e-13
        sketch_a = PercentileSketch(near_a)
        sketch_b = PercentileSketch(near_b)
        assert abs(sketch_a._gamma - sketch_b._gamma) <= 1e-12
        with pytest.raises(ValueError):
            sketch_a.merge(sketch_b)

    def test_merge_accepts_equal_error(self):
        sketch_a = PercentileSketch(0.01)
        sketch_b = PercentileSketch(0.01)
        sketch_a.record(10)
        sketch_b.record(20)
        sketch_a.merge(sketch_b)
        assert sketch_a.count == 2

    def test_collapse_preserves_bound_above_collapsed_region(self):
        # The max_buckets collapse folds the lowest bucket upward; the
        # cumulative counts at and above the surviving buckets are
        # unchanged, so quantiles that resolve above the collapsed
        # region must keep the relative-error bound — and match an
        # uncapped sketch fed the same stream exactly.
        error = 0.01
        rng = random.Random(1234)
        samples = [rng.uniform(1, 1e9) for _ in range(4000)]
        capped = PercentileSketch(error, max_buckets=64)
        uncapped = PercentileSketch(error, max_buckets=1 << 20)
        for value in samples:
            capped.record(value)
            uncapped.record(value)
        assert len(capped._buckets) <= 64
        ordered = sorted(samples)
        for fraction in (0.9, 0.95, 0.99, 0.999):
            exact = ordered[int(fraction * (len(ordered) - 1))]
            estimate = capped.percentile(fraction)
            assert estimate == uncapped.percentile(fraction)
            assert abs(estimate - exact) <= error * exact * (1 + 1e-9)

    def test_memory_bounded_by_bucket_cap(self):
        sketch = PercentileSketch(0.01, max_buckets=16)
        rng = random.Random(7)
        for _ in range(5000):
            sketch.record(rng.uniform(1, 1e12))
        assert len(sketch._buckets) <= 16
        assert sketch.count == 5000
        # High percentiles keep their bound (collapse eats the low tail).
        assert sketch.percentile(0.99) > 0

    def test_pickle_round_trip(self):
        sketch = PercentileSketch(0.03)
        for value in (10, 100, 1000):
            sketch.record(value)
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == 3
        assert clone.percentile(0.5) == sketch.percentile(0.5)
        clone.record(5)  # still usable after unpickle
        assert clone.count == 4

    def test_as_dict(self):
        sketch = PercentileSketch(0.01)
        sketch.record(500)
        summary = sketch.as_dict()
        assert summary["count"] == 1
        assert summary["p50"] == pytest.approx(500, rel=0.01)


class TestSketchEnvKnob:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(SKETCH_ENV, raising=False)
        assert _sketch_error_from_env() is None
        assert MetricsCollector().read_latency.sketch is None

    def test_flag_values(self, monkeypatch):
        for value in ("0", "off", "false", "no", ""):
            monkeypatch.setenv(SKETCH_ENV, value)
            assert _sketch_error_from_env() is None
        for value in ("1", "on", "true", "yes"):
            monkeypatch.setenv(SKETCH_ENV, value)
            assert _sketch_error_from_env() == DEFAULT_SKETCH_ERROR

    def test_explicit_error(self, monkeypatch):
        monkeypatch.setenv(SKETCH_ENV, "0.05")
        assert _sketch_error_from_env() == 0.05

    def test_bad_values_raise(self, monkeypatch):
        for value in ("nope", "-0.1", "1.5"):
            monkeypatch.setenv(SKETCH_ENV, value)
            with pytest.raises(ConfigError):
                _sketch_error_from_env()

    def test_collector_env_enables_all_stats(self, monkeypatch):
        monkeypatch.setenv(SKETCH_ENV, "0.02")
        collector = MetricsCollector()
        for stat in (
            collector.read_latency,
            collector.write_latency,
            collector.read_request_latency,
            collector.write_request_latency,
        ):
            assert stat.sketch is not None
            assert stat.sketch.relative_error == 0.02

    def test_collector_explicit_error_wins(self, monkeypatch):
        monkeypatch.delenv(SKETCH_ENV, raising=False)
        collector = MetricsCollector(sketch_error=0.1)
        assert collector.read_latency.sketch.relative_error == 0.1


class TestLatencyStatSketchIntegration:
    def test_record_feeds_sketch(self):
        stat = LatencyStat(sketch=PercentileSketch(0.01))
        for value in (1000, 2000, 3000):
            stat.record(value)
        assert stat.sketch.count == 3
        assert stat.sketch.percentile(0.5) == pytest.approx(2000, rel=0.01)

    def test_as_dict_includes_sketch_percentiles(self):
        stat = LatencyStat(sketch=PercentileSketch(0.01))
        stat.record(5_000)
        summary = stat.as_dict()
        assert summary["sketch_p50_us"] == pytest.approx(5.0, rel=0.01)
        assert "sketch_p99_us" in summary
        assert "sketch_p50_us" not in LatencyStat().as_dict()

    def test_merge_merges_sketches(self):
        a = LatencyStat(sketch=PercentileSketch(0.01))
        b = LatencyStat(sketch=PercentileSketch(0.01))
        a.record(100)
        b.record(300)
        a.merge(b)
        assert a.sketch.count == 2

    def test_merge_tolerates_sketchless_peer(self):
        a = LatencyStat(sketch=PercentileSketch(0.01))
        b = LatencyStat()
        a.record(100)
        b.record(300)
        a.merge(b)  # must not raise
        assert a.count == 2
        assert a.sketch.count == 1

    def test_pickle_round_trip_with_sketch(self):
        stat = LatencyStat(sketch=PercentileSketch(0.01))
        stat.record(1000)
        clone = pickle.loads(pickle.dumps(stat))
        assert clone.count == 1
        assert clone.sketch is not None
        assert clone.sketch.count == 1

    def test_unpickles_pre_sketch_payload(self):
        # A LatencyStat pickled before the sketch slot existed has no
        # "sketch" key in its state dict; __setstate__ must default it.
        stat = LatencyStat()
        stat.record(1000)
        state = stat.__getstate__()
        del state["sketch"]
        revived = LatencyStat()
        revived.__setstate__(state)
        assert revived.count == 1
        assert revived.sketch is None
        revived.record(2000)  # still records without a sketch

    def test_sketch_absent_from_signature_fields(self):
        # The drift gates hash count/total/min/max/buckets only; the
        # sketch must not leak into that set.
        from repro.validation.differential import _latency_fingerprint

        plain = LatencyStat()
        sketched = LatencyStat(sketch=PercentileSketch(0.01))
        for value in (100, 900, 42_000):
            plain.record(value)
            sketched.record(value)
        assert _latency_fingerprint(plain) == _latency_fingerprint(sketched)


class TestTimelineStat:
    def test_bucket_boundaries_are_exact_multiples(self):
        timeline = TimelineStat(bucket_ns=1_000)
        timeline.record(0, 10)
        timeline.record(999, 20)       # still bucket 0
        timeline.record(1_000, 30)     # first instant of bucket 1
        timeline.record(2_500, 40)
        starts = [start for start, _mean, _count in timeline.series()]
        assert starts == [0, 1_000, 2_000]
        assert all(start % timeline.bucket_ns == 0 for start in starts)

    def test_bucket_means_and_counts(self):
        timeline = TimelineStat(bucket_ns=1_000)
        timeline.record(0, 10)
        timeline.record(999, 20)
        timeline.record(1_000, 30)
        series = timeline.series()
        assert series[0] == (0, 15.0, 2)
        assert series[1] == (1_000, 30.0, 1)
        assert len(timeline) == 2

    def test_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            TimelineStat(bucket_ns=0)


class TestMetricsCollector:
    def test_begin_measurement_idempotent(self):
        collector = MetricsCollector()
        collector.begin_measurement(10)
        collector.begin_measurement(99)
        assert collector.measurement_start_ns == 10
