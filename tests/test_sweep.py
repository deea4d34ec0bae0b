"""Tests for the parallel sweep engine (``repro.sweep``)."""

from __future__ import annotations

import dataclasses
import pickle
import shutil
from pathlib import Path

import pytest

from repro import sweep
from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.results import SimulationResults
from repro.core.simulator import run_simulation
from repro.errors import ConfigError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.sweep import SweepPoint, run_sweep, run_sweep_points
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace


@pytest.fixture(scope="module")
def small_trace():
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
        working_set_bytes=4 * MB,
        seed=7,
    )
    return generate_trace(config)


def small_grid():
    """A miniature figure2-style grid: architectures x flash sizes."""
    return [
        SimConfig(ram_bytes=1 * MB, flash_bytes=flash_mb * MB, architecture=arch)
        for arch in (Architecture.NAIVE, Architecture.UNIFIED)
        for flash_mb in (2, 8)
    ]


class TestSerialParallelEquality:
    def test_parallel_matches_serial_exactly(self, small_trace):
        configs = small_grid()
        serial = run_sweep(small_trace, configs, workers=1)
        parallel = run_sweep(small_trace, configs, workers=2)
        assert len(serial) == len(parallel) == len(configs)
        for expected, actual in zip(serial, parallel):
            assert expected.as_dict() == actual.as_dict()
            assert expected.simulated_ns == actual.simulated_ns

    def test_sweep_matches_direct_run_simulation(self, small_trace):
        configs = small_grid()
        swept = run_sweep(small_trace, configs, workers=2)
        for config, result in zip(configs, swept):
            direct = run_simulation(small_trace, config)
            assert direct.as_dict() == result.as_dict()

    def test_point_options_forwarded(self, small_trace):
        config = small_grid()[0]
        point = SweepPoint(config=config, trace=small_trace, cold_start=True)
        outcome = run_sweep_points([point], workers=1)
        direct = run_simulation(small_trace, config, cold_start=True)
        assert outcome.results[0].as_dict() == direct.as_dict()


class TestResultCache:
    def test_second_run_touches_zero_simulations(
        self, small_trace, tmp_path, monkeypatch
    ):
        configs = small_grid()
        calls = {"n": 0}
        real = sweep.run_simulation

        def counting(trace, config, **kwargs):
            calls["n"] += 1
            return real(trace, config, **kwargs)

        monkeypatch.setattr(sweep, "run_simulation", counting)
        cache = tmp_path / "cache"

        first = run_sweep(small_trace, configs, workers=1, cache_dir=cache)
        assert calls["n"] == len(configs)

        second = run_sweep(small_trace, configs, workers=1, cache_dir=cache)
        assert calls["n"] == len(configs)  # all served from disk
        for a, b in zip(first, second):
            assert a.as_dict() == b.as_dict()

    def test_cache_distinguishes_configs_and_options(
        self, small_trace, tmp_path
    ):
        config = small_grid()[0]
        cache = tmp_path / "cache"
        warm = run_sweep_points(
            [SweepPoint(config=config, trace=small_trace)], cache_dir=cache
        )
        cold = run_sweep_points(
            [SweepPoint(config=config, trace=small_trace, cold_start=True)],
            cache_dir=cache,
        )
        assert cold.reports[0].cached is False
        assert (
            cold.results[0].read_latency_us != warm.results[0].read_latency_us
            or cold.results[0].as_dict() != warm.results[0].as_dict()
        )

    def test_torn_cache_entry_is_a_miss(self, small_trace, tmp_path):
        config = small_grid()[0]
        cache = tmp_path / "cache"
        run_sweep(small_trace, [config], cache_dir=cache)
        for entry in cache.glob("*.result.pkl"):
            entry.write_bytes(b"torn")
        outcome = run_sweep_points(
            [SweepPoint(config=config, trace=small_trace)], cache_dir=cache
        )
        assert outcome.reports[0].cached is False

    @staticmethod
    def _cached_again(small_trace, config, cache):
        outcome = run_sweep_points(
            [SweepPoint(config=config, trace=small_trace)], cache_dir=cache
        )
        return outcome.reports[0].cached

    def test_changed_module_misses_the_cache(self, small_trace, tmp_path, monkeypatch):
        package = Path(sweep.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        fields = [field.name for field in dataclasses.fields(SimulationResults)]
        # The salt is the digest of exactly this package's sources.
        assert sweep._code_digest(copy, fields) == sweep._code_salt()
        config = small_grid()[0]
        cache = tmp_path / "cache"
        run_sweep(small_trace, [config], cache_dir=cache)
        assert self._cached_again(small_trace, config, cache)
        with open(copy / "core" / "host.py", "a") as handle:
            handle.write("\n# changed\n")
        monkeypatch.setattr(sweep, "_code_salt", lambda: sweep._code_digest(copy, fields))
        assert not self._cached_again(small_trace, config, cache)

    def test_added_result_field_misses_the_cache(
        self, small_trace, tmp_path, monkeypatch
    ):
        package = Path(sweep.__file__).resolve().parent
        fields = [field.name for field in dataclasses.fields(SimulationResults)]
        config = small_grid()[0]
        cache = tmp_path / "cache"
        run_sweep(small_trace, [config], cache_dir=cache)
        assert self._cached_again(small_trace, config, cache)
        monkeypatch.setattr(
            sweep,
            "_code_salt",
            lambda: sweep._code_digest(package, fields + ["added_field"]),
        )
        assert not self._cached_again(small_trace, config, cache)

    def test_progress_reports_cache_hits(self, small_trace, tmp_path):
        configs = small_grid()
        cache = tmp_path / "cache"
        run_sweep(small_trace, configs, cache_dir=cache)
        reports = []
        run_sweep(small_trace, configs, cache_dir=cache, progress=reports.append)
        assert len(reports) == len(configs)
        assert all(report.cached for report in reports)
        assert all(report.wall_seconds == 0.0 for report in reports)


class TestFallbackAndDefaults:
    def test_workers_1_never_builds_a_pool(self, small_trace, monkeypatch):
        import concurrent.futures as futures

        def explode(*args, **kwargs):
            raise AssertionError("workers=1 must stay in-process")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", explode)
        results = run_sweep(small_trace, small_grid(), workers=1)
        assert len(results) == len(small_grid())

    def test_pool_creation_failure_falls_back_to_serial(
        self, small_trace, monkeypatch
    ):
        class Broken:
            def __init__(self, *args, **kwargs):
                raise OSError("no process support")

        import concurrent.futures as futures

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Broken)
        parallel = run_sweep(small_trace, small_grid(), workers=4)
        serial = run_sweep(small_trace, small_grid(), workers=1)
        for a, b in zip(parallel, serial):
            assert a.as_dict() == b.as_dict()

    def test_negative_workers_rejected(self, small_trace):
        with pytest.raises(ConfigError):
            run_sweep(small_trace, small_grid(), workers=-1)

    def test_default_workers_setter(self):
        try:
            sweep.set_default_workers(3)
            assert sweep.default_workers() == 3
            sweep.set_default_workers(0)  # 0 = all cores
            assert sweep.default_workers() >= 1
        finally:
            sweep.set_default_workers(None)

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV, "5")
        assert sweep.default_workers() == 5
        monkeypatch.setenv(sweep.WORKERS_ENV, "banana")
        with pytest.raises(ConfigError):
            sweep.default_workers()


class TestProgress:
    def test_one_report_per_point_in_any_mode(self, small_trace):
        configs = small_grid()
        for workers in (1, 2):
            reports = []
            run_sweep(small_trace, configs, workers=workers, progress=reports.append)
            assert len(reports) == len(configs)
            assert sorted(report.index for report in reports) == list(
                range(len(configs))
            )
            assert [report.completed for report in reports] == list(
                range(1, len(configs) + 1)
            )
            assert all(report.total == len(configs) for report in reports)
            assert all(report.simulated_ns > 0 for report in reports)

    def test_labels_carried_through(self, small_trace):
        config = small_grid()[0]
        reports = []
        run_sweep_points(
            [SweepPoint(config=config, trace=small_trace, label="pt-a")],
            progress=reports.append,
        )
        assert reports[0].label == "pt-a"


class TestFingerprints:
    def test_trace_fingerprint_stable_across_pickle(self, small_trace):
        clone = pickle.loads(pickle.dumps(small_trace))
        assert clone.fingerprint == small_trace.fingerprint

    def test_different_traces_differ(self, small_trace):
        other = generate_trace(
            TraceGenConfig(
                fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
                working_set_bytes=4 * MB,
                seed=8,
            )
        )
        assert other.fingerprint != small_trace.fingerprint


class TestWithOverrides:
    def test_returns_modified_copy(self):
        base = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        changed = base.with_overrides(persistent_flash=True)
        assert changed.persistent_flash is True
        assert base.persistent_flash is False
        assert changed.ram_bytes == base.ram_bytes

    def test_unknown_field_raises_config_error(self):
        base = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        with pytest.raises(ConfigError, match="no_such_field"):
            base.with_overrides(no_such_field=1)

    def test_validation_still_runs(self):
        base = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        with pytest.raises(ConfigError):
            base.with_overrides(ram_bytes=-1)


class TestSilentFailureFixes:
    """Regression tests for the silent-failure sweep: each of these
    failed (aborted sweeps or leaked files) before the fixes."""

    def test_unwritable_cache_warns_and_completes(self, small_trace, tmp_path):
        # Nest the cache dir under a regular *file*: every mkdir/write
        # raises NotADirectoryError (an OSError) regardless of
        # privileges, unlike chmod tricks that root bypasses.
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        configs = small_grid()[:2]
        with pytest.warns(RuntimeWarning, match="cache write"):
            results = run_sweep(
                small_trace, configs, workers=1, cache_dir=blocker / "cache"
            )
        assert len(results) == len(configs)
        assert all(result is not None for result in results)

    def test_cache_warning_issued_once_per_sweep(self, small_trace, tmp_path):
        import warnings as _warnings

        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            run_sweep(
                small_trace, small_grid(), workers=1, cache_dir=blocker / "cache"
            )
        cache_warnings = [w for w in caught if "cache write" in str(w.message)]
        assert len(cache_warnings) == 1

    def test_unwritable_cache_warns_once_in_parallel(self, small_trace, tmp_path):
        """A parallel sweep hands its trace to the workers outside the
        cache, so an unwritable cache only turns caching off there too."""
        import warnings as _warnings

        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            results = run_sweep(
                small_trace, small_grid(), workers=2, cache_dir=blocker / "cache"
            )
        assert [r.as_dict() for r in results] == [
            r.as_dict() for r in run_sweep(small_trace, small_grid(), workers=1)
        ]
        cache_warnings = [w for w in caught if "cache write" in str(w.message)]
        assert len(cache_warnings) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_exception_does_not_abort(self, small_trace, workers):
        configs = small_grid()
        seen = []

        def exploding_progress(report):
            seen.append(report.index)
            raise ValueError("observer bug")

        with pytest.warns(RuntimeWarning, match="progress callback"):
            results = run_sweep(
                small_trace, configs, workers=workers, progress=exploding_progress
            )
        assert len(results) == len(configs)
        assert all(result is not None for result in results)
        # The callback kept being invoked (the failure is per-call, not fatal).
        assert len(seen) == len(configs)

    def test_progress_exception_result_parity(self, small_trace):
        def exploding_progress(report):
            raise ValueError("observer bug")

        clean = run_sweep(small_trace, small_grid(), workers=1)
        with pytest.warns(RuntimeWarning):
            noisy = run_sweep(
                small_trace, small_grid(), workers=1, progress=exploding_progress
            )
        for a, b in zip(clean, noisy):
            assert a.as_dict() == b.as_dict()

    def test_stale_spool_tmp_files_are_swept(self, small_trace, tmp_path):
        import os as _os
        import time as _time

        cache = tmp_path / "cache"
        spool = cache / "traces"
        spool.mkdir(parents=True)
        stale = spool / "deadbeef.pkl.abc123.tmp"
        stale.write_bytes(b"orphaned by a killed sweep")
        old = _time.time() - 2 * sweep._STALE_TMP_SECONDS
        _os.utime(stale, (old, old))
        stale_cache_entry = cache / "feedface.result.pkl.xyz.tmp"
        stale_cache_entry.write_bytes(b"orphan")
        _os.utime(stale_cache_entry, (old, old))
        fresh = spool / "cafe.pkl.def456.tmp"
        fresh.write_bytes(b"a concurrent sweep's in-flight write")

        run_sweep(small_trace, small_grid()[:1], workers=1, cache_dir=cache)

        assert not stale.exists()
        assert not stale_cache_entry.exists()
        assert fresh.exists()  # grace period protects live writers

    def test_failing_point_leaves_no_stray_spool(self, small_trace, tmp_path,
                                                 monkeypatch):
        import tempfile as _tempfile

        monkeypatch.setattr(_tempfile, "tempdir", str(tmp_path))
        # The registry validates eviction specs at construction time, so
        # smuggle the bad name in afterwards: the point must fail inside
        # the worker, mid-sweep, to exercise spool cleanup.
        bad = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        object.__setattr__(bad, "eviction_policy", "bogus")
        points = [
            SweepPoint(config=bad, trace=small_trace),
            SweepPoint(config=small_grid()[0], trace=small_trace),
        ]
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="eviction policy"):
            run_sweep_points(points, workers=2)
        strays = [
            entry
            for entry in tmp_path.iterdir()
            if entry.name.startswith("repro-sweep-")
        ]
        assert strays == []

    def test_pool_dropping_a_result_raises_instead_of_misaligning(
        self, small_trace, monkeypatch
    ):
        import concurrent.futures as futures

        class DroppingPool:
            """A pool whose map() silently loses the last task."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                for task in tasks[:-1]:
                    yield fn(task)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(futures, "ProcessPoolExecutor", DroppingPool)
        with pytest.raises(RuntimeError, match="no result"):
            run_sweep(small_trace, small_grid(), workers=2)


class TestPointReportCounters:
    def test_counters_none_without_tracing(self, small_trace):
        reports = []
        run_sweep(small_trace, small_grid()[:1], progress=reports.append)
        assert reports[0].counters is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counters_travel_back_from_workers(self, small_trace, workers):
        configs = [
            config.with_overrides(trace_events=True) for config in small_grid()
        ]
        reports = []
        results = run_sweep(
            small_trace, configs, workers=workers, progress=reports.append
        )
        for report in reports:
            assert report.counters is not None
            assert report.counters.get("request_start", 0) > 0
            assert report.counters["request_start"] == report.counters["request_finish"]
        by_index = {report.index: report for report in reports}
        for index, result in enumerate(results):
            assert result.breakdown is not None
            assert result.obs_counters == by_index[index].counters
