"""Lifecycle tests for the sweep fan-out's trace hand-off and pool.

Three properties are audited here, per ``repro.sweep``'s contract:

* **no leaked spools** — the temporary directory a sweep writes its
  compiled-trace files to is removed on every exit path (normal
  completion, a failing point, a broken pool, Ctrl-C), and nothing is
  written into the result cache but results;
* **worker trace cache** — ``_WORKER_TRACE_CACHE`` is bounded, evicts
  oldest-first, and runs each evicted entry's cleanup (releasing buffer
  views before closing the map);
* **persistent pool** — the process-wide executor is reused across
  sweeps, resized on demand, bypassed by ``fresh_pool=True``, and
  retired idempotently by ``shutdown_pool()`` without forking anything.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
import warnings

import pytest

from repro import sweep
from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.errors import ReproError, TraceFormatError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.sweep import SweepPoint, run_sweep, run_sweep_points, shutdown_pool
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.compiled import CompiledTrace, compile_trace

from tests.helpers import make_trace, tiny_config


@pytest.fixture(scope="module")
def small_trace():
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
        working_set_bytes=4 * MB,
        seed=13,
    )
    return generate_trace(config)


@pytest.fixture
def spools(monkeypatch, tmp_path):
    """The temporary directories sweeps make in this test, all under a
    per-test temp root (so a replay elsewhere on the machine cannot
    change what the test sees)."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    made = []
    real_mkdtemp = tempfile.mkdtemp

    def mkdtemp(*args, **kwargs):
        made.append(real_mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    return made


def assert_spools_gone(spools, tmp_path):
    assert spools, "the sweep made no spool directory"
    assert all(os.path.dirname(path) == str(tmp_path) for path in spools)
    assert not any(os.path.exists(path) for path in spools)
    assert list(tmp_path.glob("repro-sweep-*")) == []


def grid(n: int = 4):
    return [
        SimConfig(ram_bytes=1 * MB, flash_bytes=flash_mb * MB, architecture=arch)
        for arch in (Architecture.NAIVE, Architecture.UNIFIED)
        for flash_mb in (2, 4, 8)
    ][:n]


class TestSpoolLifecycle:
    def test_normal_completion_leaks_nothing(self, small_trace, spools, tmp_path):
        results = run_sweep(small_trace, grid(), workers=2)
        assert len(results) == 4
        assert_spools_gone(spools, tmp_path)

    def test_failing_point_leaks_nothing(self, small_trace, spools, tmp_path):
        # Eviction specs validate at construction time now; smuggle the
        # bad name in so the failure happens inside the worker.
        bad = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        object.__setattr__(bad, "eviction_policy", "bogus")
        points = [
            SweepPoint(config=bad, trace=small_trace),
            SweepPoint(config=grid(1)[0], trace=small_trace),
        ]
        with pytest.raises(ReproError, match="eviction policy"):
            run_sweep_points(points, workers=2)
        assert_spools_gone(spools, tmp_path)

    def test_interrupt_leaks_nothing(self, small_trace, spools, tmp_path, monkeypatch):
        """Ctrl-C mid-drain: the spool is removed before the interrupt
        propagates (the pool here is a stand-in whose map() raises, so
        the unwind path is exercised deterministically)."""
        import concurrent.futures as futures

        shipped = []

        class InterruptedPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, tasks, chunksize=1):
                shipped.extend(ref for _position, ref, _config, _options in tasks)
                assert all(os.path.isfile(ref) for ref in shipped)
                raise KeyboardInterrupt()

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(futures, "ProcessPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(small_trace, grid(), workers=2)
        assert shipped and all(ref.endswith(sweep.CTRACE_SUFFIX) for ref in shipped)
        assert_spools_gone(spools, tmp_path)

    def test_broken_pool_discards_persistent_and_leaks_nothing(
        self, small_trace, spools, tmp_path, monkeypatch
    ):
        """A worker crash surfaces as BrokenExecutor: the persistent pool
        must be discarded and the spool still removed."""
        import concurrent.futures as futures

        real_cls = futures.ProcessPoolExecutor
        # Seed a genuine persistent pool first.
        run_sweep(small_trace, grid(2), workers=2)
        assert sweep._POOL is not None

        crashed = futures.process.BrokenProcessPool("worker died")

        def exploding_map(self, fn, tasks, chunksize=1):
            raise crashed

        monkeypatch.setattr(real_cls, "map", exploding_map)
        with pytest.raises(futures.process.BrokenProcessPool):
            run_sweep(small_trace, grid(), workers=2)
        assert sweep._POOL is None
        assert len(spools) == 2
        assert_spools_gone(spools, tmp_path)

    def test_worker_attaches_zero_copy(self, small_trace):
        """Results through the compiled-trace hand-off match in-process
        replay."""
        parallel = run_sweep(small_trace, grid(), workers=2)
        serial = run_sweep(small_trace, grid(), workers=1)
        for a, b in zip(parallel, serial):
            assert a.as_dict() == b.as_dict()

    def test_cache_dir_holds_results_only(self, small_trace, spools, tmp_path):
        """With a result cache the image still goes to the sweep's own
        temporary directory, so the cache never keeps a trace image."""
        cache = tmp_path / "cache"
        run_sweep(small_trace, grid(2), workers=2, cache_dir=cache)
        entries = sorted(entry.name for entry in cache.iterdir())
        assert len(entries) == 2
        assert all(name.endswith(".result.pkl") for name in entries)
        assert_spools_gone(spools, tmp_path)


class TestWorkerTraceCache:
    def test_eviction_is_oldest_first_and_runs_cleanup(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        cache = sweep._WORKER_TRACE_CACHE
        released = []
        for i in range(sweep._WORKER_TRACE_CACHE_MAX):
            cache["fake-%d" % i] = (
                object(),
                (lambda i=i: released.append(i)),
            )
        trace = make_trace([("r", 0)], file_blocks=16)
        spool = tmp_path / "t.pkl"
        spool.write_bytes(pickle.dumps(trace))
        loaded = sweep._load_trace_ref(str(spool))
        assert loaded.records == trace.records
        assert released == [0]  # exactly the oldest entry, exactly once
        assert len(cache) == sweep._WORKER_TRACE_CACHE_MAX
        assert "fake-0" not in cache

    def test_repeat_ref_is_memoized(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        trace = make_trace([("w", 1)], file_blocks=16)
        spool = tmp_path / "t.pkl"
        spool.write_bytes(pickle.dumps(trace))
        first = sweep._load_trace_ref(str(spool))
        assert sweep._load_trace_ref(str(spool)) is first

    def test_ctrace_ref_attach_and_drain(self, monkeypatch, spools, tmp_path):
        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        compiled = compile_trace(make_trace([("w", 0), ("r", 0)], file_blocks=16))
        with sweep._trace_exports() as export:
            ref = export(compiled)
            assert ref == os.path.join(spools[0], compiled.fingerprint + ".ctrace")
            attached = sweep._load_trace_ref(ref)
        assert_spools_gone(spools, tmp_path)
        assert isinstance(attached, CompiledTrace)
        assert isinstance(attached.ops, memoryview)  # zero-copy
        assert attached.fingerprint == compiled.fingerprint
        assert sweep._load_trace_ref(ref) is attached
        # Draining releases the views before it closes the map, so it
        # cannot raise BufferError.
        assert sweep._drain_worker_cache() == 1
        assert sweep._WORKER_TRACE_CACHE == {}
        with pytest.raises(ValueError):
            attached.ops.tolist()  # the view is released

    def test_failed_attach_closes_its_map(self, monkeypatch, tmp_path):
        """A damaged image raises its format error, and the map it was
        read through is closed, not left to the collector."""
        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        blob = compile_trace(make_trace([("w", 0), ("r", 0)], file_blocks=16)).to_bytes()
        damaged = tmp_path / ("damaged" + sweep.CTRACE_SUFFIX)
        damaged.write_bytes(blob[:-8])
        maps = []
        real_mmap = sweep.mmap.mmap

        def recording_mmap(*args, **kwargs):
            maps.append(real_mmap(*args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(sweep.mmap, "mmap", recording_mmap)
        with pytest.raises(TraceFormatError, match="truncated"):
            sweep._load_trace_ref(str(damaged))
        assert len(maps) == 1 and maps[0].closed
        assert sweep._WORKER_TRACE_CACHE == {}

    def test_more_distinct_traces_than_cache_slots(self, small_trace):
        """A sweep shipping more unique traces than the per-worker cache
        holds still completes with correct per-point results."""
        n = sweep._WORKER_TRACE_CACHE_MAX + 2
        config = tiny_config()
        points = [
            SweepPoint(
                config=config,
                trace=make_trace(
                    [("w", i), ("r", i), ("r", i + 1)], file_blocks=64
                ),
                label="t%d" % i,
            )
            for i in range(n)
        ]
        outcome = run_sweep_points(points, workers=2)
        serial = run_sweep_points(points, workers=1)
        assert len(outcome.results) == n
        for a, b in zip(outcome.results, serial.results):
            assert a.as_dict() == b.as_dict()


class TestPersistentPool:
    def test_pool_reused_across_sweeps(self, small_trace):
        shutdown_pool()
        run_sweep(small_trace, grid(2), workers=2)
        pool = sweep._POOL
        assert pool is not None
        run_sweep(small_trace, grid(4), workers=2)
        assert sweep._POOL is pool

    def test_pool_resized_on_new_worker_count(self, small_trace):
        run_sweep(small_trace, grid(2), workers=2)
        first = sweep._POOL
        run_sweep(small_trace, grid(3), workers=3)
        assert sweep._POOL is not first
        assert sweep._POOL_WORKERS == 3

    def test_failing_point_keeps_pool_warm(self, small_trace):
        """A ReproError from one point is not pool poison: the warm
        workers survive for the next sweep."""
        shutdown_pool()
        run_sweep(small_trace, grid(2), workers=2)
        pool = sweep._POOL
        # Eviction specs validate at construction time now; smuggle the
        # bad name in so the failure happens inside the worker.
        bad = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        object.__setattr__(bad, "eviction_policy", "bogus")
        with pytest.raises(ReproError):
            run_sweep_points(
                [
                    SweepPoint(config=bad, trace=small_trace),
                    SweepPoint(config=grid(1)[0], trace=small_trace),
                ],
                workers=2,
            )
        assert sweep._POOL is pool

    def test_discarded_pool_joined_before_next_pool(self, small_trace):
        """Discarding returns at once, but the next pool is created only
        after the discarded one has shut down: forking workers while the
        old pool's threads still run can deadlock them."""
        shutdown_pool()
        run_sweep(small_trace, grid(2), workers=2)
        busy = sweep._POOL.submit(time.sleep, 2)
        deadline = time.monotonic() + 30
        while not busy.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert busy.running()
        started = time.monotonic()
        sweep._discard_pool()
        assert time.monotonic() - started < 1
        assert not busy.done()
        try:
            pool, owned = sweep._acquire_pool(2, fresh=False)
            assert not owned and pool is sweep._POOL
            assert busy.done()
        finally:
            shutdown_pool()

    def test_fresh_pool_leaves_persistent_untouched(self, small_trace):
        shutdown_pool()
        results = run_sweep(small_trace, grid(2), workers=2, fresh_pool=True)
        assert len(results) == 2
        assert sweep._POOL is None

    def test_shutdown_pool_idempotent(self, small_trace):
        run_sweep(small_trace, grid(2), workers=2)
        shutdown_pool()
        assert sweep._POOL is None
        shutdown_pool()  # second call is a no-op
        # And the engine recovers: next sweep spawns a new pool.
        run_sweep(small_trace, grid(2), workers=2)
        assert sweep._POOL is not None

    def test_shutdown_pool_forks_nothing(self, small_trace):
        """Retiring a live pool starts no process: Python 3.12+ warns
        when a process forks while its pool's threads run."""
        shutdown_pool()
        run_sweep(small_trace, grid(2), workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shutdown_pool()
        forks = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, DeprecationWarning)
            and "fork" in str(warning.message)
        ]
        assert forks == []
