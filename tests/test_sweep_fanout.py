"""Lifecycle tests for the sweep fan-out's trace hand-off and pool.

Three properties are audited here, per ``repro.sweep``'s contract:

* **no leaked spools** — the temporary directory a sweep writes its
  compiled-trace files to is removed on every exit path (normal
  completion, a failing point, a broken pool, Ctrl-C), and nothing is
  written into the result cache but results;
* **worker trace cache** — ``_WORKER_TRACE_CACHE`` is bounded, evicts
  oldest-first, and runs each evicted entry's cleanup (releasing buffer
  views before closing the map);
* **a pool per call** — every sweep and parallel replay shuts its own
  pool down before it returns, on every exit path: no worker process
  or pool thread outlives the call, and no pool forks beside another
  pool's threads.
"""

from __future__ import annotations

import concurrent.futures as futures
import multiprocessing
import os
import pickle
import tempfile
import threading
import warnings

import pytest

from repro import sweep
from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.simulator import run_simulation
from repro.engine import parallel as par
from repro.errors import ReproError, TraceFormatError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.sweep import SweepPoint, run_sweep, run_sweep_points
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace, generate_trace_chunked
from repro.traces.records import Trace

from tests.helpers import every_field, make_trace, tiny_config


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


def failing_points(trace):
    """Two points, the first of which raises a ``ReproError`` in its
    worker (eviction specs validate at construction time now, so the
    bad name is smuggled in)."""
    bad = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
    object.__setattr__(bad, "eviction_policy", "bogus")
    return [
        SweepPoint(config=bad, trace=trace),
        SweepPoint(config=grid(1)[0], trace=trace),
    ]


def _die(task):
    """A sweep task that kills its worker process, as a crash would."""
    os._exit(1)


def sharded_replay():
    """A parallel replay that shards: four hosts that never share a
    block, two workers."""
    ops = [
        ("w" if i % 3 == 0 else "r", (i % 4) * 1000 + i % 500, i % 4)
        for i in range(2000)
    ]
    run_simulation(
        make_trace(ops, file_blocks=8192),
        tiny_config(),
        parallel_hosts=2,
        check_invariants=False,
    )
    outcome = par.last_outcome()
    assert outcome is not None and outcome.kind == "parallel" and outcome.groups == 2


class TestSpoolLifecycle:
    def test_normal_completion_leaks_nothing(self, small_trace, spools, tmp_path):
        results = run_sweep(small_trace, grid(), workers=2)
        assert len(results) == 4
        assert_spools_gone(spools, tmp_path)

    def test_failing_point_leaks_nothing(self, small_trace, spools, tmp_path):
        with pytest.raises(ReproError, match="eviction policy"):
            run_sweep_points(failing_points(small_trace), workers=2)
        assert_spools_gone(spools, tmp_path)

    def test_interrupt_leaks_nothing(self, small_trace, spools, tmp_path, monkeypatch):
        """Ctrl-C mid-drain: the spool is removed before the interrupt
        propagates (the pool here is a stand-in whose map() raises, so
        the unwind path is exercised deterministically)."""
        shipped = []

        class InterruptedPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, tasks, chunksize=1):
                shipped.extend(ref for _position, ref, _config, _options in tasks)
                assert all(os.path.isfile(ref) for ref in shipped)
                raise KeyboardInterrupt()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(futures, "ProcessPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(small_trace, grid(), workers=2)
        assert shipped and all(ref.endswith(sweep.CTRACE_SUFFIX) for ref in shipped)
        assert_spools_gone(spools, tmp_path)

    def test_broken_pool_discards_persistent_and_leaks_nothing(
        self, small_trace, spools, tmp_path, monkeypatch
    ):
        """A worker crash surfaces as BrokenProcessPool: the broken pool
        is shut down with the call and the spool still removed."""
        monkeypatch.setattr(sweep, "_run_point_task", _die)
        with pytest.raises(futures.process.BrokenProcessPool):
            run_sweep(small_trace, grid(), workers=2)
        assert multiprocessing.active_children() == []
        assert len(spools) == 1
        assert_spools_gone(spools, tmp_path)

    def test_worker_attaches_zero_copy(self, small_trace):
        """Results through the compiled-trace hand-off match in-process
        replay."""
        parallel = run_sweep(small_trace, grid(), workers=2)
        serial = run_sweep(small_trace, grid(), workers=1)
        for a, b in zip(parallel, serial):
            assert a.as_dict() == b.as_dict()

    def test_chunked_warmup_free_view_keeps_its_skip(self):
        """A chunked trace's ``without_warmup()`` view replays in a
        worker exactly as in-process: the worker reopens the spool with
        the view's skip, not the whole spool."""
        chunked = generate_trace_chunked(
            TraceGenConfig(
                fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
                working_set_bytes=4 * MB,
                seed=13,
                n_hosts=4,
            )
        ).without_warmup()
        points = [SweepPoint(config=config, trace=chunked) for config in grid(2)]
        parallel = run_sweep_points(points, workers=2)
        serial = run_sweep_points(points, workers=1)
        for a, b in zip(parallel.results, serial.results):
            assert every_field(a) == every_field(b)

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
        trace = make_trace([("w", 0), ("r", 0)], file_blocks=16)
        with sweep._trace_exports() as export:
            ref = export(trace)
            assert ref == os.path.join(spools[0], trace.fingerprint + ".ctrace")
            attached = sweep._load_trace_ref(ref)
        assert_spools_gone(spools, tmp_path)
        assert isinstance(attached, Trace)
        assert isinstance(attached.ops, memoryview)  # zero-copy
        assert attached.fingerprint == trace.fingerprint
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
        blob = make_trace([("w", 0), ("r", 0)], file_blocks=16).to_bytes()
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


def _sweep_returns(trace, monkeypatch):
    assert len(run_sweep(trace, grid(2), workers=2)) == 2


def _sweep_raises_a_point_error(trace, monkeypatch):
    with pytest.raises(ReproError):
        run_sweep_points(failing_points(trace), workers=2)


def _sweep_breaks_its_pool(trace, monkeypatch):
    monkeypatch.setattr(sweep, "_run_point_task", _die)
    with pytest.raises(futures.process.BrokenProcessPool):
        run_sweep(trace, grid(2), workers=2)


def _parallel_replay_returns(trace, monkeypatch):
    sharded_replay()


class TestPoolPerCall:
    @pytest.mark.parametrize(
        "call",
        [
            _sweep_returns,
            _sweep_raises_a_point_error,
            _sweep_breaks_its_pool,
            _parallel_replay_returns,
        ],
        ids=["sweep", "point-error", "broken-pool", "parallel-replay"],
    )
    def test_no_worker_or_pool_thread_outlives_the_call(
        self, small_trace, monkeypatch, call
    ):
        threads = threading.active_count()
        call(small_trace, monkeypatch)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_no_pool_forks_beside_another(self, small_trace):
        """Python 3.12+ warns when a process forks while other threads
        run: a pool per call, shut down before the call returns, never
        does (this only bites on 3.12+)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(small_trace, grid(2), workers=2)
            run_sweep(small_trace, grid(3), workers=3)
            sharded_replay()
        forks = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, DeprecationWarning)
            and "fork" in str(warning.message)
        ]
        assert forks == []
