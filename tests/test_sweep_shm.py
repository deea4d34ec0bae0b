"""Lifecycle tests for the zero-copy shared-memory sweep fan-out.

Three properties are audited here, per ``repro.sweep``'s contract:

* **no leaked segments** — every ``repro-ct-*`` shared-memory segment a
  sweep publishes is unlinked on every exit path (normal completion, a
  failing point, a broken pool, Ctrl-C);
* **worker trace cache** — ``_WORKER_TRACE_CACHE`` is bounded, evicts
  oldest-first, and runs each evicted entry's cleanup (releasing buffer
  views before closing the mapping);
* **persistent pool** — the process-wide executor is reused across
  sweeps, resized on demand, bypassed by ``fresh_pool=True``, and
  retired idempotently by ``shutdown_pool()``.
"""

from __future__ import annotations

import os
import pickle
import re
import time
from pathlib import Path

import pytest

from repro import sweep
from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.errors import ReproError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.sweep import SweepPoint, run_sweep, run_sweep_points, shutdown_pool
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.compiled import CompiledTrace, compile_trace

from tests.helpers import make_trace, tiny_config

SHM_DIR = Path("/dev/shm")


def shm_names() -> set:
    """Names of the live ``repro-ct-*`` segments this process created.

    A sweep's parent process creates every segment, and each name
    carries its creator's pid (``sweep._shm_segment_name``:
    ``repro-ct-<tag>-<pid>-<n>``), so a replay running beside the test
    in another process cannot change the set, while every segment this
    test's own sweeps leak still shows.
    """
    if not SHM_DIR.is_dir():
        pytest.skip("no /dev/shm to audit")
    own = re.compile(r"repro-ct-[0-9a-f]+-%d-[0-9]+$" % os.getpid())
    return {entry.name for entry in SHM_DIR.glob("*repro-ct-*") if own.search(entry.name)}


needs_shm = pytest.mark.skipif(
    not sweep._shm_available(), reason="shared memory unavailable on this platform"
)


@pytest.fixture(scope="module")
def small_trace():
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
        working_set_bytes=4 * MB,
        seed=13,
    )
    return generate_trace(config)


def grid(n: int = 4):
    return [
        SimConfig(ram_bytes=1 * MB, flash_bytes=flash_mb * MB, architecture=arch)
        for arch in (Architecture.NAIVE, Architecture.UNIFIED)
        for flash_mb in (2, 4, 8)
    ][:n]


@needs_shm
class TestShmLifecycle:
    def test_normal_completion_leaks_nothing(self, small_trace):
        before = shm_names()
        results = run_sweep(small_trace, grid(), workers=2)
        assert len(results) == 4
        assert shm_names() == before

    def test_failing_point_leaks_nothing(self, small_trace):
        before = shm_names()
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
        assert shm_names() == before

    def test_interrupt_leaks_nothing(self, small_trace, monkeypatch):
        """Ctrl-C mid-drain: segments are unlinked before the interrupt
        propagates (the pool here is a stand-in whose map() raises, so
        the unwind path is exercised deterministically)."""
        import concurrent.futures as futures

        class InterruptedPool:
            def __init__(self, max_workers):
                pass

            def map(self, fn, tasks, chunksize=1):
                raise KeyboardInterrupt()

            def shutdown(self, wait=True):
                pass

        before = shm_names()
        monkeypatch.setattr(futures, "ProcessPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(small_trace, grid(), workers=2)
        assert shm_names() == before

    def test_broken_pool_discards_persistent_and_leaks_nothing(
        self, small_trace, monkeypatch
    ):
        """A worker crash surfaces as BrokenExecutor: the persistent pool
        must be discarded and every segment still unlinked."""
        import concurrent.futures as futures

        real_cls = futures.ProcessPoolExecutor
        # Seed a genuine persistent pool first.
        run_sweep(small_trace, grid(2), workers=2)
        assert sweep._POOL is not None

        crashed = futures.process.BrokenProcessPool("worker died")

        def exploding_map(self, fn, tasks, chunksize=1):
            raise crashed

        before = shm_names()
        monkeypatch.setattr(real_cls, "map", exploding_map)
        with pytest.raises(futures.process.BrokenProcessPool):
            run_sweep(small_trace, grid(), workers=2)
        assert sweep._POOL is None
        assert shm_names() == before

    def test_worker_attaches_zero_copy(self, small_trace):
        """Results through the shm fan-out match in-process replay."""
        parallel = run_sweep(small_trace, grid(), workers=2)
        serial = run_sweep(small_trace, grid(), workers=1)
        for a, b in zip(parallel, serial):
            assert a.as_dict() == b.as_dict()


class TestNoShmFallback:
    def test_env_disables_shm(self, small_trace, monkeypatch, tmp_path):
        import tempfile as _tempfile

        monkeypatch.setenv(sweep.NO_SHM_ENV, "1")
        monkeypatch.setattr(_tempfile, "tempdir", str(tmp_path))
        assert not sweep._shm_available()
        disabled = run_sweep(small_trace, grid(), workers=2)
        monkeypatch.delenv(sweep.NO_SHM_ENV)
        serial = run_sweep(small_trace, grid(), workers=1)
        for a, b in zip(disabled, serial):
            assert a.as_dict() == b.as_dict()
        # The disk spool the fallback used is removed with the sweep.
        strays = [
            entry
            for entry in tmp_path.iterdir()
            if entry.name.startswith("repro-sweep-")
        ]
        assert strays == []

    def test_zero_is_not_disabled(self, monkeypatch):
        monkeypatch.setenv(sweep.NO_SHM_ENV, "0")
        monkeypatch.setattr(sweep, "_shm_usable", True)
        assert sweep._shm_available()


class TestWorkerTraceCache:
    def test_eviction_is_oldest_first_and_runs_cleanup(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        cache = sweep._WORKER_TRACE_CACHE
        released = []
        for i in range(sweep._WORKER_TRACE_CACHE_MAX):
            cache[("path", "fake-%d" % i)] = (
                object(),
                (lambda i=i: released.append(i)),
            )
        trace = make_trace([("r", 0)], file_blocks=16)
        spool = tmp_path / "t.pkl"
        spool.write_bytes(pickle.dumps(trace))
        loaded = sweep._load_trace_ref(("path", str(spool)))
        assert loaded.records == trace.records
        assert released == [0]  # exactly the oldest entry, exactly once
        assert len(cache) == sweep._WORKER_TRACE_CACHE_MAX
        assert ("path", "fake-0") not in cache

    def test_repeat_ref_is_memoized(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        trace = make_trace([("w", 1)], file_blocks=16)
        spool = tmp_path / "t.pkl"
        spool.write_bytes(pickle.dumps(trace))
        first = sweep._load_trace_ref(("path", str(spool)))
        assert sweep._load_trace_ref(("path", str(spool))) is first

    @needs_shm
    def test_shm_ref_attach_and_drain(self, monkeypatch):
        from multiprocessing import shared_memory

        monkeypatch.setattr(sweep, "_WORKER_TRACE_CACHE", {})
        compiled = compile_trace(make_trace([("w", 0), ("r", 0)], file_blocks=16))
        payload = compiled.to_bytes()
        segment = shared_memory.SharedMemory(
            name=sweep._shm_segment_name("cachetest00"), create=True,
            size=len(payload),
        )
        try:
            segment.buf[: len(payload)] = payload
            ref = ("shm", segment.name, len(payload))
            attached = sweep._load_trace_ref(ref)
            assert isinstance(attached, CompiledTrace)
            assert attached.fingerprint == compiled.fingerprint
            assert sweep._load_trace_ref(ref) is attached
            # Draining releases the views, so closing cannot raise
            # BufferError and the segment can be unlinked cleanly.
            sweep._drain_worker_cache()
            assert sweep._WORKER_TRACE_CACHE == {}
        finally:
            segment.close()
            segment.unlink()

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


@needs_shm
class TestPoolTeardownDrain:
    """Recycling the pool must not leave worker-side shm attachments
    alive: workers exit via ``os._exit`` (no atexit), and an *idle*
    persistent pool would otherwise pin already-unlinked segments."""

    def test_teardown_drain_reaches_every_worker(self, small_trace):
        shutdown_pool()
        run_sweep(small_trace, grid(2), workers=2)
        pool = sweep._POOL
        assert pool is not None
        pairs = sweep._drain_pool_caches(pool, 2)
        # Both workers report, and at least one held a cached attachment.
        assert len(pairs) == 2
        assert len({pid for pid, _ in pairs}) == 2
        assert sum(count for _, count in pairs) >= 1
        # Second drain proves the caches are now empty (no re-leak).
        pairs = sweep._drain_pool_caches(pool, 2)
        assert [count for _, count in pairs] == [0, 0]
        shutdown_pool()

    def test_shutdown_pool_drains_caches(self, small_trace, monkeypatch):
        shutdown_pool()
        run_sweep(small_trace, grid(2), workers=2)
        calls = []
        real = sweep._drain_pool_caches
        monkeypatch.setattr(
            sweep,
            "_drain_pool_caches",
            lambda pool, n: calls.append(n) or real(pool, n),
        )
        shutdown_pool()
        assert calls == [2]

    def test_fresh_pool_disposal_drains_caches(self, small_trace, monkeypatch):
        calls = []
        real = sweep._drain_pool_caches
        monkeypatch.setattr(
            sweep,
            "_drain_pool_caches",
            lambda pool, n: calls.append(n) or real(pool, n),
        )
        run_sweep(small_trace, grid(2), workers=2, fresh_pool=True)
        assert calls == [2]

    def test_drain_skips_stand_in_pools(self):
        class StandIn:
            pass

        assert sweep._drain_pool_caches(StandIn(), 2) == []
