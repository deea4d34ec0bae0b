"""Parallel sweep engine: run many independent simulation points at once.

The paper is a design-space study — 7x7 policy grids, size sweeps,
sensitivity scans — and every one of its figures is a *batch* of
independent ``(trace, config)`` simulation points.  This module turns
that batch into a first-class object:

* :func:`run_sweep` — the common case: one trace, many configurations::

      from repro import SimConfig, run_sweep
      results = run_sweep(trace, configs, workers=4)

* :func:`run_sweep_points` — the general engine: heterogeneous
  :class:`SweepPoint`\\ s (each with its own trace and per-run options
  such as ``cold_start`` or ``restart``), returning a
  :class:`SweepOutcome` with per-point wall-time reports.

**Execution model.**  Points fan out over a *persistent* process pool
(``concurrent.futures.ProcessPoolExecutor``) that survives across
sweeps: the first parallel sweep pays the worker spawn cost, later
sweeps reuse the warm workers (``fresh_pool=True`` opts a call out;
:func:`shutdown_pool` retires the pool explicitly).  Tasks are
spawn-safe: what crosses the process boundary is a *picklable*
``SimConfig`` plus a **trace reference**, never a live simulator
object.  In-memory traces are compiled to the packed columnar form
(:mod:`repro.traces.compiled`) and published once per unique trace in
POSIX shared memory, where every worker attaches *zero-copy* — no
per-worker pickle, no disk round-trip; the parent unlinks each segment
when the sweep finishes (error and Ctrl-C included), and the kernel
frees the pages once the last worker detaches.  When shared memory is
unavailable (``REPRO_SWEEP_NO_SHM=1``, exotic platforms), traces spool
to disk exactly as before.  Workers memoize attached/loaded traces
per reference.  Every simulation point is fully deterministic given
its inputs (per-run seeds live in ``SimConfig`` / the trace), so
parallel and serial execution produce bit-identical results; outputs
are merged back in submission order.

Execution falls back to in-process serial replay when ``workers <= 1``,
when there is at most one uncached point, or when the platform cannot
provide a process pool at all.

**Result caching.**  With ``cache_dir`` set (or the
``REPRO_SWEEP_CACHE`` environment variable), each point's
:class:`~repro.core.results.SimulationResults` is memoized on disk
under a content fingerprint of ``(trace, config, per-run options)``
salted with a digest of the package's sources and result fields, so
results of older code are never served.  A repeated sweep — the normal
workflow while iterating on an experiment's reporting — touches zero
simulations.

**Progress.**  ``progress`` receives one :class:`PointReport` per
finished point (cache hits included), carrying the point's label,
wall-clock seconds, simulated nanoseconds, and whether it was served
from cache.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import hashlib
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import SimConfig
from repro.core.restart import RestartSpec
from repro.core.results import SimulationResults
from repro.core.simulator import run_simulation
from repro.errors import ConfigError
from repro.traces.chunked import ChunkedCompiledTrace
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.records import Trace

__all__ = [
    "SweepPoint",
    "PointReport",
    "SweepOutcome",
    "run_sweep",
    "run_sweep_points",
    "shutdown_pool",
    "default_workers",
    "set_default_workers",
    "default_cache_dir",
    "set_default_cache_dir",
]

TraceLike = Union[Trace, CompiledTrace, ChunkedCompiledTrace, str, Path]

#: A picklable handle a worker resolves to a trace: ``("path", path)``
#: for an on-disk trace (text/binary/pickle spool, or a chunked-trace
#: spool *directory* workers reopen with bounded memory) or
#: ``("shm", segment_name, payload_bytes)`` for a compiled trace
#: published in POSIX shared memory.
TraceRef = Tuple

#: Environment knobs (both overridable per call and via the setters).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
CACHE_ENV = "REPRO_SWEEP_CACHE"
#: Set (to anything but ``0``) to disable the shared-memory fan-out and
#: always spool traces to disk.
NO_SHM_ENV = "REPRO_SWEEP_NO_SHM"

_default_workers: Optional[int] = None
_default_cache_dir: Optional[Path] = None


# --------------------------------------------------------------------------
# Public data types
# --------------------------------------------------------------------------


@dataclass
class SweepPoint:
    """One independent simulation point of a sweep.

    ``trace`` may be an in-memory :class:`Trace`, a pre-compiled
    :class:`~repro.traces.compiled.CompiledTrace`, a bounded-memory
    :class:`~repro.traces.chunked.ChunkedCompiledTrace`, or a path to a
    saved trace file (text, binary, pickle spool, or a chunked-spool
    directory).  The remaining fields mirror
    :func:`repro.run_simulation`'s keyword-only options.
    """

    config: SimConfig
    trace: TraceLike
    n_hosts: Optional[int] = None
    cold_start: bool = False
    restart: Optional[RestartSpec] = None
    timeline_bucket_ns: Optional[int] = None
    #: free-form tag carried into this point's :class:`PointReport`
    label: str = ""

    def run_options(self) -> Dict[str, object]:
        """The non-default per-run keyword options of this point."""
        options: Dict[str, object] = {}
        if self.n_hosts is not None:
            options["n_hosts"] = self.n_hosts
        if self.cold_start:
            options["cold_start"] = True
        if self.restart is not None:
            options["restart"] = self.restart
        if self.timeline_bucket_ns is not None:
            options["timeline_bucket_ns"] = self.timeline_bucket_ns
        return options


@dataclass(frozen=True)
class PointReport:
    """Per-point execution metrics, delivered to ``progress`` callbacks."""

    #: submission-order index of the point
    index: int
    #: points finished so far (including this one) / total points
    completed: int
    total: int
    #: the point's ``label`` (or the config description when unset)
    label: str
    #: True when the result came from the on-disk cache
    cached: bool
    #: wall-clock seconds spent simulating (0.0 for cache hits)
    wall_seconds: float
    #: simulated nanoseconds covered by the run
    simulated_ns: int
    #: observability counters snapshot (per-event-kind counts) when the
    #: point ran with ``SimConfig.trace_events``; None otherwise
    counters: Optional[Dict[str, int]] = None


@dataclass
class SweepOutcome:
    """Everything a sweep produced: results plus per-point reports.

    ``results`` and ``reports`` are both in submission order, so
    ``zip(points, outcome.results)`` pairs every point with its result
    regardless of the order points finished in.
    """

    results: List[SimulationResults] = field(default_factory=list)
    reports: List[PointReport] = field(default_factory=list)

    @property
    def cached_points(self) -> int:
        return sum(1 for report in self.reports if report.cached)

    @property
    def simulated_points(self) -> int:
        return sum(1 for report in self.reports if not report.cached)

    @property
    def wall_seconds(self) -> float:
        """Total simulation wall-time across points (sum, not elapsed)."""
        return sum(report.wall_seconds for report in self.reports)


# --------------------------------------------------------------------------
# Defaults (wired to the CLI's --workers/--cache flags)
# --------------------------------------------------------------------------


def default_workers() -> int:
    """The worker count used when ``workers=None``: the value set via
    :func:`set_default_workers`, else ``REPRO_SWEEP_WORKERS``, else 1
    (serial)."""
    if _default_workers is not None:
        return _default_workers
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return _normalize_workers(int(env))
        except ValueError:
            raise ConfigError("%s must be an integer, got %r" % (WORKERS_ENV, env))
    return 1


def set_default_workers(workers: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` resets)."""
    global _default_workers
    _default_workers = None if workers is None else _normalize_workers(workers)


def default_cache_dir() -> Optional[Path]:
    """The cache directory used when ``cache_dir=None``: the value set
    via :func:`set_default_cache_dir`, else ``REPRO_SWEEP_CACHE``, else
    no caching."""
    if _default_cache_dir is not None:
        return _default_cache_dir
    env = os.environ.get(CACHE_ENV, "").strip()
    return Path(env) if env else None


def set_default_cache_dir(cache_dir: Union[None, str, Path]) -> None:
    """Set the process-wide default result cache directory (``None``
    resets to the environment/default behavior)."""
    global _default_cache_dir
    _default_cache_dir = None if cache_dir is None else Path(cache_dir)


def _normalize_workers(workers: int) -> int:
    """0 means "all cores"; negative counts are a configuration error."""
    if workers < 0:
        raise ConfigError("workers must be >= 0, got %d" % workers)
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# --------------------------------------------------------------------------
# Fingerprinting
# --------------------------------------------------------------------------


def trace_fingerprint(trace: Union[Trace, CompiledTrace, ChunkedCompiledTrace]) -> str:
    """A stable content hash of a trace (records, geometry, warmup).

    Computed over the packed columnar form's flat buffers — a handful
    of digest updates instead of a per-record ``struct.pack`` loop —
    and memoized on the trace object: experiment sweeps reuse one trace
    across dozens of points, and hashing a large trace repeatedly would
    rival the simulation cost.  The compiled form this builds is itself
    memoized, so fingerprinting a trace that is about to fan out is
    free work, not extra work.
    """
    if isinstance(trace, (CompiledTrace, ChunkedCompiledTrace)):
        return trace.fingerprint
    cached = trace.__dict__.get("_sweep_fingerprint")
    if cached is not None:
        return cached
    fingerprint = compile_trace(trace).fingerprint
    trace.__dict__["_sweep_fingerprint"] = fingerprint
    return fingerprint


def _code_digest(root: Path, result_fields: Sequence[str]) -> str:
    """Digest of every module under ``root`` and of the result field
    names."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    digest.update("\0".join(result_fields).encode("utf-8"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _code_salt() -> str:
    """:func:`_code_digest` of this ``repro`` package and of
    :class:`SimulationResults`, computed once per process."""
    return _code_digest(
        Path(__file__).resolve().parent,
        [f.name for f in fields(SimulationResults)],
    )


def _point_fingerprint(trace_print: str, point: SweepPoint) -> str:
    """Cache key of one point: trace content + config + run options.

    The config and options are hashed through their pickle serialization
    — deterministic for the frozen dataclasses involved — and salted
    with :func:`_code_salt`, so a change to any simulator module or to
    the result fields gives every point a new key: a warm cache never
    serves results computed by other code.
    """
    payload = pickle.dumps(
        (_code_salt(), trace_print, point.config, sorted(point.run_options().items())),
        protocol=4,
    )
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

#: Per-worker memo of resolved traces, keyed by :data:`TraceRef`.  Each
#: entry is ``(trace, cleanup)`` where ``cleanup`` (may be ``None``)
#: detaches shared-memory resources when the entry is evicted.  Sweeps
#: ship at most a handful of distinct traces, so a tiny cap suffices;
#: insertion order doubles as age, and the oldest entry is evicted —
#: with its cleanup run — when the cap is hit.
_WORKER_TRACE_CACHE: Dict[TraceRef, Tuple[object, Optional[Callable[[], None]]]] = {}
_WORKER_TRACE_CACHE_MAX = 8


def _load_trace_path(path: str):
    """Load one trace file (pickle spool, chunked spool dir, or text)."""
    if os.path.isdir(path):
        # A chunked-trace spool directory: reopen with bounded memory
        # instead of materializing the records.
        return ChunkedCompiledTrace.open(path)
    if path.endswith(".pkl"):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    from repro.traces.format import load_trace

    return load_trace(path)


def _attach_shm_trace(name: str, nbytes: int):
    """Attach a compiled trace published in shared memory, zero-copy.

    Returns ``(trace, cleanup)``; ``cleanup`` releases the trace's
    buffer views *before* closing the mapping (closing first would
    raise ``BufferError`` — memoryviews pin the mmap).

    On 3.13+ the attach passes ``track=False``: the sweep parent owns
    the segment's lifetime.  Before 3.13 attaching registers with the
    resource tracker unconditionally — but workers share the parent's
    tracker process (its fd is inherited through the pool machinery),
    so the registration collapses into the parent's own and the
    parent's ``unlink()`` retires it exactly once.  Explicitly
    unregistering here would strip that shared entry early and break
    the tracker's leaked-segment safety net.
    """
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        segment = shared_memory.SharedMemory(name=name)
    try:
        # The segment may be rounded up to a page multiple; the payload
        # length travels in the ref.
        view = memoryview(segment.buf)[:nbytes]
        trace = CompiledTrace.from_buffer(view)
    except BaseException:
        segment.close()
        raise

    def cleanup(trace=trace, view=view, segment=segment):
        trace.release()
        view.release()
        segment.close()

    return trace, cleanup


def _memoized_trace(key, load: Callable[[], Tuple[object, Optional[Callable[[], None]]]]):
    """The trace cached under ``key`` in this worker, or ``load()``'s
    ``(trace, cleanup)`` cached there first — evicting the oldest
    entries, with their cleanup, to stay under the cap."""
    entry = _WORKER_TRACE_CACHE.get(key)
    if entry is not None:
        return entry[0]
    trace, cleanup = load()
    while len(_WORKER_TRACE_CACHE) >= _WORKER_TRACE_CACHE_MAX:
        oldest = next(iter(_WORKER_TRACE_CACHE))
        _, old_cleanup = _WORKER_TRACE_CACHE.pop(oldest)
        if old_cleanup is not None:
            old_cleanup()
    _WORKER_TRACE_CACHE[key] = (trace, cleanup)
    return trace


def _load_trace_ref(ref: TraceRef):
    """Resolve a trace reference, memoized per worker process."""

    def load():
        if ref[0] == "shm":
            return _attach_shm_trace(ref[1], ref[2])
        trace = _load_trace_path(ref[1])
        # Eviction must release a chunked spool's row-file handle.
        return trace, trace.close if isinstance(trace, ChunkedCompiledTrace) else None

    return _memoized_trace(ref, load)


def _drain_worker_cache() -> int:
    """Release every cached trace attachment; returns how many entries
    were evicted.

    Without this, interpreter teardown reaches ``SharedMemory.__del__``
    while the trace's memoryviews are still alive and ``close`` raises
    ``BufferError: cannot close exported pointers exist``.  Registered
    via ``atexit`` (module import happens in every worker), harmless in
    processes that never resolved a trace ref.
    """
    drained = 0
    while _WORKER_TRACE_CACHE:
        _ref, (_trace, cleanup) = _WORKER_TRACE_CACHE.popitem()
        drained += 1
        if cleanup is not None:
            try:
                cleanup()
            except BufferError:  # pragma: no cover - defensive
                pass
    return drained


atexit.register(_drain_worker_cache)


def _drain_at_barrier(barrier) -> Tuple[int, int]:
    """Pool task: drain this worker's trace cache, then rendezvous.

    The barrier forces each of the pool's workers to claim exactly one
    of the ``n_workers`` copies of this task — a worker that finished
    its drain cannot grab a second copy until every other worker has
    arrived — so a broadcast of ``n_workers`` tasks provably reaches
    every worker.  Returns ``(pid, evicted_count)``.
    """
    drained = _drain_worker_cache()
    try:
        barrier.wait(timeout=30)
    except Exception:  # pragma: no cover - a peer died; drain still done
        pass
    return os.getpid(), drained


def _drain_pool_caches(pool, n_workers: int) -> List[Tuple[int, int]]:
    """Broadcast a cache drain to every worker of a live pool.

    Worker processes exit via ``os._exit`` when their pool is shut
    down, skipping ``atexit`` — so an idle persistent pool would keep
    already-unlinked shared-memory segments mapped (and spool file
    handles open) until interpreter exit.  Called from the pool
    teardown paths; returns the per-worker ``(pid, evicted)`` pairs, or
    ``[]`` when the pool is a stand-in or the platform can't provide
    the rendezvous barrier.
    """
    if not hasattr(pool, "_processes") or n_workers < 1:
        return []  # a test stand-in, not a real worker pool
    try:
        manager = multiprocessing.Manager()
    except Exception:  # pragma: no cover - no fork/spawn available
        return []
    try:
        barrier = manager.Barrier(n_workers)
        futures = [
            pool.submit(_drain_at_barrier, barrier) for _ in range(n_workers)
        ]
        return [future.result(timeout=30) for future in futures]
    except Exception:  # pragma: no cover - defensive: teardown must not fail
        return []
    finally:
        manager.shutdown()


def _run_point_task(
    task: Tuple[int, TraceRef, SimConfig, Tuple[Tuple[str, object], ...]],
) -> Tuple[int, SimulationResults, float]:
    """Execute one fanned-out point (the function a pool worker runs)."""
    index, ref, config, options = task
    trace = _load_trace_ref(ref)
    started = time.perf_counter()
    results = run_simulation(trace, config, **dict(options))
    return index, results, time.perf_counter() - started


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


ProgressFn = Callable[[PointReport], None]


def run_sweep_points(
    points: Sequence[SweepPoint],
    *,
    workers: Optional[int] = None,
    cache_dir: Union[None, str, Path] = None,
    progress: Optional[ProgressFn] = None,
    fresh_pool: bool = False,
) -> SweepOutcome:
    """Run a batch of heterogeneous sweep points; see the module docs.

    Returns a :class:`SweepOutcome` whose ``results`` are in submission
    order and identical to running each point serially.

    ``fresh_pool=True`` opts this call out of the persistent worker
    pool: a private pool is spawned, used, and shut down — useful for
    isolation (benchmarking cold-start costs, tests that must not leak
    workers) at the price of re-paying worker startup.
    """
    points = list(points)
    n_workers = _normalize_workers(workers) if workers is not None else default_workers()
    cache_path = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if cache_path is not None and cache_path.exists() and not cache_path.is_dir():
        raise ConfigError("cache path %s exists and is not a directory" % cache_path)
    if cache_path is not None and cache_path.is_dir():
        # Orphaned write-then-rename temporaries from sweeps that were
        # killed mid-write accumulate forever otherwise.
        _sweep_stale_tmp(cache_path)
        _sweep_stale_tmp(cache_path / "traces")

    results: List[Optional[SimulationResults]] = [None] * len(points)
    reports: List[Optional[PointReport]] = [None] * len(points)
    completed = 0
    warned: Dict[str, bool] = {}

    def warn_once(topic: str, message: str) -> None:
        if topic not in warned:
            warned[topic] = True
            warnings.warn(message, RuntimeWarning, stacklevel=3)

    def finish(
        index: int, result: SimulationResults, cached: bool, wall: float
    ) -> None:
        nonlocal completed
        completed += 1
        report = PointReport(
            index=index,
            completed=completed,
            total=len(points),
            label=points[index].label or result.config_description,
            cached=cached,
            wall_seconds=wall,
            simulated_ns=result.simulated_ns,
            counters=result.obs_counters,
        )
        results[index] = result
        reports[index] = report
        if progress is not None:
            # A broken observer must not abort the sweep (or orphan the
            # pool mid-drain): the simulation work is already done.
            try:
                progress(report)
            except Exception as exc:
                warn_once(
                    "progress",
                    "sweep progress callback raised %s: %s "
                    "(the sweep continues; further callback errors are "
                    "suppressed from warnings)" % (type(exc).__name__, exc),
                )

    # --- serve what the cache already has -----------------------------
    pending: List[Tuple[int, str]] = []  # (index, cache key)
    for index, point in enumerate(points):
        key = ""
        if cache_path is not None:
            trace_print = (
                trace_fingerprint(point.trace)
                if isinstance(
                    point.trace, (Trace, CompiledTrace, ChunkedCompiledTrace)
                )
                else _file_fingerprint(Path(point.trace))
            )
            key = _point_fingerprint(trace_print, point)
            cached_result = _cache_load(cache_path, key)
            if cached_result is not None:
                finish(index, cached_result, cached=True, wall=0.0)
                continue
        pending.append((index, key))

    # --- execute the misses -------------------------------------------
    if pending:
        if n_workers > 1 and len(pending) > 1:
            executed = _execute_parallel(
                points, pending, n_workers, cache_path, fresh_pool
            )
        else:
            executed = _execute_serial(points, pending)
        for (index, key), (result, wall) in zip(pending, executed):
            if cache_path is not None:
                # Caching is an optimization: a full disk or unwritable
                # cache directory must not discard finished simulations.
                try:
                    _cache_store(cache_path, key, result)
                except (OSError, pickle.PicklingError) as exc:
                    warn_once(
                        "cache",
                        "sweep result cache write to %s failed (%s: %s); "
                        "caching disabled for the rest of this sweep"
                        % (cache_path, type(exc).__name__, exc),
                    )
                    cache_path = None
            finish(index, result, cached=False, wall=wall)

    return SweepOutcome(results=list(results), reports=list(reports))


def run_sweep(
    trace: TraceLike,
    configs: Sequence[SimConfig],
    *,
    workers: Optional[int] = None,
    cache_dir: Union[None, str, Path] = None,
    progress: Optional[ProgressFn] = None,
    fresh_pool: bool = False,
) -> List[SimulationResults]:
    """Replay ``trace`` under every config, fanning out across cores.

    The batch counterpart of :func:`repro.run_simulation`: results come
    back in ``configs`` order and are bit-identical to a serial loop —
    each point's determinism lives in its own per-run RNG streams, so
    execution order cannot leak between points.

    ``workers``: process count (``None`` = the module default, normally
    1 = in-process; ``0`` = all cores).  ``cache_dir`` memoizes results
    on disk keyed by ``(trace, config, options)`` content.  ``progress``
    receives a :class:`PointReport` per finished point.
    ``fresh_pool=True`` bypasses the persistent worker pool (see
    :func:`run_sweep_points`).
    """
    outcome = run_sweep_points(
        [SweepPoint(config=config, trace=trace) for config in configs],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        fresh_pool=fresh_pool,
    )
    return outcome.results


def policy_grid(
    base: SimConfig,
    *,
    flash_admission: Sequence = ("always",),
    flash_cleaning: Sequence = ("periodic",),
) -> List[Tuple[str, str, SimConfig]]:
    """Expand a base config over the admission x cleaning policy matrix.

    Each axis takes :mod:`repro.policies` spec strings or policy
    instances; the result is ``(admission_label, cleaning_label,
    config)`` rows in row-major order, ready for :func:`run_sweep`::

        grid = policy_grid(base, flash_admission=["always", "probationary:2"],
                           flash_cleaning=["periodic", "acp:0.5"])
        results = run_sweep(trace, [config for _, _, config in grid])
    """
    from repro import policies as policy_registry

    rows: List[Tuple[str, str, SimConfig]] = []
    for admission in flash_admission:
        admission = policy_registry.resolve("admission", admission)
        for cleaning in flash_cleaning:
            cleaning = policy_registry.resolve("cleaning", cleaning)
            config = base.with_policies(
                flash_admission=admission, flash_cleaning=cleaning
            )
            rows.append((admission.label, cleaning.label, config))
    return rows


def _execute_serial(
    points: Sequence[SweepPoint], pending: Sequence[Tuple[int, str]]
) -> List[Tuple[SimulationResults, float]]:
    """In-process execution: the fallback and the ``workers<=1`` path."""
    executed: List[Tuple[SimulationResults, float]] = []
    for index, _key in pending:
        point = points[index]
        trace = point.trace
        if not isinstance(trace, (Trace, CompiledTrace, ChunkedCompiledTrace)):
            trace = _load_trace_ref(("path", str(trace)))
        started = time.perf_counter()
        result = run_simulation(trace, point.config, **point.run_options())
        executed.append((result, time.perf_counter() - started))
    return executed


# --------------------------------------------------------------------------
# The persistent worker pool
# --------------------------------------------------------------------------

_POOL = None
_POOL_WORKERS = 0
#: Helper threads shutting down discarded pools (see _discard_pool).
_RETIRING: List[threading.Thread] = []
#: Exception types meaning "the platform cannot give us a pool".
_POOL_UNAVAILABLE = (OSError, ValueError, NotImplementedError)


def _real_executor_type():
    """The genuine executor class (module attribute looked up at call
    time, so test monkeypatching is honored)."""
    import concurrent.futures as futures

    return futures.ProcessPoolExecutor


def _acquire_pool(n_workers: int, fresh: bool):
    """Get a process pool: ``(pool, owned)`` or ``(None, True)`` when
    the platform can't provide one.

    ``owned=True`` means the caller must dispose of the pool after the
    sweep (a ``fresh_pool`` request, or a stand-in class injected by
    tests that must never be cached).  ``owned=False`` is the
    persistent pool, reused by later sweeps.
    """
    global _POOL, _POOL_WORKERS
    cls = _real_executor_type()
    if not fresh and _POOL is not None:
        if type(_POOL) is cls and _POOL_WORKERS == n_workers:
            return _POOL, False
        # Different size requested, or the cached pool's class is no
        # longer the live executor class: retire it.
        _discard_pool()
    # Every discarded pool must be gone before a new one forks workers.
    while _RETIRING:
        _RETIRING.pop().join()
    try:
        pool = cls(max_workers=n_workers)
    except _POOL_UNAVAILABLE:
        return None, True
    if fresh:
        return pool, True
    if type(pool) is cls and cls.__module__.startswith("concurrent.futures"):
        _POOL, _POOL_WORKERS = pool, n_workers
        return pool, False
    # A monkeypatched stand-in: usable for this sweep, never cached.
    return pool, True


def _discard_pool() -> None:
    """Drop the persistent pool (broken/obsolete) without waiting for it.

    The pool shuts down on a helper thread, so an interrupt unwinds at
    once; :func:`_acquire_pool` joins that thread before it creates any
    pool, because forking workers while the old pool's threads still
    run can deadlock them.
    """
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is None:
        return
    retiring = threading.Thread(
        target=pool.shutdown,
        kwargs={"wait": True, "cancel_futures": True},
        name="repro-pool-discard",
    )
    retiring.start()
    _RETIRING.append(retiring)


def shutdown_pool() -> None:
    """Retire the persistent worker pool (idempotent).

    Waits for in-flight work, releases the worker processes and
    whatever they hold (cached trace attachments included).  The next
    parallel sweep simply spawns a new pool.  Registered via ``atexit``
    so interpreter shutdown is always clean.
    """
    global _POOL, _POOL_WORKERS
    pool, workers, _POOL, _POOL_WORKERS = _POOL, _POOL_WORKERS, None, 0
    if pool is None:
        return
    # Workers exit via os._exit (no atexit), so evict their cached
    # trace attachments explicitly before releasing the processes.
    _drain_pool_caches(pool, workers)
    try:
        pool.shutdown(wait=True)
    except Exception:  # pragma: no cover - defensive: exit must not fail
        pass


atexit.register(shutdown_pool)


def _dispose_owned_pool(pool) -> None:
    """Shut down a single-sweep pool; tolerate minimal stand-ins."""
    workers = getattr(pool, "_max_workers", 0)
    if workers:
        _drain_pool_caches(pool, workers)
    shutdown = getattr(pool, "shutdown", None)
    if shutdown is None:
        return
    try:
        shutdown(wait=True)
    except Exception:
        pass


def _pool_is_poisoned(exc: BaseException) -> bool:
    """Did this failure kill the pool (vs. a point merely raising)?

    A simulation error (``ReproError`` & friends) travels back pickled
    and leaves the workers perfectly reusable; a ``BrokenExecutor`` or
    an interrupt means the pool must not be reused.
    """
    if not isinstance(exc, Exception):
        return True  # KeyboardInterrupt, SystemExit, ...
    try:
        from concurrent.futures import BrokenExecutor
    except ImportError:  # pragma: no cover - ancient platforms
        return False
    return isinstance(exc, BrokenExecutor)


@contextlib.contextmanager
def _pool_session(pool, owned: bool):
    """Run work on ``pool``: a failure that kills it discards the
    persistent pool, and an owned pool is disposed of on every exit
    path."""
    try:
        yield pool
    except BaseException as exc:
        if not owned and _pool_is_poisoned(exc):
            _discard_pool()
        raise
    finally:
        if owned:
            _dispose_owned_pool(pool)


@contextlib.contextmanager
def _trace_exports(cache_path: Optional[Path]):
    """Yield ``export(trace) -> TraceRef`` for traces bound for pool
    workers.

    In-memory traces are published once per distinct content in shared
    memory (workers attach zero-copy), or spooled to disk where shared
    memory is unusable; the segments are closed and unlinked, and a
    spool directory made here removed, on *every* exit path — normal
    completion, a failing point, Ctrl-C — so nothing outlives the
    fan-out.
    """
    refs: Dict[str, TraceRef] = {}
    segments: List = []
    spool_state: List = [None, False]  # lazily created spool directory
    try:
        yield lambda trace: _trace_ref(trace, refs, segments, spool_state, cache_path)
    finally:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        spool_dir, created_spool = spool_state
        if created_spool and spool_dir is not None:
            import shutil

            shutil.rmtree(spool_dir, ignore_errors=True)


def _execute_parallel(
    points: Sequence[SweepPoint],
    pending: Sequence[Tuple[int, str]],
    n_workers: int,
    cache_path: Optional[Path],
    fresh_pool: bool,
) -> List[Tuple[SimulationResults, float]]:
    """Fan pending points over a process pool; fall back to serial when
    the platform can't give us one (no fork/spawn, sandboxed, ...).
    Traces travel through :func:`_trace_exports`."""
    with _trace_exports(cache_path) as export:
        tasks = []
        for position, (index, _key) in enumerate(pending):
            point = points[index]
            tasks.append(
                (
                    position,
                    export(point.trace),
                    point.config,
                    tuple(sorted(point.run_options().items())),
                )
            )
        pool, owned = _acquire_pool(n_workers, fresh_pool)
        if pool is None:
            return _execute_serial(points, pending)
        executed: List[Optional[Tuple[SimulationResults, float]]] = [None] * len(
            pending
        )
        with _pool_session(pool, owned):
            for position, result, wall in pool.map(
                _run_point_task, tasks, chunksize=_chunksize(len(pending), n_workers)
            ):
                executed[position] = (result, wall)
    missing = [pending[i][0] for i, entry in enumerate(executed) if entry is None]
    if missing:
        # Silently dropping a slot would misalign the caller's
        # zip(pending, executed) and cache results under wrong keys.
        raise RuntimeError(
            "process pool returned no result for sweep point(s) %s" % missing
        )
    return executed  # type: ignore[return-value]


def _chunksize(n_tasks: int, n_workers: int) -> int:
    """Batch tasks to amortize IPC without starving the pool's tail."""
    return max(1, n_tasks // (n_workers * 4))


# --------------------------------------------------------------------------
# Shared-memory fan-out
# --------------------------------------------------------------------------

_shm_usable: Optional[bool] = None
_shm_counter = 0


def _shm_available() -> bool:
    """Is the zero-copy shared-memory fan-out usable here?

    ``REPRO_SWEEP_NO_SHM`` force-disables it (checked every call so
    tests can flip it); the platform probe — create, attach by name,
    destroy a tiny segment — runs once per process.
    """
    if os.environ.get(NO_SHM_ENV, "").strip() not in ("", "0"):
        return False
    global _shm_usable
    if _shm_usable is None:
        _shm_usable = _probe_shm()
    return _shm_usable


def _probe_shm() -> bool:
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(
            name=_shm_segment_name("0" * 12), create=True, size=16
        )
        try:
            segment.buf[:4] = b"ping"
            try:
                peer = shared_memory.SharedMemory(name=segment.name, track=False)
            except TypeError:  # Python < 3.13
                peer = shared_memory.SharedMemory(name=segment.name)
            ok = bytes(peer.buf[:4]) == b"ping"
            peer.close()
            return ok
        finally:
            segment.close()
            segment.unlink()
    except Exception:
        return False


def _shm_segment_name(tag: str) -> str:
    """A collision-free segment name: content tag + pid + counter.

    The pid/counter keep concurrent sweeps (and repeated sweeps of the
    same trace in one process) from colliding; the leading ``repro-ct-``
    prefix makes leak audits a name scan.
    """
    global _shm_counter
    _shm_counter += 1
    return "repro-ct-%s-%d-%d" % (tag, os.getpid(), _shm_counter)


def _shm_export(trace: Union[Trace, CompiledTrace], segments: List) -> Optional[TraceRef]:
    """Publish a trace's compiled wire image in a shared-memory segment.

    Appends the created segment to ``segments`` (the caller's cleanup
    list) and returns its ref, or ``None`` when the export fails and
    the caller should spool to disk instead.
    """
    from multiprocessing import shared_memory

    compiled = trace if isinstance(trace, CompiledTrace) else compile_trace(trace)
    payload = compiled.to_bytes()
    name = _shm_segment_name(compiled.fingerprint[:12])
    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=len(payload))
    except OSError:
        return None
    segments.append(segment)
    segment.buf[: len(payload)] = payload
    return ("shm", segment.name, len(payload))


def _trace_ref(
    trace: TraceLike,
    refs: Dict[str, TraceRef],
    segments: List,
    spool_state: List,
    cache_path: Optional[Path],
) -> TraceRef:
    """The reference workers will resolve for this point's trace.

    In-memory traces are exported to shared memory once per distinct
    content fingerprint (``refs`` is the per-sweep dedupe table) with a
    disk spool as fallback; path traces pass through untouched.  A
    chunked trace is already on disk — workers reopen its spool
    directory directly, so no export happens and each worker's replay
    stays bounded by its chunk window.
    """
    if isinstance(trace, ChunkedCompiledTrace):
        return ("path", str(trace.spool_dir))
    if not isinstance(trace, (Trace, CompiledTrace)):
        return ("path", str(trace))
    fingerprint = trace_fingerprint(trace)
    ref = refs.get(fingerprint)
    if ref is None:
        ref = _shm_export(trace, segments) if _shm_available() else None
        if ref is None:
            if spool_state[0] is None:
                spool_state[0], spool_state[1] = _spool_directory(cache_path)
            ref = ("path", _spool_trace(trace, spool_state[0]))
        refs[fingerprint] = ref
    return ref


# --------------------------------------------------------------------------
# Trace spooling (what actually crosses the process boundary is a path)
# --------------------------------------------------------------------------


def _spool_directory(cache_path: Optional[Path]) -> Tuple[Path, bool]:
    """Where to spool in-memory traces: inside the result cache when one
    is configured (so spools are reused across runs), else a fresh
    temporary directory removed after the sweep."""
    if cache_path is not None:
        spool = cache_path / "traces"
        spool.mkdir(parents=True, exist_ok=True)
        return spool, False
    return Path(tempfile.mkdtemp(prefix="repro-sweep-")), True


def _spool_trace(trace: TraceLike, spool_dir: Path) -> str:
    """Materialize a trace as a file and return its path.

    Pickle is used rather than the text/binary trace formats because the
    spool must be a *lossless* image of the in-memory object — bit-equal
    parallel/serial results depend on workers replaying exactly what the
    caller built.  (Compiled traces pickle via their wire format, which
    round-trips exactly.)
    """
    if not isinstance(trace, (Trace, CompiledTrace)):
        return str(trace)
    path = spool_dir / ("%s.pkl" % trace_fingerprint(trace))
    if not path.exists():
        _atomic_write(path, pickle.dumps(trace, protocol=4))
    return str(path)


# --------------------------------------------------------------------------
# On-disk result cache
# --------------------------------------------------------------------------


def _cache_entry(cache_path: Path, key: str) -> Path:
    return cache_path / ("%s.result.pkl" % key)


def _cache_load(cache_path: Path, key: str) -> Optional[SimulationResults]:
    entry = _cache_entry(cache_path, key)
    try:
        with open(entry, "rb") as handle:
            return pickle.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, pickle.PickleError, EOFError, AttributeError):
        # A torn or stale entry is a miss, not an error.
        return None


def _cache_store(cache_path: Path, key: str, result: SimulationResults) -> None:
    cache_path.mkdir(parents=True, exist_ok=True)
    _atomic_write(_cache_entry(cache_path, key), pickle.dumps(result, protocol=4))


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write-then-rename so concurrent sweeps never see torn entries."""
    handle = tempfile.NamedTemporaryFile(
        dir=str(path.parent), prefix=path.name, suffix=".tmp", delete=False
    )
    try:
        handle.write(payload)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


#: Grace period before an orphaned ``*.tmp`` spool/cache file is swept.
#: Long enough that a concurrent sweep's in-flight atomic write is never
#: touched; short enough that killed runs don't leak disk for long.
_STALE_TMP_SECONDS = 3600.0


def _sweep_stale_tmp(directory: Path, max_age: float = _STALE_TMP_SECONDS) -> int:
    """Remove orphaned atomic-write temporaries from a spool directory.

    :func:`_atomic_write` unlinks its temporary on every failure path it
    can see, but a SIGKILL (or power loss) between ``write`` and
    ``os.replace`` leaves the ``*.tmp`` behind in the *persistent* cache
    spool, where nothing else ever looks at it again.  Returns the
    number of files removed; errors are ignored (another sweep may be
    cleaning concurrently).
    """
    removed = 0
    try:
        entries = list(directory.glob("*.tmp"))
    except OSError:
        return 0
    cutoff = time.time() - max_age
    for entry in entries:
        try:
            if entry.stat().st_mtime < cutoff:
                entry.unlink()
                removed += 1
        except OSError:
            continue
    return removed


def _file_fingerprint(path: Path) -> str:
    """Content hash of an on-disk trace file (for cache keying).

    A chunked-spool *directory* already carries its content fingerprint
    in the manifest (computed at freeze over the column bytes), so it is
    read back instead of re-hashing the multi-gigabyte spool.
    """
    if path.is_dir():
        trace = ChunkedCompiledTrace.open(path)
        try:
            return trace.fingerprint
        finally:
            trace.close()
    digest = hashlib.sha256()
    digest.update(b"repro-trace-file-v1")
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
