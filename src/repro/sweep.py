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

**Execution model.**  Each parallel sweep fans its points out over a
process pool of its own (``concurrent.futures.ProcessPoolExecutor``,
the platform's default start method), shut down before the sweep
returns on every exit path, so no worker outlives the call.  Tasks are
spawn-safe: what crosses the process boundary is a *picklable*
``SimConfig`` plus a **trace reference** (a path, or a chunked trace,
which pickles as its spool directory), never a live simulator object.
An in-memory trace is compiled to the packed columnar form
(:mod:`repro.traces.compiled`) and written once per distinct content
as a compiled-trace file, ``<fingerprint>.ctrace``, in a temporary
directory removed when the sweep ends (error and Ctrl-C included).
Every worker maps that file read-only and attaches it *zero-copy*, so
all workers share its pages.  Workers memoize attached/loaded traces
per reference.  Every simulation point is fully
deterministic given its inputs (per-run seeds live in ``SimConfig`` /
the trace), so parallel and serial execution produce bit-identical
results; outputs are merged back in submission order.

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
import mmap
import os
import pickle
import shutil
import tempfile
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
    "default_workers",
    "set_default_workers",
    "default_cache_dir",
    "set_default_cache_dir",
]

TraceLike = Union[Trace, CompiledTrace, ChunkedCompiledTrace, str, Path]

#: What a worker resolves to a trace: a path — a compiled-trace file
#: (:data:`CTRACE_SUFFIX`, mapped read-only), a chunked-trace spool
#: *directory* (reopened with bounded memory), or a text, binary or
#: pickled trace file — or a chunked trace, which pickles as its spool
#: directory and the rows it skips.
TraceRef = Union[str, ChunkedCompiledTrace]

#: Suffix of the compiled-trace files in-memory traces are exported as.
CTRACE_SUFFIX = ".ctrace"

#: Environment knobs (both overridable per call and via the setters).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
CACHE_ENV = "REPRO_SWEEP_CACHE"

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
    saved trace file (text, binary, pickle, a compiled-trace file, or a
    chunked-spool directory).  The remaining fields mirror
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
    """A stable content hash of a trace (records, geometry, warmup): the
    fingerprint of its compiled form, over the packed columns' flat
    buffers.  :func:`compile_trace` memoizes that form on the trace and
    the form memoizes its fingerprint, so a trace reused across dozens
    of points is hashed once."""
    if isinstance(trace, ChunkedCompiledTrace):
        return trace.fingerprint
    return compile_trace(trace).fingerprint


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

#: Per-worker memo of resolved traces, keyed by path, or by spool
#: directory and skip for a chunked trace.  Each entry is ``(trace,
#: cleanup)`` where ``cleanup`` (may be ``None``) releases the trace's
#: map or file handle when the entry is evicted.  A worker lives for one
#: sweep, so the memo serves that sweep's points that share a trace;
#: the cap bounds a sweep that ships many traces.  Insertion order
#: doubles as age, and the oldest entry is evicted — with its cleanup
#: run — when the cap is hit.
_WORKER_TRACE_CACHE: Dict[object, Tuple[object, Optional[Callable[[], None]]]] = {}
_WORKER_TRACE_CACHE_MAX = 8


def _load_trace_path(path: str):
    """Load one trace file (pickle, chunked spool dir, or text/binary)."""
    if os.path.isdir(path):
        # A chunked-trace spool directory: reopen with bounded memory
        # instead of materializing the records.
        return ChunkedCompiledTrace.open(path)
    if path.endswith(".pkl"):
        with open(path, "rb") as handle:
            return pickle.load(handle)
    from repro.traces.format import load_trace

    return load_trace(path)


def _attach_ctrace(path: str):
    """Map a compiled-trace file read-only and attach it, zero-copy.

    Returns ``(trace, cleanup)``; ``cleanup`` releases the trace's
    column views *before* closing the map (a live view pins the map,
    and closing it first raises ``BufferError``).  Every worker that
    maps the file shares its page-cache pages.
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        trace = CompiledTrace.from_buffer(mapped)
    except BaseException:
        mapped.close()
        raise

    def cleanup():
        trace.release()
        mapped.close()

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
    if isinstance(ref, ChunkedCompiledTrace):
        # Unpickling reopened the spool with its skip; a stripped view
        # and the whole spool are different traces.
        key = (str(ref.spool_dir), ref._skip)
        return _memoized_trace(key, lambda: (ref, ref.close))

    def load():
        if ref.endswith(CTRACE_SUFFIX):
            return _attach_ctrace(ref)
        trace = _load_trace_path(ref)
        # Eviction must release a chunked spool's row-file handle.
        return trace, trace.close if isinstance(trace, ChunkedCompiledTrace) else None

    return _memoized_trace(ref, load)


def _drain_worker_cache() -> int:
    """Release every cached trace — each attached trace's views before
    its map, each chunked spool's file handle — and return how many
    entries were evicted.

    Registered via ``atexit``, so a process that exits normally (the
    parent, after serial points) releases its traces in order.  Pool
    workers exit via ``os._exit``; the kernel unmaps their files.
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
) -> SweepOutcome:
    """Run a batch of heterogeneous sweep points; see the module docs.

    Returns a :class:`SweepOutcome` whose ``results`` are in submission
    order and identical to running each point serially.
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
            # A broken observer must not abort the sweep: the
            # simulation work is already done.
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
            executed = _execute_parallel(points, pending, n_workers)
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
    """
    outcome = run_sweep_points(
        [SweepPoint(config=config, trace=trace) for config in configs],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
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
            trace = _load_trace_ref(str(trace))
        started = time.perf_counter()
        result = run_simulation(trace, point.config, **point.run_options())
        executed.append((result, time.perf_counter() - started))
    return executed


# --------------------------------------------------------------------------
# The worker pool
# --------------------------------------------------------------------------

#: Exception types meaning "the platform cannot give us a pool".
_POOL_UNAVAILABLE = (OSError, ValueError, NotImplementedError)


@contextlib.contextmanager
def _worker_pool(n_workers: int):
    """Yield a process pool of ``n_workers`` workers for one call, or
    ``None`` when the platform cannot provide one.

    Every exit path — completion, a failing point, a broken pool,
    Ctrl-C — cancels the queued work, waits for the chunks already
    running and for the workers to exit, so no worker (nor any trace
    it mapped) outlives the call, and no pool is ever forked beside
    another pool's threads.
    """
    import concurrent.futures as futures

    try:
        pool = futures.ProcessPoolExecutor(max_workers=n_workers)
    except _POOL_UNAVAILABLE:
        pool = None
    try:
        yield pool
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


@contextlib.contextmanager
def _trace_exports():
    """Yield ``export(trace) -> TraceRef`` for traces bound for pool
    workers.

    An in-memory trace is written once per distinct content as a
    compiled-trace file, ``<fingerprint>.ctrace``, into a temporary
    directory made on first use and removed on *every* exit path —
    normal completion, a failing point, Ctrl-C.  The result cache is
    never written here, so an unwritable cache only disables caching.
    A chunked trace is already on disk and ships as itself: it pickles
    as its spool directory and skip, so workers reopen the spool, each
    replay stays bounded by its chunk window, and a warmup-stripped
    view stays stripped.  A path passes through untouched.
    """
    spool: Optional[Path] = None

    def export(trace: TraceLike) -> TraceRef:
        nonlocal spool
        if isinstance(trace, ChunkedCompiledTrace):
            return trace
        if not isinstance(trace, (Trace, CompiledTrace)):
            return str(trace)
        compiled = compile_trace(trace)
        if spool is None:
            spool = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
        path = spool / (compiled.fingerprint + CTRACE_SUFFIX)
        if not path.exists():
            _atomic_write(path, compiled.to_bytes())
        return str(path)

    try:
        yield export
    finally:
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)


def _execute_parallel(
    points: Sequence[SweepPoint],
    pending: Sequence[Tuple[int, str]],
    n_workers: int,
) -> List[Tuple[SimulationResults, float]]:
    """Fan pending points over a process pool of this call's own; fall
    back to serial when the platform can't give us one (no fork/spawn,
    sandboxed, ...).  Traces travel through :func:`_trace_exports`."""
    with _trace_exports() as export:
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
        executed: List[Optional[Tuple[SimulationResults, float]]] = [None] * len(
            pending
        )
        with _worker_pool(n_workers) as pool:
            if pool is None:
                return _execute_serial(points, pending)
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
