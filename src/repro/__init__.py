"""repro — reproduction of "Flash Caching on the Storage Client" (USENIX ATC 2013).

This package implements, from scratch, the complete system described by
Holland, Angelino, Wald, and Seltzer: a trace-driven simulator for flash
caching on the client side of a networked storage environment, together
with every substrate the paper depends on (a discrete-event simulation
kernel, LRU cache stores, flash/network/filer device models, an
Impressions-style file-system model, and a synthetic trace generator),
plus an experiment harness that regenerates every table and figure in the
paper's evaluation.

Quickstart::

    from repro import SimConfig, run_simulation
    from repro.tracegen import TraceGenConfig, generate_trace

    trace = generate_trace(TraceGenConfig.small_example())
    results = run_simulation(trace, SimConfig.baseline_scaled())
    print(results.summary())

The public API is re-exported here; see the subpackages for the full
surface:

* :mod:`repro.engine`      — discrete-event simulation kernel
* :mod:`repro.cache`       — LRU block caches
* :mod:`repro.flash`       — flash device and SSD behavioral models
* :mod:`repro.net`         — network segment model
* :mod:`repro.filer`       — file-server model
* :mod:`repro.fsmodel`     — Impressions-like file-system generator
* :mod:`repro.traces`      — trace records and serialization
* :mod:`repro.tracegen`    — synthetic trace generator
* :mod:`repro.core`        — the client cache stack and simulation driver
* :mod:`repro.sweep`       — parallel batch execution of simulation points
* :mod:`repro.obs`         — structured tracing and latency breakdowns
* :mod:`repro.experiments` — per-figure/table reproduction harness
"""

from repro._units import (
    NS,
    US,
    MS,
    SECOND,
    KB,
    MB,
    GB,
    TB,
    BLOCK_SIZE,
    blocks_for_bytes,
    format_bytes,
    format_time,
)
from repro.core import (
    Architecture,
    RestartSpec,
    SimConfig,
    TimingModel,
    SimulationResults,
    run_simulation,
)
from repro.net import DirectoryTiming
from repro.obs import Observation
from repro.tracegen import TraceGenConfig, generate_trace, generate_trace_chunked
from repro.traces import (
    ChunkedCompiledTrace,
    CompiledTrace,
    Trace,
    TraceOp,
    TraceRecord,
    compile_trace,
)
from repro.sweep import (
    PointReport,
    SweepOutcome,
    SweepPoint,
    run_sweep,
    run_sweep_points,
)

__version__ = "1.5.0"

__all__ = [
    "NS",
    "US",
    "MS",
    "SECOND",
    "KB",
    "MB",
    "GB",
    "TB",
    "BLOCK_SIZE",
    "blocks_for_bytes",
    "format_bytes",
    "format_time",
    "Architecture",
    "DirectoryTiming",
    "RestartSpec",
    "SimConfig",
    "TimingModel",
    "SimulationResults",
    "run_simulation",
    "Observation",
    "PointReport",
    "SweepOutcome",
    "SweepPoint",
    "run_sweep",
    "run_sweep_points",
    "TraceGenConfig",
    "generate_trace",
    "generate_trace_chunked",
    "Trace",
    "TraceOp",
    "TraceRecord",
    "CompiledTrace",
    "compile_trace",
    "ChunkedCompiledTrace",
    "__version__",
]
