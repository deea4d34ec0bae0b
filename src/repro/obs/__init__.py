"""repro.obs — the observability layer.

Structured simulation tracing (blktrace-style event streams), exact
per-request latency breakdowns, and exporters (JSONL, Chrome
trace_event/Perfetto).  Opt in per run::

    from repro import Observation, run_simulation

    obs = Observation()
    results = run_simulation(trace, config, obs=obs)
    print(results.breakdown.mean_read_us())
    obs.write_jsonl("events.jsonl")
    obs.write_chrome_trace("trace.json")   # load at ui.perfetto.dev

or per config (``SimConfig(trace_events=True)``), which makes sweeps
return breakdowns and counters inside their picklable results.  The
host stacks' block paths attribute spans and emit events themselves,
behind ``span is not None`` guards; with tracing off (the default) no
span is passed, results are bit-identical and the replay's inline
RAM-hit run is unchanged (see docs/OBSERVABILITY.md for the measured
overhead).
"""

from repro.obs.breakdown import (
    COMPONENTS,
    BreakdownCollector,
    LatencyBreakdown,
    Span,
)
from repro.obs.events import EventKind, TraceEvent
from repro.obs.export import (
    to_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.recorder import NULL_RECORDER, EventRecorder, NullRecorder
from repro.obs.session import Observation

__all__ = [
    "COMPONENTS",
    "BreakdownCollector",
    "EventKind",
    "EventRecorder",
    "LatencyBreakdown",
    "NULL_RECORDER",
    "NullRecorder",
    "Observation",
    "Span",
    "TraceEvent",
    "to_chrome_trace",
    "validate_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
