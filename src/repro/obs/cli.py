"""CLI for traced replays: ``repro-obs --trace-out events.jsonl``.

Runs one simulation with an :class:`~repro.obs.Observation` attached and
writes the structured event stream (JSONL and/or Chrome ``trace_event``
JSON for Perfetto/chrome://tracing), printing the run summary — which
includes the per-request latency breakdown — plus the event counters.

By default it replays the experiments' pinned-seed baseline trace
(:func:`repro.experiments.common.baseline_trace`), so two invocations
with the same options produce byte-identical event streams; pass
``--trace`` to replay a trace file instead (any supported format).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.architectures import Architecture
from repro.core.simulator import run_simulation
from repro.errors import ReproError
from repro.obs.session import Observation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Replay a trace with structured tracing on and export "
        "the event stream (see docs/OBSERVABILITY.md).",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace file to replay (auto-detected format); default: the "
        "pinned-seed synthetic baseline trace",
    )
    parser.add_argument(
        "--arch",
        choices=[arch.value for arch in Architecture],
        default=Architecture.NAIVE.value,
        help="client cache architecture (default: naive)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="geometry divisor for the synthetic baseline "
        "(default: repro.experiments.common.DEFAULT_SCALE)",
    )
    parser.add_argument("--seed", type=int, default=42, help="trace seed (default 42)")
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the event stream as JSON Lines (one event per line)",
    )
    parser.add_argument(
        "--chrome-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON (load in Perfetto / "
        "chrome://tracing)",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="cap the recorded event list at N (counters keep counting; "
        "overflow is reported as dropped_events)",
    )
    parser.add_argument(
        "--no-events",
        action="store_true",
        help="collect only the latency breakdown (no event stream; "
        "--trace-out/--chrome-out then have nothing to write)",
    )
    return parser


def _input_error(args: argparse.Namespace) -> Optional[str]:
    """A one-line message for option values no replay can use."""
    if args.no_events and (args.trace_out or args.chrome_out):
        return "--no-events leaves nothing for --trace-out/--chrome-out"
    if args.max_events is not None and args.max_events < 0:
        return "--max-events must be >= 0 (got %d)" % args.max_events
    if args.scale is not None and args.scale < 1:
        return "--scale must be >= 1 (got %d)" % args.scale
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    error = _input_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            from repro.traces.importers.detect import load_any

            try:
                trace, _stats = load_any(args.trace)
            except OSError as exc:  # a missing or unreadable file
                print(str(exc), file=sys.stderr)
                return 2
        else:
            from repro.experiments.common import DEFAULT_SCALE, baseline_trace

            trace = baseline_trace(
                seed=args.seed,
                scale=args.scale if args.scale is not None else DEFAULT_SCALE,
            )
        config = _config_for(args)
        obs = Observation(events=not args.no_events, max_events=args.max_events)
        results = run_simulation(trace, config, obs=obs)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(results.summary())
    counters = obs.counters()
    if counters:
        print("event counters:")
        for kind in sorted(counters):
            print("  %-18s %d" % (kind, counters[kind]))
    if args.trace_out:
        obs.write_jsonl(args.trace_out)
        print("wrote %d events to %s (JSONL)" % (len(obs.events), args.trace_out))
    if args.chrome_out:
        obs.write_chrome_trace(args.chrome_out)
        print("wrote Chrome trace to %s" % args.chrome_out)
    return 0


def _config_for(args: argparse.Namespace) -> "object":
    from repro.experiments.common import DEFAULT_SCALE, baseline_config

    scale = args.scale if args.scale is not None else DEFAULT_SCALE
    return baseline_config(scale=scale, architecture=Architecture(args.arch))


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
