"""Tests for the degenerate-parameter differential harness."""

from repro.experiments.common import DEFAULT_SCALE
from repro.validation.differential import (
    DifferentialCheck,
    DifferentialReport,
    check_chunked_replay_identity,
    check_flash_zero_collapse,
    check_parallel_replay_identity,
    check_percentile_sketch,
    check_read_only_zero_writebacks,
    check_sync_policies_zero_dirty,
    main,
    result_signature,
    run_differential,
)

#: Coarse geometry for test speed; identities are scale-independent.
FAST_SCALE = DEFAULT_SCALE * 4


class TestIdentities:
    def test_flash_zero_collapses_architectures(self):
        check = check_flash_zero_collapse(scale=FAST_SCALE)
        assert check.passed, check.detail

    def test_read_only_trace_writes_nothing_back(self):
        check = check_read_only_zero_writebacks(scale=FAST_SCALE)
        assert check.passed, check.detail

    def test_sync_policies_leave_nothing_dirty(self):
        check = check_sync_policies_zero_dirty(scale=FAST_SCALE)
        assert check.passed, check.detail

    def test_chunked_replay_matches_materialized(self):
        check = check_chunked_replay_identity(scale=FAST_SCALE)
        assert check.passed, check.detail
        assert "15 matrix points" in check.detail

    def test_parallel_replay_matches_serial(self):
        check = check_parallel_replay_identity(scale=FAST_SCALE)
        assert check.passed, check.detail
        assert "16 points" in check.detail

    def test_percentile_sketch_within_bounds(self):
        check = check_percentile_sketch(scale=FAST_SCALE)
        assert check.passed, check.detail


class TestHarness:
    def test_run_differential_aggregates(self):
        report = run_differential(scale=FAST_SCALE)
        assert report.passed, report.summary()
        assert len(report.checks) == 8
        assert {c.name for c in report.checks} == {
            "flash-zero-collapse",
            "read-only-zero-writebacks",
            "sync-policies-zero-dirty",
            "chunked-replay-identity",
            "inline-hit-identity",
            "fleet-identity",
            "parallel-replay-identity",
            "percentile-sketch-bounds",
        }

    def test_report_fails_when_any_check_fails(self):
        report = DifferentialReport(
            checks=[
                DifferentialCheck("a", True),
                DifferentialCheck("b", False, "drifted"),
            ]
        )
        assert not report.passed
        summary = report.summary()
        assert "PASS" in summary and "FAIL" in summary and "drifted" in summary

    def test_main_fast(self, capsys):
        assert main(["--scale", str(FAST_SCALE)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8


class TestSignature:
    def test_signature_covers_timing_and_traffic(self):
        from repro.core.simulator import run_simulation
        from tests.helpers import make_trace, tiny_config

        trace = make_trace([("r", 1), ("w", 2), ("r", 1)])
        result = run_simulation(trace, tiny_config())
        signature = result_signature(result)
        for key in (
            "read_mean_us",
            "write_mean_us",
            "simulated_ns",
            "filer_writes",
            "writebacks",
            "network_utilization",
        ):
            assert key in signature
