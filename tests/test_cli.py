"""Tests for the two command-line tools."""

import pytest

from repro.experiments import runner
from repro.tracegen import cli
from repro.traces.format import load_trace
from repro.traces.records import COMPILED_MAGIC


class TestParseSize:
    def test_plain_bytes(self):
        assert cli.parse_size("4096") == 4096

    @pytest.mark.parametrize(
        "text,expected",
        [("4K", 4096), ("1M", 1024**2), ("2G", 2 * 1024**3), ("1T", 1024**4)],
    )
    def test_suffixes(self, text, expected):
        assert cli.parse_size(text) == expected

    def test_lowercase_and_fractional(self):
        assert cli.parse_size("0.5m") == 512 * 1024


class TestTracegenCli:
    def test_generate_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        status = cli.main(
            [
                "--fs-size", "32M",
                "--working-set", "4M",
                "--out", str(out),
                "--seed", "5",
            ]
        )
        assert status == 0
        trace = load_trace(out)
        assert len(trace) > 0

        status = cli.main(["--inspect", str(out)])
        assert status == 0
        captured = capsys.readouterr()
        assert "records:" in captured.out

    def test_binary_output(self, tmp_path):
        out = tmp_path / "t.btrace"
        status = cli.main(
            ["--fs-size", "32M", "--working-set", "4M", "--out", str(out), "--binary"]
        )
        assert status == 0
        assert out.read_bytes().startswith(COMPILED_MAGIC)

    def test_missing_out_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_bad_config_reports_error(self, tmp_path, capsys):
        status = cli.main(
            [
                "--fs-size", "4M",
                "--working-set", "32M",  # WS bigger than the server model
                "--out", str(tmp_path / "x.trace"),
            ]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestExperimentsRunner:
    def test_table1(self, capsys):
        status = runner.main(["table1"])
        assert status == 0
        out = capsys.readouterr().out
        assert "Timing Model Parameters" in out
        assert "88.0 us" in out

    def test_unknown_experiment(self, capsys):
        status = runner.main(["figure99"])
        assert status == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        # The error names every valid choice.
        for name in runner.EXPERIMENTS:
            assert name in err

    def test_experiment_list_is_complete(self):
        assert len(runner.PAPER_EXPERIMENTS) == 13  # table1 + figures 1..12
        assert set(runner.EXTENSION_EXPERIMENTS) == {
            "placement",
            "recovery",
            "recovery_timeline",
            "multihost",
            "extended_policies",
            "scenarios",
            "tail_latency",
            "sensitivity",
            "section74",
            "consistency_traffic",
            "ablations",
            "endurance",
            "fleet",
        }

    def test_chart_flag(self, capsys):
        status = runner.main(["figure4", "--fast", "--scale", "65536", "--chart"])
        assert status == 0
        out = capsys.readouterr().out
        assert "noflash_us" in out
        assert "|" in out  # the chart's y axis

    def test_extensions_alias(self, capsys, monkeypatch):
        # Just validate name resolution, not a full (slow) run.
        monkeypatch.setattr(
            runner,
            "run_one",
            lambda name, scale, fast, chart=False, workers=None: (
                "ran %s" % name,
                None,
            ),
        )
        status = runner.main(["extensions"])
        assert status == 0
        out = capsys.readouterr().out
        for name in runner.EXTENSION_EXPERIMENTS:
            assert "ran %s" % name in out

    def test_workers_flag_forwarded(self, capsys, monkeypatch):
        seen = {}

        def fake_run_one(name, scale, fast, chart=False, workers=None):
            seen[name] = workers
            return "ran %s" % name, None

        monkeypatch.setattr(runner, "run_one", fake_run_one)
        status = runner.main(["table1", "--workers", "3"])
        assert status == 0
        assert seen == {"table1": 3}

    def test_cache_flag_sets_default_dir(self, tmp_path, capsys, monkeypatch):
        from repro import sweep

        monkeypatch.setattr(
            runner,
            "run_one",
            lambda name, scale, fast, chart=False, workers=None: ("ok", None),
        )
        cache_dir = tmp_path / "sweep-cache"
        previous = sweep.default_cache_dir()
        try:
            status = runner.main(["table1", "--cache", str(cache_dir)])
            assert status == 0
            assert str(sweep.default_cache_dir()) == str(cache_dir)
        finally:
            sweep.set_default_cache_dir(previous)


class TestExperimentRegistry:
    def test_get_known(self):
        from repro import experiments

        spec = experiments.get("figure4")
        assert spec.name == "figure4"
        assert spec.kind == "paper"
        assert callable(spec.run)

    def test_get_unknown_raises_config_error(self):
        from repro import experiments
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="figure4"):
            experiments.get("nope")

    def test_available_kinds(self):
        from repro import experiments

        everything = experiments.available()
        paper = experiments.available(kind="paper")
        extensions = experiments.available(kind="extension")
        assert set(paper).isdisjoint(extensions)
        assert set(everything) == set(paper) | set(extensions)
        with pytest.raises(Exception):
            experiments.available(kind="bogus")

    def test_report_flag(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        status = runner.main(
            ["figure4", "--fast", "--scale", "65536", "--report", str(report)]
        )
        assert status == 0
        content = report.read_text()
        assert content.startswith("# Experiment report")
        assert "## figure4" in content
        assert "noflash_us" in content


class TestObsCli:
    def test_traced_replay_writes_both_exports(self, tmp_path, capsys):
        from repro.obs import cli as obs_cli
        from repro.obs import validate_jsonl

        jsonl = tmp_path / "events.jsonl"
        chrome = tmp_path / "trace.json"
        status = obs_cli.main(
            [
                "--scale", "65536",
                "--trace-out", str(jsonl),
                "--chrome-out", str(chrome),
            ]
        )
        assert status == 0
        captured = capsys.readouterr()
        assert "latency breakdown" in captured.out
        assert "event counters:" in captured.out
        assert validate_jsonl(str(jsonl)) > 0
        import json

        document = json.loads(chrome.read_text())
        assert document["traceEvents"]

    def test_replays_trace_file(self, tmp_path, capsys):
        from repro.obs import cli as obs_cli

        out = tmp_path / "t.trace"
        assert cli.main(
            ["--fs-size", "32M", "--working-set", "2M", "--out", str(out),
             "--seed", "5"]
        ) == 0
        status = obs_cli.main(["--trace", str(out), "--no-events"])
        assert status == 0
        captured = capsys.readouterr()
        assert "latency breakdown" in captured.out

    def test_no_events_with_trace_out_is_an_error(self, capsys):
        from repro.obs import cli as obs_cli

        status = obs_cli.main(["--no-events", "--trace-out", "x.jsonl"])
        assert status == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-events", "-1"], "--max-events must be >= 0"),
            (["--scale", "0"], "--scale must be >= 1"),
            (["--trace", "{tmp}/missing.trace"], "No such file or directory"),
        ],
        ids=["negative-max-events", "zero-scale", "missing-trace"],
    )
    def test_bad_input_exits_2_with_one_line(self, argv, message, tmp_path, capsys):
        from repro.obs import cli as obs_cli

        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert obs_cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert captured.err.count("\n") == 1
