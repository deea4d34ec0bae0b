"""Tests of the ledger benchmark itself, on its fast (tiny) workloads.

Run from the repository root: ``python3 -m pytest -q ledger``.
"""

from __future__ import annotations

import json
import re

import pytest

import run
import workloads


def test_one_command_prints_every_metric_with_its_unit(capsys):
    assert run.main(["--fast", "--seconds", "0.5"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 18
    for name in workloads.WORKLOADS:
        for metric in run.END_TO_END + run.PER_LAYER:
            line = r"^%s +%s +\S+ +%s$" % (name, re.escape(metric.name), re.escape(metric.unit))
            assert re.search(line, out, re.MULTILINE), (name, metric.name)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_workload_run_reports_exactly_its_metric_set(capsys, trace):
    code = run.main(
        ["--workload", "fleet_writes", "--fast", "--seconds", "0.5", "--trace", str(trace)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = run.PER_LAYER if trace else run.END_TO_END
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {metric.name: metric.unit for metric in wanted}
    provenance = json.loads(lines[-2][len("provenance "):])
    assert provenance["engine_path"] == "generator"
    assert provenance["cpus"] >= 1 and provenance["python"]


def test_a_corrupted_pinned_digest_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(workloads.PINNED, ("hit_heavy", True), "0" * 16)
    code = run.main(["--workload", "hit_heavy", "--fast", "--seconds", "0.5"])
    assert code == 1
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED hit_heavy: results digest" in out


def test_benchmark_json_matches_the_definitions():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for workload in committed["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert unit.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    linked = {metric for layer_metrics, _, _ in run.LINKS for metric in layer_metrics}
    assert linked <= {metric.name for metric in run.PER_LAYER}
