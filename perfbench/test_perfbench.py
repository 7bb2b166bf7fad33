"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest perfbench``.

They start real benchmark runs, so they take a couple of minutes.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOAD_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, seed, seconds, trace):
    proc = run(workload, seed, seconds, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}]


def test_per_layer_metrics_match_the_layer_map():
    documented = [
        {"name": l["name"], "unit": l["unit"], "better": l["better"]}
        for l in LAYER_MAP["layers"]
    ]
    assert BENCHMARK["per_layer"] == documented


def test_self_times_subtract_the_union_of_child_spans():
    tracer = Tracer()
    root = ["chunk", 0.0, 10.0, None, 0, 1]
    child = ["a", 1.0, 4.0, root, 0, 1]
    grandchild = ["b", 2.0, 3.0, child, 0, 1]
    # Another thread's span overlaps ``child`` under the same root.
    other = ["c", 3.0, 6.0, root, 0, 2]
    tracer.spans = [root, child, grandchild, other]
    selfs = tracer.self_times()
    assert selfs == pytest.approx({"chunk": 5.0, "a": 2.0, "b": 1.0, "c": 3.0})


def test_tracer_restores_every_wrapped_entry_point():
    from perfbench.tracer import layer_targets

    before = [(h, a, h.__dict__[a] if isinstance(h, type) else getattr(h, a))
              for _, h, a in layer_targets()]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    for holder, attr, original in before:
        now = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
        assert now is original


def test_untraced_run_reports_every_end_to_end_metric():
    out = result("service-waves", 3, 1, 0)
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


COUNTS = [l["name"] for l in LAYER_MAP["layers"] if l["unit"] == "count"
          and not l["name"].startswith("trace.")]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_counts_repeat_exactly_for_a_seed(workload):
    first = result(workload, 5, 1, 1)
    second = result(workload, 5, 1, 1)
    for out in (first, second):
        assert out["correct"] is True and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        assert abs(out["metrics"]["trace.coverage_pct"]["value"] - 100.0) <= 5.0
    counts = [{k: out["metrics"][k]["value"] for k in COUNTS} for out in (first, second)]
    assert counts[0] == counts[1]
    if workload.startswith("service"):
        assert counts[0]["service.groups"] == 8
        assert counts[0]["service.jobs_per_group"] == 8  # 64 jobs in 8 groups


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("service-waves", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
