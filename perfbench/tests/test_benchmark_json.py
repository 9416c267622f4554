"""``BENCHMARK.json`` matches the metric tables and the file contract."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pbcore

ROOT = Path(__file__).resolve().parents[2]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert 1 <= DOC["run_seconds"] <= 60


def test_metric_lists_match_the_tables():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == \
        pbcore.END_TO_END
    assert {m["name"]: m["unit"] for m in DOC["per_layer"]} == \
        pbcore.PER_LAYER


def test_entries_follow_the_grammar():
    for metric in DOC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DOC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DOC["end_to_end"] + DOC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in DOC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in DOC["end_to_end"])}]
    for workload in DOC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200


def test_workloads_are_the_runners_choices():
    from run import WORKLOADS

    assert tuple(w["name"] for w in DOC["workloads"]) == WORKLOADS


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_fresh",
         "--seed", "3", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode not in (0, None)
    assert out.stdout == ""
