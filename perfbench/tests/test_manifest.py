"""BENCHMARK.json and manifest.json stay in step with the code."""

import json
import os

import ladder
import run
import workloads
from conftest import BENCH, ROOT


def load(path):
    with open(path) as handle:
        return json.load(handle)


BENCHMARK = load(os.path.join(ROOT, "BENCHMARK.json"))
MANIFEST = load(os.path.join(BENCH, "manifest.json"))


def test_benchmark_file_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_lists_match_the_code():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == [
        (name, unit, better)
        for name, (unit, better) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        (name, unit, better)
        for name, (unit, better) in ladder.PER_LAYER.items()]


def test_workloads_match_the_code():
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert MANIFEST["gated_workloads"] == gated
    assert list(MANIFEST["workloads"]) == list(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        recorded = MANIFEST["workloads"][name]
        assert recorded["why"] == cls.why
        assert recorded["params"] == json.loads(json.dumps(
            object.__new__(cls).params()))


def test_every_layer_metric_has_a_prediction():
    predicted = {name for entry in MANIFEST["predictions"]
                 for name in entry["layer"]}
    assert predicted == set(ladder.PER_LAYER)
    end_to_end = set(run.END_TO_END)
    for entry in MANIFEST["predictions"]:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(workloads.WORKLOADS)
