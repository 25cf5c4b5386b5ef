"""BENCHMARK.json agrees with what the benchmark emits."""

import json
import re

from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.measure import validate_metric_name
from perfbench.tests.conftest import ROOT
from perfbench.workloads import WORKLOADS

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_keys():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["command"][:2] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_workloads_match():
    listed = MANIFEST["workloads"]
    assert [w["name"] for w in listed] == list(WORKLOADS)
    for entry in listed:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match():
    listed = MANIFEST["end_to_end"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == [
        tuple(m) for m in END_TO_END
    ]
    for metric in listed:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in listed}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match():
    listed = MANIFEST["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]
    for metric in listed:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_valid():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        validate_metric_name(name)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
