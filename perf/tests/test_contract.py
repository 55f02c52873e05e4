"""``BENCHMARK.json`` names exactly what the metric table declares."""

import json
import re
from pathlib import Path

from perf import metrics, workloads

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _document():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_metric_table():
    document = _document()
    assert document == metrics.benchmark_document(document["run_seconds"], workloads.WHY)
    assert sorted(document) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]


def test_contract_limits():
    document = _document()
    assert 1 <= document["run_seconds"] <= 60
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in document["end_to_end"] + document["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert len(document["per_layer"]) <= 128 and len(document["end_to_end"]) <= 16
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
