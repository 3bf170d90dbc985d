"""Smoke check of the benchmark's own code.

Runs every workload of BENCHMARK.json through `bench/run.py` for one
sample, untraced and traced, and asserts that the outputs check out and
that each metric the file names is emitted with its unit.  Takes about
10 s per workload.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
    SPEC = json.load(fp)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace, group):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_predictions_cover_every_layer_metric():
    with open(os.path.join(HERE, "predictions.json")) as fp:
        preds = json.load(fp)["predictions"]
    named = [m for p in preds for m in p["layer_metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for p in preds:
        for claim in p["moves"] + p.get("no_change", []):
            assert claim["metric"] in end_to_end
            assert set(claim["workloads"]) <= set(WORKLOADS)
