"""Smoke test of the benchmark at tiny sizes.

Checks that a run emits exactly the metrics ``BENCHMARK.json`` names, in
the untraced and the traced run, and that every output check passes.
From the repository root:

    python3 -m pytest hydrabench/test_smoke.py -q
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spec import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "wlc-lp": dataclasses.replace(
        WORKLOADS["wlc-lp"], n_queries=20, supply_per_round=1
    ),
    "job-supply": dataclasses.replace(
        WORKLOADS["job-supply"], n_queries=10, supply_scale=2, aqp_per_round=1,
        regen_per_round=(1,),
    ),
}


def test_benchmark_names_the_gated_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted(name, trace):
    result, report = run.measure(TINY[name], seed=1, seconds=0, trace=trace)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(json.dumps(result)) == result
    assert any(line.startswith("deterministic counts:") for line in report)
