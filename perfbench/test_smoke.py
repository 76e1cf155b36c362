"""Smoke test of the drop benchmark: every workload for a few drops, with
and without tracing, and the missing-hook path.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import layer_metrics
from tracer import Hook, Tracer
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DROPS = 10
N_TRPS = {"ioo-multi-rtt": 12, "uma-dl-aod": 21, "uma-dl-tdoa": 21}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--drops", str(DROPS)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * DROPS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert 0 <= value.pop("fail_frac") < 1
    assert all(v > 0 for v in value.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics(workload):
    result = bench(workload, 1)
    assert result["correct"]
    metrics = result["metrics"]
    units = {name: m["unit"] for name, m in metrics.items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(set(m) == {"value", "unit"} for m in metrics.values())
    assert all(m["value"] is not None for m in metrics.values())
    value = {name: m["value"] for name, m in metrics.items()}
    # simulate holds its own binding of realize_budget_link; every link is seen
    assert value["channel.realize_budget_link.calls"] == DROPS * N_TRPS[workload]
    assert value["solvers.gdop.calls"] == DROPS
    assert value["sequences.gold_sequence.calls"] == 12 * N_TRPS[workload]
    detections = value["measurements.first_path.calls"]
    if workload == "uma-dl-aod":
        assert value["kernel.ifft.calls"] == 0 and detections == 0
    else:
        assert value["kernel.ifft.calls"] > 0 and detections > 0
        assert value["kernel.ifft.points"] == detections * 16384


def test_missing_target_is_reported_not_zero():
    assert not Tracer().install(Hook("gone", "tracer", "no_such_function"))
    rep = {"traced": True, "missing": ["measurements.polish_peak"],
           "drop_s": [0.01, 0.02], "drop_probe_s": [0.002, 0.002], "layers": {}}
    metrics = layer_metrics([dict(rep, traced=False)], [rep])
    assert metrics["measurements.polish_peak.calls"] == {
        "value": None, "unit": "count"}
    assert metrics["kernel.ifft.calls"]["value"] == 0


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = Hook("inner", "tracer", "x")
    outer = Hook("outer", "tracer", "x")
    tracer.call(outer, tracer.call, (inner, sum, ([1, 2],), {}), {})
    totals = tracer.totals()
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"])
