"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import dataclasses
import json
import math

import pytest

import run
from centrex import harness
from workloads import WORKLOADS, Sweep, Workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: Workload) -> Workload:
    scenario = dict(workload.scenario)
    scenario["n"] = 20 if scenario["scenario"] == "dim100k10" else 40
    sweeps = tuple(
        dataclasses.replace(
            s, trials=1, options=(("slots_t", 10), ("update_l", 2)) if s.algorithm == "decentrex" else s.options
        )
        for s in workload.sweeps
    )
    return dataclasses.replace(workload, scenario=tuple(scenario.items()), sigmas=workload.sigmas[:2], sweeps=sweeps)


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, workload in list(WORKLOADS.items()):
        monkeypatch.setitem(WORKLOADS, name, _tiny(workload))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(tiny_workloads, name, trace):
    lines, result = run.measure(name, seed=3, seconds=0, trace=trace, min_samples=1, probes=1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
    assert result["correct"], [line for line in lines if line.startswith("# problem")]
    assert result["attempted"] >= 1


def test_check_rows_rejects_corrupted_rows():
    cfg = dataclasses.replace(WORKLOADS["planar"].plan(3)[0][1], n=40, sigmas=(1.0,), trials=2)
    rows = harness.run_experiment(cfg)
    assert run.check_rows(rows, cfg) == []
    for key, bad in [("k_hat", 0), ("pe", 1.5), ("pe", math.nan), ("distortion", math.inf)]:
        corrupted = [dict(r) for r in rows]
        corrupted[1][key] = bad
        assert run.check_rows(corrupted, cfg), (key, bad)
    assert run.check_rows(rows[:1], cfg)


def test_raising_sweep_counts_every_cell_and_replays_are_compared(tmp_path):
    workload = Workload(
        name="broken",
        scenario=(("scenario", "dim2k4"), ("n", 40)),
        sigmas=(1.0, 1.5),
        sweeps=(Sweep("centrex", trials=1), Sweep("no-such-algorithm", trials=2, timed=False)),
    )
    r = run.Run(workload, 3, tmp_path)
    r.run_pass()
    r.run_pass()
    assert r.stats["no-such-algorithm"].failed == 8
    assert r.stats["no-such-algorithm"].errors == {"ValueError": 2}
    assert r.stats["centrex"].ok == 4 and not r.problems
    r.replay()
    assert not r.problems

    r.reference["centrex"].rows[0]["pe"] += 0.5
    r.replay()
    assert any("differ from the first pass" in p for p in r.problems)
