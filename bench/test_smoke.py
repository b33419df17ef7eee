"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest bench -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, check, expected, make_jobs, weyl_orbit, closed_form  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs(workload):
    attempted, failed, metrics = run.timed(ROOT, workload, 3, 0, tiny=True)
    assert attempted > 0 and failed == 0
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())


def _corrupt(job, want):
    bad = copy.deepcopy(want)
    if job["kind"] == "hecke_poly":
        bad["degree"] += 1
    elif job["kind"] == "curve":
        bad["a_p"] += 1
    else:
        nu = next(iter(bad["product"]))
        bad["product"][nu][0] += 1
    return bad


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_reports_corrupted_expectation(workload):
    jobs = make_jobs(workload, 3, tiny=True)
    report, _ = run.run_child(ROOT, workload, 3, tiny=True)
    expects = [expected(j) for j in jobs]
    assert run.gate(jobs, expects, report) == 0
    expects[0] = _corrupt(jobs[0], expects[0])
    assert run.gate(jobs, expects, report) == 1


def test_gate_counts_a_raising_job():
    job = make_jobs("symbolic", 3, tiny=True)[0]
    assert check(job, {"error": "ValueError: boom"}, expected(job))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    # run.traced fails the run unless its two traced passes agree exactly
    attempted, failed, metrics = run.traced(ROOT, workload, 3, tiny=True)
    assert failed == 0
    again = run.traced(ROOT, workload, 3, tiny=True)[2]
    counts = {k: v["value"] for k, v in metrics.items()
              if v["unit"] != "s" and k != "trace.overhead_ratio"}
    assert counts == {k: again[k]["value"] for k in counts}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_seed_fixes_inputs():
    for workload in WORKLOADS:
        assert make_jobs(workload, 5) == make_jobs(workload, 5)
        assert make_jobs(workload, 5) != make_jobs(workload, 6)


def test_orbits_match_closed_form_degrees():
    for job in make_jobs("symbolic", 1):
        mu = tuple(job["mu"])
        assert len(weyl_orbit(job["group"], mu)) == \
            closed_form(job["group"], mu)[0]
        assert tuple(job["lam"]) in weyl_orbit(job["group"], mu)


def test_refuses_to_run_without_sources(monkeypatch):
    monkeypatch.chdir(BENCH_DIR)
    assert run.main(["--workload", "hecke", "--seed", "1"]) != 0
