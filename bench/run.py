"""heckesat benchmark: one workload, timed or traced, with a correctness gate.

Run from the root of a checkout:

    python3 bench/run.py --workload {symbolic,hecke,frobenius} --seed N \
        --seconds S --trace {0,1}

Each pass runs in a fresh, single-threaded interpreter (bench/child.py),
one at a time, importing heckesat from the checkout's ``src``.  Every
job's output is compared with an independent reference (workloads.py).
Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only if every job passed the gate.

--trace 0 runs passes for S seconds (at least MIN_PASSES) and reports
the end-to-end metrics as medians over passes.  --trace 1 runs one
untraced and two traced passes, checks that the traced call counts and
ratios repeat exactly, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import TRACED  # noqa: E402
from workloads import WORKLOADS, check, expected, job_label, make_jobs  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 2  # extra set-up-only interpreters before each pass
CHILD_TIMEOUT_S = 150
OUT_DIR = ".bench_out"

END_TO_END = (("run_s", "s"), ("job_max_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# Derived per-layer metrics (see tracing.Tracer.summary) and their units.
DERIVED_UNITS = {
    "intmat.det_per_snf": "ratio",
    "rootdata.weyl_elements_built": "count",
    "satake.hecke_polynomial.repeat_ratio": "ratio",
    "padic.coset_products": "count",
    "padic.products_per_result_type": "ratio",
    "padic.decompose_double_coset.cosets": "count",
    "padic.enum_accept_ratio": "ratio",
    "elliptic.field_builds_per_distinct_pk": "ratio",
    "elliptic.count_repeat_ratio": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, path in TRACED:
        name = f"{mod}.{path}"
        units[f"{name}.calls"] = "count"
        if path != "FieldExt.__init__":
            units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


class PassError(Exception):
    """A pass that crashed or imported heckesat from outside the checkout."""


def run_child(root, workload, seed, *flags, tiny=False):
    """Run one pass in a fresh interpreter; returns (report, setup_s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags] + (["--tiny"] if tiny else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (root / "src").resolve()
    if Path(report["heckesat"]).resolve().parent.parent != src:
        raise PassError(f"heckesat imported from {report['heckesat']}, "
                        f"not from {src}")
    return report, report["first_job"] - spawned


def gate(jobs, expects, report):
    """Count failed jobs in one pass and describe them on stderr."""
    failed = 0
    for job, want, res in zip(jobs, expects, report["jobs"]):
        problems = check(job, res["out"], want)
        if problems:
            failed += 1
            print(f"FAIL {job_label(job)}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed + len(jobs) - len(report["jobs"])


def summarize(values):
    vals = sorted(values)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
    return med, q1, q3


def timed(root, workload, seed, seconds, tiny=False):
    jobs = make_jobs(workload, seed, tiny)
    expects = [expected(j) for j in jobs]
    samples = {name: [] for name, _ in END_TO_END}
    setups = samples["setup_s"]
    attempted = failed = 0
    start = time.monotonic()
    pass_s = 0.0
    # Start no pass that would end after the budget, once MIN_PASSES are in.
    while (len(samples["run_s"]) < MIN_PASSES
           or time.monotonic() - start + pass_s < seconds):
        began = time.monotonic()
        setups += [run_child(root, workload, seed, "--setup-only", tiny=tiny)[1]
                   for _ in range(SETUP_PROBES_PER_PASS)]
        report, setup = run_child(root, workload, seed, tiny=tiny)
        attempted += len(jobs)
        failed += gate(jobs, expects, report)
        setups.append(setup)
        samples["run_s"].append(report["run_s"])
        samples["job_max_s"].append(max(r["s"] for r in report["jobs"]))
        samples["peak_rss_mb"].append(report["rss_mb"])
        pass_s = time.monotonic() - began
    metrics = {}
    for name, unit in END_TO_END:
        med, q1, q3 = summarize(samples[name])
        print(f"{workload} {name}: median {med:.6g} {unit} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}] n={len(samples[name])}")
        metrics[name] = {"value": med, "unit": unit}
    print(f"{workload} fail_ratio: {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    return attempted, failed, metrics


def traced(root, workload, seed, tiny=False):
    jobs = make_jobs(workload, seed, tiny)
    expects = [expected(j) for j in jobs]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    plain, _ = run_child(root, workload, seed, tiny=tiny)
    reports = [plain]
    for i in range(2):
        stem = out_dir / f"{workload}-trace{i}"
        reports.append(run_child(root, workload, seed, "--trace",
                                 "--spans", str(stem), tiny=tiny)[0])
    attempted = len(jobs) * len(reports)
    failed = sum(gate(jobs, expects, r) for r in reports)
    first, second = reports[1], reports[2]
    counts = [{k: v["calls"] for k, v in r["layers"].items()} for r in (first, second)]
    if counts[0] != counts[1] or first["derived"] != second["derived"]:
        print(f"{workload}: traced call counts or ratios differ between two "
              f"runs with the same seed", file=sys.stderr)
        failed += 1
    overhead = statistics.median([first["run_s"], second["run_s"]]) / plain["run_s"]
    print(f"{workload} trace overhead: traced run_s / untraced run_s = "
          f"{overhead:.4g} ({plain['run_s']:.4g} s untraced)")
    print(f"{'layer function':48} {'calls':>10} {'self_s':>10} {'total_s':>10}")
    for name, row in sorted(first["layers"].items(),
                            key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48} {row['calls']:>10} {row['self_s']:>10.4f} "
              f"{row['total_s']:>10.4f}")
    for name, value in first["derived"].items():
        print(f"{name:48} {value:>10.6g}")
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        if name in first["derived"]:
            value = first["derived"][name]
        elif name == "trace.overhead_ratio":
            value = overhead
        else:
            func, field = name.rsplit(".", 1)
            value = statistics.median(
                [r["layers"][func][field] for r in (first, second)])
        metrics[name] = {"value": value, "unit": unit}
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heckesat" / "__init__.py").is_file():
        print(f"error: no heckesat sources under {root / 'src'}; run from the "
              f"root of a heckesat checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, metrics = traced(root, args.workload, args.seed)
        else:
            attempted, failed, metrics = timed(root, args.workload, args.seed,
                                               args.seconds)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
