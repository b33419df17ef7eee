"""One benchmark pass in a fresh interpreter: set up, run every job, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``, so
module-level state of heckesat (such as the p-adic coset cache) starts
cold, as it does for every CLI call.  Prints one JSON object on stdout.

    python3 bench/child.py --workload NAME --seed N [--trace] [--setup-only]
        [--tiny] [--spans STEM]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import types


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import heckesat
    from heckesat import corresp, elliptic, padic, rootdata, satake

    from workloads import make_jobs, run_job

    hs = types.SimpleNamespace(corresp=corresp, elliptic=elliptic,
                               padic=padic, rootdata=rootdata, satake=satake)
    jobs = make_jobs(args.workload, args.seed, args.tiny)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    first_job = time.monotonic()
    report = {"heckesat": heckesat.__file__, "first_job": first_job}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        try:
            out = run_job(job, hs)
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"s": time.perf_counter() - start, "out": out})
    report["run_s"] = time.perf_counter() - t0
    report["jobs"] = results
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["layers"], report["derived"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
