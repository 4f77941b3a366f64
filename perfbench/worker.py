"""One benchmark run of one workload, in its own process.

Started by run.py with the BLAS/OpenMP thread counts pinned in its
environment.  It prints ``READY`` once imports are done and the inputs are
made (run.py times set-up up to that line), then times whole passes until
the time budget is spent, gates each pass, and prints ``RESULT <json>`` last.
With --trace 1, untraced and traced passes alternate, so that the tracing
overhead is measured within the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_qglab():
    """Import qglab from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "qglab", "__init__.py")):
        raise SystemExit("worker: no qglab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import qglab
    if not os.path.abspath(qglab.__file__).startswith(SRC + os.sep):
        raise SystemExit("worker: qglab imported from %s, not %s"
                         % (qglab.__file__, SRC))
    import qglab.suite  # noqa: F401  (brings in every layer)
    return qglab


def expected_names(workload):
    with open(os.path.join(HERE, "expected_records.json")) as fh:
        return json.load(fh)[workload]


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_qglab()
    import workloads
    inp = workloads.make_inputs(args.workload, args.seed)
    names = expected_names(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.workload)
    untraced, traced = [], []
    attempted = failed = 0
    digests, kesten, pi_lower, problems = set(), [], [], []
    per_pass = len(names) + (args.workload == "fock-certify")
    t_start = time.perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            if trace_this:
                with tracer.traced_pass(index):
                    outcome = workloads.run_pass(inp, span=tracer.span)
            else:
                outcome = workloads.run_pass(inp)
        except Exception:
            traceback.print_exc()
            outcome = None
        dt = time.perf_counter() - t0
        (traced if trace_this else untraced).append(dt)
        if outcome is None:
            attempted += per_pass
            failed += per_pass
            problems.append("pass %d raised" % index)
            break
        verdict = workloads.check_pass(inp, outcome, names)
        attempted += verdict.attempted
        failed += verdict.failed
        problems.extend("pass %d: %s" % (index, p) for p in verdict.problems)
        digests.add(workloads.payload_digest(outcome.records))
        if outcome.kesten is not None:
            kesten.append(outcome.kesten)
        pi_lower.extend(r.value for r in outcome.records
                        if r.name == workloads.PI_LOWER_RECORD)
        index += 1
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(untraced + traced)
        # End as close to the budget as whole passes allow; a traced run
        # ends after a traced pass, so both kinds are equally many.
        if elapsed + typical / 2 >= args.seconds and (tracer is None or index % 2 == 0):
            break

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "digests": sorted(digests),
        "kesten": kesten,
        "kesten_exact": workloads.kesten_exact(inp.params),
        "pi_lower_16": pi_lower,
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(args.seed),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
