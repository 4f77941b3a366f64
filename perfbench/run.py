"""qglab benchmark: one command for every workload.

    python3 perfbench/run.py --workload corpus-algebra --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a worker process (worker.py) whose BLAS/OpenMP thread
counts are pinned to 1.  With --trace 0 the end-to-end metrics are printed:
pass_s (median pass wall time), setup_s (median of several worker set-ups:
start to imports done and inputs made) and peak_rss_mb; with --trace 1 the
per-layer metrics of tracer.py.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full result,
with the environment, goes to perfbench/out/, and a traced run also writes
its spans there as JSON lines.

Exit codes: 0 every check passed, 1 a check failed, 2 the benchmark could
not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# A worker gets its measuring time plus this long to finish its last pass.
GRACE_S = 110


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    return env


def _start(argv):
    """Start a worker; return it and the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT,
                            env=_worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError("worker failed during set-up (exit %s)" % proc.returncode)
    return proc, setup


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish within %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise BenchError("worker exited with %s" % proc.returncode)
    return out


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qglab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (result dict, metrics dict)."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = _start(common + ["--setup-only"])
            _finish(proc, 60)
            setups.append(setup)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "%s-seed%d.spans.jsonl.gz" % (workload, seed))
    argv = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--trace-out", spans_path]
    proc, setup = _start(argv)
    setups.append(setup)
    out = _finish(proc, seconds + GRACE_S)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1][len("RESULT "):])
    res["setup_s"] = setups
    res["env"].update(commit=_git_commit(), src_sha256=_source_digest(),
                      seconds=seconds)
    if trace:
        metrics = dict(res.pop("layers"))
        # a run whose first pass raised has no traced pass
        t = statistics.median(res["traced_pass_s"] or [0.0])
        u = statistics.median(res["pass_s"])
        metrics["trace.pass_s"] = {"value": t, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": t - u, "unit": "s"}
        res["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "pass_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    res["metrics"] = metrics
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res, metrics


def summary(res, metrics):
    """Human-readable lines: every metric by name and unit, the gate, the env."""
    lines = ["workload %s (trace %d)" % (res["workload"], res["trace"])]
    passes = res["pass_s"]
    if res["trace"]:
        lines.append("  untraced pass_s   %.4f s  (median of %d passes)"
                     % (statistics.median(passes), len(passes)))
        lines.append("  trace.pass_s      %.4f s  (median of %d traced passes)"
                     % (metrics["trace.pass_s"]["value"], len(res["traced_pass_s"])))
        lines.append("  trace.overhead_s  %+.4f s" % metrics["trace.overhead_s"]["value"])
        selfs = sorted(((m["value"], k) for k, m in metrics.items()
                        if k.endswith(".self_s") and not k.startswith("suite.")),
                       reverse=True)
        total = metrics["trace.pass_s"]["value"] or 1.0
        for v, k in selfs[:6]:
            lines.append("  %-42s %.4f s  (%4.1f%% of the traced pass)"
                         % (k, v, 100.0 * v / total))
    else:
        lines.append("  pass_s            %.4f s  (median of %d passes; min %.4f, max %.4f)"
                     % (metrics["pass_s"]["value"], len(passes), min(passes), max(passes)))
        lines.append("  setup_s           %.4f s  (median of %d set-ups)"
                     % (metrics["setup_s"]["value"], len(res["setup_s"])))
        lines.append("  peak_rss_mb       %.2f MiB" % metrics["peak_rss_mb"]["value"])
    lines.append("  check_fail_ratio  %.6g 1  (%d failed of %d checks)"
                 % (res["failed"] / max(1, res["attempted"]), res["failed"],
                    res["attempted"]))
    if res["kesten"]:
        lines.append("  kesten_gap        %.9f 1  (2 sqrt(3) - certified %.9f)"
                     % (res["kesten_exact"] - statistics.median(res["kesten"]),
                        statistics.median(res["kesten"])))
    if res["pi_lower_16"]:
        lines.append("  pi_lower_16       %.6f 1" % statistics.median(res["pi_lower_16"]))
    lines.append("  payload digest    %s" % " ".join(res["digests"]))
    for p in res["problems"]:
        lines.append("  FAIL %s" % p)
    env = res["env"]
    lines.append("  env nproc=%s affinity=%s threads=%s python=%s numpy=%s scipy=%s "
                 "blas=%r commit=%s src=%s seed=%s passes=%d+%d"
                 % (env["nproc"], env["affinity"],
                    ",".join("%s=%s" % kv for kv in env["threads"].items()),
                    env["python"], env["numpy"], env["scipy"], env["blas"],
                    env["commit"][:12], env["src_sha256"], env["seed"],
                    len(passes), len(res["traced_pass_s"])))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res, metrics = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(summary(res, metrics)), flush=True)
            results.append((name, res, metrics))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for _, r, _ in results)
    failed = sum(r["failed"] for _, r, _ in results)
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {"%s.%s" % (name, k): v
                   for name, _, m in results for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
