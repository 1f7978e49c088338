#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare A.json B.json

A run builds the perfbench binary (perfbench/CMakeLists.txt) into .bench_build (or
$CARGO_TARGET_DIR), runs the workload, checks that the output carries
every metric BENCHMARK.json names for the mode with the right unit, prints
one line per metric, saves the full result under .perfbench_out/ and ends
with the one-line JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the perfbench binary and dgnn_serve."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no repository sources next to perfbench/ "
                         "(expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
               "dgnn_serve"])
    return os.path.join(out, "perfbench"), os.path.join(out, "dgnn_serve")


def run_quiet(cmd):
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def source_revision():
    """git revision when the checkout is a repository, else a content hash
    of everything the benchmark builds from."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        in_repo = (top.returncode == 0 and
                   os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT))
        if in_repo and p.returncode == 0 and p.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain", "src",
                                    "examples", "perfbench"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
            return "git:" + p.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for fp in files:
            h.update(os.path.relpath(fp, ROOT).encode())
            with open(fp, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run_workload(binary, serve_bin, workload, seed, seconds, trace,
                 tiny=False, inject_mismatch=False):
    """Runs the perfbench binary once; returns its parsed result object."""
    work = os.path.join(".perfbench_work",
                        "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--work_dir=" + work, "--serve_bin=" + serve_bin]
    if tiny:
        cmd.append("--tiny")
    if inject_mismatch:
        cmd.append("--inject_mismatch")
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
        spans = os.path.join(ROOT, work, "spans.json")
        if trace and os.path.isfile(spans):
            os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
            shutil.copy(spans, os.path.join(
                ROOT, ".perfbench_out", "spans-%s-seed%d.json" % (workload, seed)))
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if p.returncode != 0:
        log(p.stderr[-4000:])
        raise BenchError("perfbench exited with code %d" % p.returncode)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("perfbench printed no result")
    return json.loads(lines[-1])


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def validate(result, spec, trace, require_correct=False):
    """Raises BenchError unless the result carries every metric the mode
    names, each a finite number with the unit BENCHMARK.json gives."""
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        raise BenchError("result has no metrics object")
    for m in expected_metrics(spec, trace):
        got = metrics.get(m["name"])
        if got is None:
            raise BenchError("metric %s missing" % m["name"])
        if got.get("unit") != m["unit"]:
            raise BenchError("metric %s has unit %r, expected %r" %
                             (m["name"], got.get("unit"), m["unit"]))
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError("metric %s is not a finite number" % m["name"])
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            raise BenchError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise BenchError("nothing was attempted")
    if not isinstance(result.get("correct"), bool):
        raise BenchError("correct is not a boolean")
    if require_correct and not result["correct"]:
        bad = [c["name"] + ": " + c["detail"] for c in result.get("checks", [])
               if not c["ok"]]
        raise BenchError("output check failed: " + "; ".join(bad))


def contract_line(result, spec, trace):
    metrics = {}
    for m in expected_metrics(spec, trace):
        got = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_report(result, spec, trace):
    stamp = result["stamp"]
    print("perfbench %s trace=%d seed=%d  host: nproc=%d isa=%s mode=%s "
          "compiler=%s build=%s revision=%s" %
          (result["workload"], trace, stamp["seed"], stamp["nproc"],
           stamp["isa"], stamp["kernel_mode"], stamp["compiler"],
           stamp["build_type"], stamp.get("revision", "?")))
    for c in result.get("checks", []):
        print("  check %-40s %s  %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                        c["detail"]))
    named = [m["name"] for m in expected_metrics(spec, trace)]
    extra = sorted(set(result["metrics"]) - set(named))
    for title, names in (("metrics", named), ("also measured, not bounded", extra)):
        if names:
            print("  %s:" % title)
        for name in names:
            got = result["metrics"][name]
            tail = ("  [" + got["tail"] + "]") if got.get("tail") else ""
            print("    %-34s %14.6g %-6s n=%d%s" % (name, got["value"],
                                                    got["unit"], got["samples"],
                                                    tail))


def save(result, workload, seed, trace):
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path


# Stamp fields that must agree before two results may be compared; the
# revision is what a comparison is about, so it may differ.
COMPARABLE = ("nproc", "isa", "kernel_mode", "compiler", "build_type", "seed",
              "tiny")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a.get("workload") != b.get("workload") or a.get("trace") != b.get("trace"):
        log("refusing to compare: different workload or mode")
        return 2
    diff = [k for k in COMPARABLE if a["stamp"].get(k) != b["stamp"].get(k)]
    if diff:
        log("refusing to compare: stamps differ in " + ", ".join(
            "%s (%r vs %r)" % (k, a["stamp"].get(k), b["stamp"].get(k))
            for k in diff))
        return 2
    print("%s: %s -> %s" % (a["workload"], a["stamp"].get("revision"),
                            b["stamp"].get("revision")))
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        rel = (vb - va) / va if va else float("nan")
        print("  %-34s %14.6g %14.6g %+8.1f%%" % (name, va, vb, 100 * rel))
    return 0


def selftest():
    """Tiny runs of every workload in both modes, plus must-fail cases."""
    spec = load_spec()
    binary, serve_bin = build()
    failures = []
    sample = None
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            t0 = time.time()
            try:
                r = run_workload(binary, serve_bin, w, 1, 2, trace, tiny=True)
                validate(r, spec, trace, require_correct=True)
                if sample is None and trace == 0:
                    sample = r
                log("selftest %s trace=%d ok (%.1fs)" % (w, trace, time.time() - t0))
            except BenchError as e:
                failures.append("%s trace=%d: %s" % (w, trace, e))
    # Must-fail: a result with a metric missing.
    if sample is not None:
        broken = json.loads(json.dumps(sample))
        del broken["metrics"][spec["end_to_end"][0]["name"]]
        try:
            validate(broken, spec, 0)
            failures.append("a result with a missing metric was accepted")
        except BenchError:
            log("selftest missing-metric case rejected: ok")
    # Must-fail: a forced output mismatch on each kind of check.
    for w, trace in (("train", 1), ("serve-mixed", 0), ("serve-mixed", 1),
                     ("serve-retrieval", 0)):
        r = run_workload(binary, serve_bin, w, 1, 2, trace, tiny=True,
                         inject_mismatch=True)
        try:
            validate(r, spec, trace, require_correct=True)
            failures.append("forced mismatch on %s was accepted" % w)
        except BenchError:
            log("selftest forced-mismatch case on %s rejected: ok" % w)
    for f in failures:
        log("SELFTEST FAIL: " + f)
    print("selftest: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selftest:
            return selftest()
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %r (one of %s)" %
                             (args.workload, ", ".join(names)))
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        binary, serve_bin = build()
        result = run_workload(binary, serve_bin, args.workload, args.seed,
                              seconds, args.trace)
        result["stamp"]["revision"] = source_revision()
        validate(result, spec, args.trace)
        save(result, args.workload, args.seed, args.trace)
        print_report(result, spec, args.trace)
        print(contract_line(result, spec, args.trace), flush=True)
        return 0
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("perfbench: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
