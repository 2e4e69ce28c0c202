#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from this checkout's
sources and runs one workload.

    python3 perfbench/run.py --workload scan_service --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --smoke      # self-test, a few seconds

The last line of standard output is the JSON result: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. Build
output goes to standard error. A run record (provenance, host
diagnostics and the full output) and, for traced runs, the span file
land in .bench_build/perfbench-runs/. perfbench/README.md describes
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUNS_DIR = os.path.join(BUILD_ROOT, "perfbench-runs")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# paper_methods is not in BENCHMARK.json (see perfbench/README.md) but
# stays runnable by hand and in the self-test.
WORKLOADS = ("paper_methods", "scan_service", "rw_snapshot")
BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SECONDS = 30  # BENCHMARK.json's run_seconds
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark program; False on any
    failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        log("perfbench: engine sources (src/) not found in " + ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Commit and dirty flag when the checkout is a git repository, and
    always a digest of the sources the binary was built from."""
    sha = git("rev-parse", "HEAD") or "none"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("1" if status else "0")
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {"git_sha": sha, "git_dirty": dirty,
            "source_digest": digest.hexdigest()[:16]}


def run_benchmark(workload, seed, seconds, trace, smoke):
    """Runs the benchmark program once; returns (exit code, stdout)."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", RUNS_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return done.returncode, done.stdout


def write_record(workload, seed, trace, prov, code, stdout):
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    try:
        with open("/proc/loadavg") as f:
            loadavg = f.read().split()[:3]
    except OSError:
        loadavg = None
    record = {"workload": workload, "seed": seed, "trace": trace,
              "provenance": dict(prov, build_type=BUILD_TYPE),
              "loadavg_at_end": loadavg, "exit_code": code,
              "output": lines[:-1], "result": result}
    path = os.path.join(RUNS_DIR, "%s-seed%s-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return result


def smoke():
    """Self-test: every workload, untraced and traced, on a tiny corpus.
    Asserts each metric BENCHMARK.json names is printed with its unit
    and that no answer was wrong."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_benchmark(workload, 1, 0.6, trace, True)
            lines = out.splitlines()
            tag = "%s trace=%d" % (workload, trace)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(tag + ": no JSON result line")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(tag + ": exit %d, correct=%s, failed=%s"
                                % (code, result["correct"], result["failed"]))
            metrics = result["metrics"]
            names = {m["name"] for m in expected[trace]}
            if set(metrics) != names:
                problems.append(tag + ": metric set differs: %s"
                                % sorted(set(metrics) ^ names))
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(tag + ": %s missing or wrong unit"
                                    % m["name"])
                elif not any(l.startswith("metric " + m["name"] + " ")
                             for l in lines):
                    problems.append(tag + ": %s not printed" % m["name"])
            print("smoke %-24s ok=%s attempted=%d error_rate=%g"
                  % (tag, code == 0, result["attempted"],
                     result["failed"] / max(1, result["attempted"])))
    for p in problems:
        log("smoke FAIL: " + p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test on a tiny corpus")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    prov = provenance()
    code, out = run_benchmark(args.workload, args.seed, args.seconds,
                              args.trace, False)
    result = write_record(args.workload, args.seed, args.trace, prov, code,
                          out)
    if result is None:
        sys.stderr.write(out)
        log("perfbench: the benchmark printed no result")
        return code or 1
    print("provenance: git_sha=%s git_dirty=%s source_digest=%s"
          % (prov["git_sha"], prov["git_dirty"], prov["source_digest"]))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
