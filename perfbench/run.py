#!/usr/bin/env python3
"""Build and run the simulator benchmark (definitions in README.md).

From the repository root:

    python3 perfbench/run.py --workload suite_serial --seed 1 \
        --seconds 50 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-expected

A benchmark run builds perfbench/ (and the simulator library under src/)
into $CARGO_TARGET_DIR (default .bench_build), runs the harness, and
passes its output through: a metric table on lines starting with '#',
then one JSON object as the last line. Any build or harness failure
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite_serial", "sweep_4t", "cold_validate")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def out_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = out_dir()
    cmake_dir = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=log,
                                      cwd=ROOT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(cmake_dir, "perfbench")


def provenance():
    """(commit, source digest): the commit when the tree is a git
    checkout, and a content digest of the simulator and benchmark
    sources, which identifies the code either way."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True).stdout.strip() or commit
        except OSError:
            pass
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def run_harness(exe, workload, seed, seconds, trace, extra=(),
                expected=True):
    """Run one harness process; returns (stdout lines, parsed result)."""
    out = out_dir()
    workdir = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    commit, digest = provenance()
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--commit", commit,
           "--source-digest", digest]
    if expected:
        cmd += ["--expected", EXPECTED]
    if trace:
        trace_dir = os.path.join(out, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            trace_dir, "%s-seed%s.json" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("harness exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    return lines, result


def selftest(exe):
    """Metric names/units match BENCHMARK.json on every workload in both
    modes; every job passes on tiny sizes (two passes, so stats repeat
    across runs, and the traced run's knob probe compares 1 vs 4 engine
    threads); an injected framebuffer mismatch is counted as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            _, res = run_harness(exe, workload, DEFAULT_SEED, 0, trace,
                                 ["--tiny", "--passes", "2"], False)
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            tag = "%s trace=%d" % (workload, trace)
            if got != want:
                problems.append("%s: metrics %s != BENCHMARK.json %s"
                                % (tag, sorted(got.items()),
                                   sorted(want.items())))
            for name, m in res["metrics"].items():
                if not isinstance(m.get("value"), (int, float)) \
                        or not math.isfinite(m["value"]):
                    problems.append("%s: %s has no numeric value"
                                    % (tag, name))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: %d of %d jobs failed"
                                % (tag, res["failed"], res["attempted"]))
            print("selftest %-24s %d metrics, %d jobs, %d failed"
                  % (tag, len(got), res["attempted"], res["failed"]))
    _, res = run_harness(exe, "suite_serial", DEFAULT_SEED, 0, 0,
                         ["--tiny", "--passes", "1",
                          "--inject-mismatch", "1"], False)
    print("selftest injected mismatch: %d failed, correct=%s"
          % (res["failed"], res["correct"]))
    if res["failed"] < 1 or res["correct"]:
        problems.append("an injected framebuffer mismatch was not counted")
    for p in problems:
        print("SELFTEST FAILED: " + p)
    return 1 if problems else 0


def record_expected(exe):
    """Record every job's stats digest for the default and held-out
    seeds (one pass each) into expected.json."""
    digests = {}
    record = os.path.join(out_dir(), "record.json")
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            _, res = run_harness(exe, workload, seed, 0, 0,
                                 ["--passes", "1", "--record", record],
                                 False)
            if not res["correct"]:
                fail("%s seed %d failed; not recording" % (workload, seed))
            with open(record) as f:
                digests.setdefault(workload, {})[str(seed)] = json.load(f)
            print("recorded %s seed %d" % (workload, seed))
    os.remove(record)
    with open(EXPECTED, "w") as f:
        json.dump({"default_seed": DEFAULT_SEED,
                   "heldout_seed": HELDOUT_SEED,
                   "digests": digests}, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.record_expected):
        parser.error("--workload, --selftest or --record-expected needed")

    exe = build()
    if args.selftest:
        return selftest(exe)
    if args.record_expected:
        return record_expected(exe)
    lines, _ = run_harness(exe, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
