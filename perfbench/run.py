#!/usr/bin/env python3
"""Wall-clock benchmark of the HDoV-tree program, run from the repo root.

    python3 perfbench/run.py --workload build|query|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles the program's libraries
from ../src) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), prepares the large world for the read-only workloads in a
separate process, runs the measurement, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("build", "query", "serve")
PINNED_ENV = ("HDOV_SEARCH_BACKEND", "HDOV_PREFETCH", "HDOV_BENCH_SCALE")
# A run must end within 180 s; leave room for process start and clean-up.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 800.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(REPO, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return -1


def build_binary():
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench"], BUILD_TIMEOUT_S) != 0:
        fail("build failed", 1)
    return os.path.join(out, "perfbench")


def git_rev():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Returns a list of problems with the binary's result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are " + ", ".join(sorted(result))]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(want) != set(got):
        problems.append("metrics missing: %s; undeclared: %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name in set(want) & set(got):
        if want[name] != got[name]:
            problems.append("%s: unit %s, declared %s" % (
                name, got[name], want[name]))
    return problems


def measure(args, binary, deadline):
    runs = os.path.join(build_dir(), "runs")
    work = os.path.join(runs, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [binary, "run", "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace, "--work-dir=" + work]
        if args.workload != "build" and not args.trace:
            db = os.path.join(work, "world.hdov")
            if run_quiet([binary, "prepare", "--out=" + db],
                         deadline - time.monotonic()) != 0:
                fail("preparing the world failed", 1)
            cmd.append("--db=" + db)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()),
                                  check=False)
        except subprocess.TimeoutExpired:
            fail("measurement timed out", 1)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail("measurement exited with %d" % proc.returncode, 1)
        trace = os.path.join(work, "trace.json")
        if os.path.exists(trace):
            keep = os.path.join(build_dir(), "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.move(trace, os.path.join(
                keep, "trace-%s-seed%d.json" % (args.workload, args.seed)))
        return proc.stdout.splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest(binary):
    if run_quiet([binary, "selftest"], 60) != 0:
        fail("C++ self-tests failed", 1)
    spec = load_spec()
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        problems.append("BENCHMARK.json keys: %s" % sorted(spec))
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != WORKLOADS:
        problems.append("workloads %s, run.py knows %s" % (names, WORKLOADS))
    for w in spec["workloads"]:
        why = w["why"]
        # Each workload records why it exists, which layers it stresses and
        # which it bypasses.
        if "stresses" not in why or "bypasses" not in why:
            problems.append("%s: why must name the layers it stresses and "
                            "bypasses" % w["name"])
        if len(why) > 200 or "\n" in why:
            problems.append("%s: why must be one line of <= 200 chars"
                            % w["name"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    setup = e2e.get("setup_s", {})
    if setup.get("unit") != "s" or setup.get("better") != "lower":
        problems.append("setup_s must be in s, lower is better")
    if setup.get("bound") != max(m["bound"] for m in e2e.values()):
        problems.append("setup_s must have the largest bound")
    if any(not 0 < m["bound"] <= 0.25 for m in e2e.values()):
        problems.append("every bound must be in (0, 0.25]")
    for problem in problems:
        log("selftest: " + problem)
    if problems:
        sys.exit(1)
    print("selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("program source not found at %s/src" % REPO)
    for name in PINNED_ENV:
        if name in os.environ:
            fail("refusing to run: %s is set" % name)
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build_binary()
    if args.selftest:
        selftest(binary)
        return
    # The first build may take long; a run measures from here.
    deadline = max(deadline, time.monotonic() + RUN_DEADLINE_S - 10)

    lines = measure(args, binary, deadline)
    if not lines:
        fail("no output from the measurement", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON", 1)
    problems = check_result(result, load_spec(), args.trace)
    if problems:
        fail("; ".join(problems), 1)
    for line in lines[:-1]:
        print(line)
    print("git: " + git_rev())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
