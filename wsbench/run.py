#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Run from the root of a checkout:

    python3 wsbench/run.py --workload loan_policy --seed 1 --seconds 25 --trace 0
    python3 wsbench/run.py --smoke            # every workload once, verdicts only

The harness is built under .bench_build/ with CMake from wsbench/CMakeLists.txt,
which compiles the repository's own sources. Each workload runs in a process
of its own; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See wsbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "wsbench")
WORK_DIR = os.path.join(BUILD_ROOT, "runs")
HARNESS = os.path.join(BUILD_DIR, "wsbench_harness")
WORKLOADS = ("loan_policy", "loan_displayed_policy", "shop_sweep")
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; leave room for the up-to-date build check.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"wsbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT)
    if done.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail(f"command failed: {' '.join(cmd)}\n{tail}")


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the "
                 "repository")
    os.makedirs(WORK_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log_path)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "wsbench_harness",
                "-j", jobs], log_path)


def commit():
    """The checkout's git commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def harness(workload, seed, seconds, trace, extra=()):
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--work", WORK_DIR, "--commit", commit(), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {HARNESS_TIMEOUT_S} s")
    return done.returncode, done.stdout


def smoke(seed):
    """Runs every workload once (and the witness workload at 4 jobs too) and
    checks the verdicts; no timing is meaningful here."""
    runs = [(w, ()) for w in WORKLOADS]
    runs.append(("loan_displayed_policy", ("--jobs", "4")))
    failures = 0
    for workload, extra in runs:
        code, out = harness(workload, seed, 0, 0, ("--once", *extra))
        verdict = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"smoke {workload} {' '.join(extra)}: {verdict}")
        if code != 0:
            failures += 1
            sys.stdout.write(out)
    print(f"smoke: {len(runs) - failures} of {len(runs)} runs correct")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload once and check verdicts")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or use --smoke)")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    build()
    if args.smoke:
        return smoke(args.seed)
    code, out = harness(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
