#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Configures perfbench/ (which builds the simulator from this source tree) in
a Release tree under $CARGO_TARGET_DIR (default .bench_build), runs the
harness's own unit tests, then runs one workload in the nomc-perf binary.
Its stdout passes through unchanged: a human-readable report, a run stamp,
and as the last line the JSON result. The exit code is nomc-perf's: non-zero
when the build fails or any output check fails.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_sweep", "crowded_trial", "service_mix")
# Time a run may take beyond its timed passes: set-up, probes and checks.
RUN_MARGIN_S = 100
UNIT_TEST_TIMEOUT_S = 60


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build nomc-perf and the harness tests."""
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=root, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(cmake_dir), "--target", "nomc-perf", "perfbench_tests",
               "-j", jobs]
    if subprocess.run(command, cwd=root, stdout=sys.stderr).returncode != 0:
        return None
    return cmake_dir


def commit_of(root):
    if not (root / ".git").exists():  # an exported tree: do not report an enclosing repo
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_group(command, cwd, timeout_s, stdout=None):
    """Run `command` in its own process group and wait up to `timeout_s`.

    The group (nomc-perf, nomc-serve and its workers) is killed when the
    run times out or when this script is asked to stop, so no process
    outlives the run.
    """
    process = subprocess.Popen(command, cwd=cwd, stdout=stdout, start_new_session=True)

    def kill_group():
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        # Orphaned grandchildren are re-parented here (subreaper); reap them.
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break

    def stop(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        return process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        kill_group()
        log(f"{command[0]} timed out after {timeout_s} s")
        return 1
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Become the reaper of orphaned descendants, so a killed run can still
    # wait for nomc-serve's workers (Linux PR_SET_CHILD_SUBREAPER).
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir

    cmake_dir = build(root, build_dir)
    if cmake_dir is None:
        log("build failed")
        return 1
    if run_group([str(cmake_dir / "perfbench_tests"), "--gtest_brief=1"], root,
                 UNIT_TEST_TIMEOUT_S, stdout=sys.stderr) != 0:
        log("harness unit tests failed")
        return 1

    # A relative work directory keeps the server's socket path short.
    work_dir = os.path.relpath(build_dir / "work" / args.workload, root)
    command = [str(cmake_dir / "nomc-perf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--commit", commit_of(root)]
    # A traced run makes two timed passes.
    passes = 2 if args.trace else 1
    return run_group(command, root, passes * args.seconds + RUN_MARGIN_S)


if __name__ == "__main__":
    sys.exit(main())
