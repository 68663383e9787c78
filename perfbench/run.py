#!/usr/bin/env python3
"""Build and run the lcsperf serving benchmark from the repository root.

    python3 perfbench/run.py --workload serve_mixed|route_fleet|fresh_parts \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # the benchmark's own tests

Builds the C++ driver (perfbench/CMakeLists.txt, which pulls in the lcs
library and lcsshard from this repository) into $CARGO_TARGET_DIR, default
.bench_build, then runs it.  The last line of stdout is the driver's JSON
result; build output goes to stderr.  Exits non-zero without a result when
the build fails or the driver does.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["serve_mixed", "route_fleet", "fresh_parts"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if shutil.which("cmake") is None:
        print("run.py: cmake not found", file=sys.stderr)
        return 2

    out_dir = build_dir()
    bin_dir = os.path.join(out_dir, "bin")
    if args.self_test:
        build(out_dir, ["lcsperf_tests"])
        return subprocess.run([os.path.join(bin_dir, "lcsperf_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    build(out_dir, ["lcsperf", "lcsshard"])
    work = os.path.relpath(os.path.join(os.path.dirname(out_dir), "work"), ROOT)
    cmd = [os.path.join(bin_dir, "lcsperf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--shard-bin", os.path.join(bin_dir, "lcsshard")]
    # Relative socket paths stay short, so the driver runs from the root.  Its
    # own process group holds the shard processes too, so a timeout stops all.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: lcsperf exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
