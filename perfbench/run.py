#!/usr/bin/env python3
"""Builds and runs the embed_server wire benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload hot_verdict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the library, examples/embed_server and
the runner under .bench_build/perfbench (under $CARGO_TARGET_DIR instead, when
that is set); later runs only re-check the build. The runner's last stdout line is the JSON result; result files and
Chrome traces go to .bench_results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot_verdict", "cold_ring", "session_churn", "instance_sweep"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    return proc.returncode


def build(targets):
    for needed in ("CMakeLists.txt", "src", os.path.join("examples", "embed_server.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full repository checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    open(log_path, "w").close()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"], log_path):
            fail(f"cmake configure failed; see {log_path}")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", out, "-j", jobs, "--target", *targets], log_path):
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail(f"build failed; see {log_path}")
    return out


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "examples", "embed_server.cpp")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true", help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")], cwd=ROOT).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    out = build(["perfbench_runner", "example_embed_server"])
    cmd = [
        os.path.join(out, "perfbench_runner"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(out, "repo", "embed_server"),
        "--out-dir", os.path.join(ROOT, ".bench_results"),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
