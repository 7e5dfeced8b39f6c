#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark binary from
source (Release, into .bench_build/perfbench), runs one workload in its own
process and passes the binary's output through; the last stdout line is the
result object described in perfbench/README.md. Build logs go to stderr.
`--smoke 1` runs the workload at toy size (seconds, for tests).

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_cold", "serve_mixed", "serve_rank_large", "ingest_publish")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=root, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(command, cwd=root, stdout=sys.stderr).returncode == 0


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of the
    library and benchmark sources."""
    try:
        # Only a repository rooted at the checkout itself counts, not one
        # that happens to enclose it.
        sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True, timeout=10)
        lines = sha.stdout.split()
        if (sha.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(root)):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", default="0", choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    if not build(root, os.path.join(build_root, "perfbench")):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_root, "perfbench", "perfbench")
    run_dir = os.path.join(build_root, "runs", "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--smoke", args.smoke, "--run_dir", run_dir,
               "--source_id", source_id(root)]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print("perfbench: workload exited with %d" % run.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
