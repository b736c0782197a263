#!/usr/bin/env python3
"""Build the acfc benchmark from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 30 --trace 0

The benchmark binary is built with dune (release profile) into
.bench_build/ and then run with the same arguments; its last line of
standard output is the JSON result. `--workload all` runs every workload
in turn, each in its own process, so no workload's heap high-water mark
leaks into another's. Build output goes to standard error. The exit code
is nonzero, with no result printed, if the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["paper-apps", "fig5-mixes", "policy-replay", "fleet-16"]
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd to completion; kill it (and wait) if it overruns."""
    with subprocess.Popen(cmd, stdout=stdout) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 124


def dune_command():
    """dune from PATH, else through the opam switch if opam is on PATH."""
    dune = shutil.which("dune")
    if dune is not None:
        return [dune]
    opam = shutil.which("opam")
    if opam is not None:
        return [opam, "exec", "--", "dune"]
    return None


def build(root):
    dune = dune_command()
    if dune is None:
        print("perfbench: neither dune nor opam found on PATH", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: not at the root of an acfc source tree", file=sys.stderr)
        return None
    build_dir = os.path.join(root, BUILD_DIR)
    cmd = dune + ["build", "--root", root, "--build-dir", build_dir,
                  "--profile", "release", "--cache", "disabled",
                  "./perfbench/main.exe"]
    if run(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    exe = build(root)
    if exe is None:
        return 1
    out = os.path.join(root, BUILD_DIR, "perfbench-out")
    os.makedirs(out, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--digests", os.path.join(root, "perfbench", "digests.txt"),
               "--out", out]
        sys.stdout.flush()
        status = run(cmd, RUN_TIMEOUT_S, None)
        if status != 0:
            print(f"perfbench: {workload} exited with {status}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
