#!/usr/bin/env python3
"""Build and run the ddlock benchmark for one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload analyze-search --seed 1 --seconds 20 --trace 0

Builds `perfbench/bench.exe` and the `ddlock` CLI from source into
`.bench_build/` (release profile), runs the workload and passes its
output through.  The last line of stdout is the result JSON.  Exits
non-zero, without a result, when the tree cannot be built, and with
status 1 when an output check fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["analyze-search", "sim-matrix"]
BUILD_DIR = ".bench_build"
TMP_DIR = ".perfbench_tmp"
RUN_TIMEOUT_S = 170


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe", "./bin/ddlock_cli.exe"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def stop_group(pgid):
    """Stop whatever is left of the run's process group (a daemon whose
    parent died) and wait until it has gone."""
    try:
        os.killpg(pgid, signal.SIGTERM)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of the ddlock source tree", file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 3
    os.makedirs(TMP_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    cli = os.path.join(BUILD_DIR, "default", "bin", "ddlock_cli.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--tmp", TMP_DIR, "--rev", source_revision()]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 4
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
