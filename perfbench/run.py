#!/usr/bin/env python3
"""Builds the host-time benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark crate is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build), offline. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. A traced
run writes its spans to <target dir>/perfbench-spans/<workload>-<seed>.json.
The exit code is the build's if it fails, else the benchmark's.
"""

import os
import subprocess
import sys


def flag(args, name):
    """The value following `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        return build.returncode
    args = sys.argv[1:]
    if flag(args, "--trace") == "1":
        name = "%s-%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--spans", os.path.join(target, "perfbench-spans", name)]
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
