#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list [--workload NAME]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(relative to the root) or .bench_build; configuring and compiling the
library takes a few minutes the first time and is a no-op afterwards.
Build output goes to stderr, so the last stdout line is the
benchmark's JSON result.  With --trace 1 the spans are also written as
Chrome trace-event JSON to <build dir>/trace-<workload>-<seed>.json.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent


def build(build_dir):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the library sources (src/, CMakeLists.txt) are "
                 "missing next to perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    build_dir = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        name = f"trace-{option(args, '--workload')}-{option(args, '--seed')}.json"
        args += ["--trace-out", str(build_dir / name)]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
