#!/usr/bin/env python3
"""Build the benchmark in Release and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout. The library and the benchmark
are built from src/ into .bench_build/perfbench; the build's output is
shown only when it fails. The benchmark's last line of standard output
is its JSON result. A traced run also writes its spans as Trace Event Format to
.bench_build/traces/<workload>-seed<n>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("building the benchmark failed: " + " ".join(step))


def option(args, flag):
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def main():
    args = sys.argv[1:]
    build()
    if option(args, "--trace") == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}"
        args += ["--trace-out", os.path.join(traces, name + ".json")]
    # A plan-cache spill directory would make the benchmark write
    # outside the checkout and turn cold compiles into disk hits.
    env = dict(os.environ)
    env.pop("MSCCLANG_PLAN_CACHE_DIR", None)
    sys.stdout.flush()
    sys.exit(subprocess.run([BINARY] + args, env=env).returncode)


if __name__ == "__main__":
    main()
