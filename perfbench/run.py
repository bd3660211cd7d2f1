#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <cell_mc|array_flat|array_hier>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset or points outside the
working directory; later calls rebuild only what changed.  The workload runs
with every inherited FEFET_* variable removed and only the variables the
workload selects itself set.  The last line of standard output is the
benchmark's JSON result; the exit code is the benchmark's (0 correct,
1 a wrong output, 2 a build, usage or environment problem).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cell_mc", "array_flat", "array_hier")


def build_dir():
    root = os.getcwd()
    wanted = os.environ.get("CARGO_TARGET_DIR", "")
    path = os.path.realpath(os.path.join(root, wanted or ".bench_build"))
    real_root = os.path.realpath(root)
    if path == real_root or os.path.commonpath([path, real_root]) != real_root:
        path = os.path.join(root, ".bench_build")
    return path


def build(out):
    """Configure (once) and build the benchmark binaries into `out`."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail + "\nperfbench: build failed: " +
                                 " ".join(cmd) + "\n")
                if cmd is steps[0] and len(steps) == 2:
                    # A failed configure must not leave a cache that skips
                    # the configure step next time.
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                sys.exit(2)


def scrubbed_env(extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEFET_")}
    env.update(extra)
    return env


def workload_env(binary, workload):
    """The FEFET_* variables the workload selects itself (its solver)."""
    out = subprocess.run([binary, "--workload", workload, "--print-env"],
                         env=scrubbed_env({}), check=True,
                         capture_output=True, text=True).stdout
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    build(out)
    sys.stdout.flush()
    if args.self_test:
        return subprocess.call([os.path.join(out, "perfbench_selftest")],
                               env=scrubbed_env({}))

    binary = os.path.join(out, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference", args.workload + ".ref")]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(".bench_out", "trace_" + args.workload + ".json")]
    return subprocess.call(cmd, env=scrubbed_env(workload_env(binary, args.workload)))


if __name__ == "__main__":
    sys.exit(main())
