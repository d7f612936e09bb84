#!/usr/bin/env python3
"""Build the benchmark (Release, from ../src) if needed and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <bitmap_query|churn_soak|open_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Extra arguments (--workers, --rounds, --corrupt-sink) are passed on to the
benchmark binary. The build lives in $CARGO_TARGET_DIR (default
.bench_build) and span files of traced runs in .bench_out, both under the
repository root. The last line of standard output is the benchmark's JSON
result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(out, "fcos_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def main():
    binary = build(build_dir())
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
