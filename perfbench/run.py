#!/usr/bin/env python3
"""Build perfbench from this checkout's sources, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally on every run); build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
Trace files land in perfbench/out/.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/CMakeLists.txt beside perfbench/; run it "
              "from a full checkout of the repository", file=sys.stderr)
        return False
    if not any(os.path.isfile(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "--target", "perfbench",
                            "-j", jobs], stdout=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, "perfbench", "out")
    return subprocess.call([BINARY, *sys.argv[1:], "--out", out_dir],
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
