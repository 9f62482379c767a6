#!/usr/bin/env python3
"""Builds and runs the outside-in benchmark of the AquaCMP pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload freqcap|npb|service_mix \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which builds the library
from src/) into .bench_build/perfbench; later calls only rebuild what
changed. The benchmark's output is passed through; its last line is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def build(env):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "aqua_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "aqua_perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    for path in (BUILD, WORK, TMP):
        os.makedirs(path, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AQUA_")}
    env["TMPDIR"] = TMP
    try:
        binary = build(env)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    cmd = [binary] + argv + ["--root", ROOT, "--workdir", WORK]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
