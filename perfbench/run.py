#!/usr/bin/env python3
"""Build and run the whole-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (which builds the asura library from the
enclosing source tree) into .bench_build/ at the root of the checkout,
trains the surrogate's weights once per build (perfbench_train, the same
file every time), then runs one workload. The benchmark's standard error
carries the build log and diagnostics; its last line of standard output is
the JSON result. Exits non-zero, without a result, when the build, the
training or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WEIGHTS = os.path.join(BUILD, "surrogate_weights.annx")
BUILD_TIMEOUT_S = 840
TRAIN_TIMEOUT_S = 400
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def train():
    """(Re)write the trained weights when they are missing or older than the
    trainer; its output goes to stderr."""
    trainer = os.path.join(BUILD, "perfbench_train")
    if (os.path.exists(WEIGHTS)
            and os.path.getmtime(WEIGHTS) >= os.path.getmtime(trainer)):
        return
    done = subprocess.run([trainer, WEIGHTS], stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env(), timeout=TRAIN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write("perfbench: training the surrogate failed\n")
        sys.exit(1)


def clean_env():
    """The benchmark pins every OpenMP team width itself; nothing is
    inherited from the caller's OpenMP settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_"))}
    env["OMP_NUM_THREADS"] = "1"
    env["OMP_DYNAMIC"] = "false"
    return env


def main(argv):
    selftest = argv[1:] == ["--selftest"]
    try:
        build()
        if selftest:
            cmd = [os.path.join(BUILD, "perfbench_selftest")]
        else:
            train()
            cmd = [os.path.join(BUILD, "perfbench")] + argv[1:] + ["--weights", WEIGHTS]
        done = subprocess.run(cmd, cwd=ROOT,
                              env=clean_env(), timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
