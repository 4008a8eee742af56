#!/usr/bin/env python3
"""Build and run the advbist benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/main.exe with dune inside the checkout (the
build log goes to standard error), then runs it with the same arguments.
The executable prints a report and, as the last line of standard output,
one JSON object with the results.
"""

import os
import subprocess
import sys


def run_timeout_s(argv):
    """How long a run may take before it counts as a hang.

    A run measures for --seconds, finishes its last pass, and then does a
    fixed amount of work: the set-ups and, with --trace 1, the traced pass
    and the parallel-path runs (about 20 s together on a 2-vCPU machine).
    Every solve also runs under a 60 s guard inside the executable.
    """
    seconds = 30.0
    if "--seconds" in argv[:-1]:
        try:
            seconds = max(0.0, float(argv[argv.index("--seconds") + 1]))
        except ValueError:
            pass  # the executable rejects the argument itself
    return 2 * seconds + 100


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run this from the root of an advbist source checkout",
              file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    timeout = run_timeout_s(sys.argv[1:])
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
