"""Closed-loop benchmark of the `kcenter-pr` commands, run in-process.

    python3 perfbench/run.py --workload sweep-solve --seed 1 --seconds 30 --trace 0

One client sends one job at a time through `kcenter_resilience.cli.main`,
with the argv a user would type.  See perfbench/README.md for the
workloads and metrics.  The package is imported from `src/` beside this
directory, so the benchmark measures the checkout it sits in; without it
the benchmark exits 1 and prints no result.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-solve", "large-n", "verify")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kcenter_resilience",
                                       "__init__.py")):
        sys.exit(f"perfbench: no package at {SRC}/kcenter_resilience")
    sys.path[:0] = [HERE, SRC]
    import harness
    return harness.main(args, T_START)


if __name__ == "__main__":
    sys.exit(main())
