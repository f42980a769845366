"""Determinism check from outside: same seed, same bytes and counts.

    python3 perfbench/determinism.py --workload verify --seed 7

Runs the benchmark four times on one seed, one pass each: twice untraced
and twice traced.  All four must write byte-identical output files
(clustering JSON, verify reports, generated instances), and the two traced
runs must record equal per-job counts (sweep candidates, oracle subsets,
validated cells, falsifier perturbations).  Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run failed: {proc.stderr}")
    lines = proc.stdout.splitlines()
    fields = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "outputs": fields["outputs_sha256"],
            "counts": json.loads(fields["counts"]) if trace else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep-solve", "large-n", "verify"))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    runs = [run(args.workload, args.seed, trace) for trace in (0, 0, 1, 1)]
    problems = []
    if not all(r["correct"] for r in runs):
        problems.append("a run had failed jobs")
    if len({r["outputs"] for r in runs}) != 1:
        problems.append("output bytes differ: "
                        + " ".join(r["outputs"][:12] for r in runs))
    if runs[2]["counts"] != runs[3]["counts"]:
        problems.append("traced counts differ between two runs")
    jobs = runs[2]["counts"]
    totals = {}
    for per_job in jobs.values():
        for name, count in per_job.items():
            totals[name] = totals.get(name, 0) + count
    print(f"{args.workload} seed {args.seed}: outputs {runs[0]['outputs']}")
    print(f"counts per pass {json.dumps(totals, sort_keys=True)}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print("deterministic" if not problems else "NOT deterministic")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
