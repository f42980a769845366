"""Output checks: every job's result is compared with what it must be.

A check returns None when the output is right and a one-line reason when
it is not.  Partitions are compared with the planted truth, never printed
radii alone: `thm3` prints the farthest-first cost, which is not r*.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from kcenter_resilience.core import epsilon_distance
from kcenter_resilience.kci import parse_clustering


@dataclass
class Result:
    """What one job did: exit code, stdout, exception text, wall seconds,
    and the wall seconds of the reference loop timed after it."""

    rc: int = None
    stdout: str = ""
    error: str = None
    seconds: float = 0.0
    ref_seconds: float = 0.0


def read_table(path):
    """Distance rows of a KCI file, without the n^3 validation."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    n = int(lines[2].split()[1])
    return np.array([row.split() for row in lines[3:3 + n]], dtype=float)


def read_clustering(path):
    with open(path) as fh:
        return parse_clustering(fh.read())


def assignment_cost(table, clustering):
    """Largest distance from a cluster's center to one of its members."""
    centers = np.asarray(clustering.centers)[np.asarray(clustering.assignment)]
    return float(table[centers, np.arange(table.shape[0])].max())


def job_outputs(job, out):
    """Files a job writes, in a fixed order."""
    argv = [a.replace("{out}", out) for a in job.argv]
    if job.kind == "generate":
        prefix = argv[argv.index("--out-prefix") + 1]
        return [prefix + ext for ext in (".kci", ".truth.json",
                                         ".guarantee.json")]
    return [argv[argv.index("--out") + 1]]


def _lines(stdout):
    """`key value` lines of a command's stdout as a dict."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def _partition_error(found, truth):
    if found.k != truth.k or found.n != truth.n:
        return f"k/n {found.k}/{found.n} != truth {truth.k}/{truth.n}"
    dist = epsilon_distance(found, truth)
    if dist != 0:
        return f"epsilon distance to planted truth is {dist}"
    return None


def check_solve(job, res, inputs, out):
    status = _lines(res.stdout).get("status")
    if status != job.expect["status"]:
        return f"status {status!r}, expected {job.expect['status']!r}"
    found = read_clustering(job_outputs(job, out)[0])
    truth = read_clustering(f"{inputs}/{job.instance}.truth.json")
    table = read_table(f"{inputs}/{job.instance}.kci")
    if found.radius != assignment_cost(table, found):
        return f"written radius {found.radius!r} is not the clustering's cost"
    if status == "approximation-only":
        if found.radius > 2 * truth.radius:
            return f"radius {found.radius!r} > 2 x planted {truth.radius!r}"
        return None
    return _partition_error(found, truth)


def check_verify(job, res, inputs, out):
    printed = _lines(res.stdout).get("falsifier")
    if printed != job.expect["falsifier"]:
        return f"falsifier {printed!r}, expected {job.expect['falsifier']!r}"
    with open(job_outputs(job, out)[0]) as fh:
        report = json.load(fh)
    fals = report["falsifier"]
    if fals["status"] != printed:
        return f"report status {fals['status']!r} != printed {printed!r}"
    if printed == "none-found":
        if fals["tried"] != job.expect["budget"]:
            return f"tried {fals['tried']} perturbations, not the budget"
        return None
    cex = report["counterexample"]
    base = read_table(f"{inputs}/{job.instance}.kci")
    rows = cex["dprime_kci"].splitlines()[3:]
    dprime = np.array([row.split() for row in rows], dtype=float)
    alpha = cex["alpha"]
    if dprime.shape != base.shape or not (
            np.all(dprime >= base) and np.all(dprime <= alpha * base)):
        return "counterexample d' is not within [d, alpha d]"
    if not cex["epsilon_distance"] > report["epsilon"]:
        return "counterexample is not farther than epsilon from OPT"
    return None


def check_oracle(job, res, inputs, out):
    printed = float(_lines(res.stdout)["radius"])
    found = read_clustering(job_outputs(job, out)[0])
    table = read_table(f"{inputs}/{job.instance}.kci")
    cost = assignment_cost(table, found)
    if not printed == found.radius == cost:
        return (f"printed radius {printed!r}, written {found.radius!r}, "
                f"cost {cost!r} differ")
    truth_path = f"{inputs}/{job.instance}.truth.json"
    if os.path.exists(truth_path):
        return _partition_error(found, read_clustering(truth_path))
    return None


def check_generate(job, res, inputs, out):
    kci, truth_path, _ = job_outputs(job, out)
    spec = job.spec
    table = read_table(kci)
    truth = read_clustering(truth_path)
    n = int(spec.flags[spec.flags.index("--n") + 1])
    if table.shape != (n, n) or truth.n != n:
        return f"wrote {table.shape} table and {truth.n}-point truth, not n={n}"
    if np.any(np.diag(table) != 0):
        return "nonzero diagonal"
    if truth.radius != assignment_cost(table, truth):
        return "truth radius is not the truth clustering's cost"
    nearest = table[np.asarray(truth.centers)].argmin(axis=0)
    if tuple(nearest.tolist()) != truth.assignment:
        return "truth is not the Voronoi partition of its centers"
    if spec.family == "planted-sym":
        labels = np.asarray(truth.assignment)
        cross = table[labels[:, None] != labels[None, :]].min()
        if np.any(table != table.T):
            return "symmetric instance is not symmetric"
        if truth.radius > spec.r or not cross > 2 * spec.alpha * spec.r:
            return (f"planted radius {truth.radius!r} or separation "
                    f"{cross!r} misses the guarantee")
    return None


CHECKS = {"solve": check_solve, "verify": check_verify,
          "oracle": check_oracle, "generate": check_generate}


def check(job, res, inputs, out):
    """None if the job's exit code and outputs are right, else the reason."""
    if res.error is not None:
        return f"raised {res.error}"
    if res.rc != job.expect_rc:
        return f"exit code {res.rc}, expected {job.expect_rc}"
    try:
        return CHECKS[job.kind](job, res, inputs, out)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
