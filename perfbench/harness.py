"""Set-up, timed passes, output checks and the metrics line of one run.

Importing the package, writing the workload's input files and a warm-up
on tiny instances form the set-up, timed as `setup_s`; writing the inputs
and the warm-up are done SETUP_REPEATS times and their median is added to
the import time.  Whole passes over the workload's job list then run until
about `--seconds` have gone, with a fixed reference loop timed after
each job.  Every job's exit code and output files are checked after the timed
part, and every pass must write the same bytes (and, traced, the same
counts) as the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

import numpy
import scipy

import kcenter_resilience.cli as cli
from kcenter_resilience.core import validate_instance

import workloads
from checks import Result, check, job_outputs
from tracing import (TRACED, Tracer, aggregate, covered_time, job_counts,
                     write_spans)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

# Spans of the layers each workload exists to stress.
TARGET_LAYERS = {
    "sweep-solve": {"solvers.sweep_radius", "solvers.weak_proximity_linkage"},
    "large-n": {"core.validate_instance", "kci.parse_instance",
                "kci.emit_instance", "kci.emit_clustering",
                "kci.write_atomic"},
    "verify": {"oracle.brute_force_optimal"},
}

# Layers whose call counts are reported beside their self time.
CALLS = ("solvers.sweep_radius", "core.threshold_components", "core.ball",
         "solvers.weak_proximity_linkage", "core.validate_instance",
         "oracle.brute_force_optimal", "analysis.check_structure")

# Counts recorded at a span boundary: span name -> (metric, unit).
COUNTS = {
    "solvers.sweep_radius": ("solvers.sweep_radius.candidates", "count"),
    "solvers.weak_proximity_linkage":
        ("solvers.weak_proximity_linkage.committed_edges", "count"),
    "core.validate_instance": ("core.validate_instance.cells", "count"),
    "kci.parse_instance": ("kci.parse_instance.bytes", "bytes"),
    "oracle.brute_force_optimal": ("oracle.brute_force_optimal.subsets",
                                   "count"),
    "oracle.falsify_resilience": ("oracle.falsify_resilience.perturbations",
                                  "count"),
}


def run_job(argv):
    """Run one command in-process; its stdout and stderr are captured."""
    out, err = io.StringIO(), io.StringIO()
    res = Result()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res.rc = cli.main(argv)
    except (Exception, SystemExit) as e:  # a failed job is counted, not fatal
        res.error = f"{type(e).__name__}: {e}"
    res.seconds = time.perf_counter() - start
    res.stdout = out.getvalue()
    return res


def set_up(workload, work):
    """Write the inputs with `generate`, then warm up on tiny instances."""
    inputs = os.path.join(work, "inputs")
    warm = os.path.join(work, "warmup")
    for path in (inputs, warm):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(inputs)
    os.makedirs(warm)
    tiny, warm_jobs = workload.warmup
    specs = workload.inputs + tiny
    for spec in specs:
        res = run_job(spec.generate_argv(f"{inputs}/{spec.name}"))
        if res.rc != 0 or res.error:
            sys.exit(f"perfbench: set-up could not generate {spec.name}: "
                     f"rc={res.rc} {res.error or ''}")
    radii = {}
    for spec in specs:
        if spec.planted:
            with open(f"{inputs}/{spec.name}.truth.json") as fh:
                radii[spec.name] = json.load(fh)["radius"]
    for job in warm_jobs:
        reason = check(job, run_job(job.argv_for(inputs, warm, radii)),
                       inputs, warm)
        if reason:
            sys.exit(f"perfbench: warm-up job {job.name!r} failed: {reason}")
    return inputs, radii


def reference_loop():
    """A fixed pure-Python loop of about 10 ms.

    Other tenants of a shared host slow the program and this loop alike,
    for stretches of seconds to minutes.  Its median time over a pass is
    the unit (`ref`) in which the gated times of that pass's jobs are
    stated.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def run_passes(workload, inputs, radii, work, seconds, tracer):
    """Whole passes until about `seconds` have gone.

    Returns (output directory, job results) per pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        out = os.path.join(work, f"pass-{len(passes)}")
        os.makedirs(out)
        results = []
        for j, job in enumerate(workload.jobs):
            argv = job.argv_for(inputs, out, radii)
            if tracer is None:
                res = run_job(argv)
            else:
                tracer.job = (len(passes), j)
                res = tracer.span("job", run_job)(argv)
            res.ref_seconds = reference_loop()
            results.append(res)
        passes.append((out, results))
        elapsed = time.perf_counter() - start
        # stop at the whole number of passes nearest to `seconds`
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_passes(workload, inputs, passes, counts):
    """Check every job; each pass must match the first in bytes and counts."""
    failures = []
    first = {}
    for p, (out, results) in enumerate(passes):
        for j, (job, res) in enumerate(zip(workload.jobs, results)):
            reason = check(job, res, inputs, out)
            if reason is None:
                sig = (digest(job_outputs(job, out)), counts.get((p, j)))
                if first.setdefault(j, sig) != sig:
                    reason = "output bytes or counts differ from the first pass"
            if reason:
                failures.append((p, job.name, reason))
    return failures


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def tail_percentile(count):
    """The highest whole percentile with at least 10 of `count` samples
    beyond it (p50 at the least)."""
    return max(50, min(99, int(100 - 1000 / count)))


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    mem_kb = 0
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/meminfo") as fh:
            mem_kb = int(fh.readline().split()[1])
    return (f"nproc={os.cpu_count()} mem_total_mb={mem_kb // 1024} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} git={git_sha()}")


def validate_peak_mb(samples):
    """Peak traced allocation of one validate_instance call per (n, mode).

    Measured after the timed passes, so tracemalloc slows no timed span.
    """
    peak = 0
    for key in sorted(samples):
        tracemalloc.start()
        try:
            validate_instance(samples[key], key[1])
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def layer_metrics(tracer, workload, passes):
    """Per-layer self times, calls and counts, each per pass."""
    spans = tracer.spans
    agg = aggregate(spans)
    npass = len(passes)

    def per_pass(name, key):
        return agg.get(name, {}).get(key, 0) / npass

    metrics = {}
    for layer, names in TRACED.items():
        for attr in names:
            metrics[f"{layer}.{attr}.s"] = (per_pass(f"{layer}.{attr}", "s"),
                                            "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (per_pass(name, "calls"), "count")
    for name, (metric, unit) in COUNTS.items():
        metrics[metric] = (per_pass(name, "count"), unit)
    candidates = per_pass("solvers.sweep_radius", "count")
    metrics["solvers.sweep_radius.accept_ratio"] = (
        per_pass("solvers.sweep_radius", "calls") / candidates
        if candidates else 0.0, "ratio")
    metrics["core.validate_instance.peak_mb"] = (
        validate_peak_mb(tracer.validate_samples), "MB")
    job_s = covered_time(spans, {"job"})
    metrics["job.s"] = (job_s / npass, "s")
    metrics["target_layer.share"] = (
        covered_time(spans, TARGET_LAYERS[workload.name]) / job_s, "ratio")
    return metrics


def main(args, t_start):
    import_s = time.perf_counter() - t_start
    workload = workloads.build(args.workload, args.seed)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs, radii = set_up(workload, work)
            setups.append(time.perf_counter() - start)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            passes = run_passes(workload, inputs, radii, work,
                                args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        counts = job_counts(tracer.spans) if tracer else {}
        failures = check_passes(workload, inputs, passes, counts)
        return report(args, workload, passes, failures, import_s, setups,
                      tracer, counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, workload, passes, failures, import_s, setups, tracer,
           counts):
    attempted = len(passes) * len(workload.jobs)
    failed = len(failures)
    # Wall clock, as a user sees it; printed, not gated.
    wall = [r.seconds for _, results in passes for r in results]
    tail = tail_percentile(len(wall))
    jobs_per_s = (attempted - failed) / sum(wall)
    # Gated: each job's time in units of the reference loop's median over
    # the same pass, then the job's median over the passes.  Host load
    # slows both alike, so the ratio holds where wall clock moves with the
    # other tenants.
    units = [statistics.median(r.ref_seconds for r in results)
             for _, results in passes]
    ratios = [[results[j].seconds / unit
               for (_, results), unit in zip(passes, units)]
              for j in range(len(workload.jobs))]
    job_ref = [statistics.median(r) for r in ratios]
    pass_ref = [sum(r[p] for r in ratios) for p in range(len(passes))]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} "
          f"jobs_per_pass={len(workload.jobs)}")
    print(f"env {environment()}")
    print("timings are wall clock, no CPU pinning; 1 ref = the reference "
          "loop's median time over the job's pass")
    print(f"noise_ref_s {statistics.median(units):.6f} (reference loop, "
          f"median over passes; not gated)")
    for job, t in zip(workload.jobs, job_ref):
        print(f"job {t:.4g} ref  {job.name}")
    for p, name, reason in failures:
        print(f"FAIL pass {p} {name}: {reason}")
    print(f"pass_ref mean/best {statistics.mean(pass_ref) / min(pass_ref):.3f}"
          + ("  SLOW PASSES: the mean pass is over 1.25x the best"
             if statistics.mean(pass_ref) > 1.25 * min(pass_ref) else ""))
    print(f"wall jobs_per_s {jobs_per_s:.6g} 1/s, job_s_p50 "
          f"{statistics.median(wall):.6g} s, job_s_p{tail} "
          f"{percentile(wall, tail):.6g} s over {len(wall)} jobs (not gated)")
    first_out = passes[0][0]
    print("outputs_sha256 " + digest(
        [path for job in workload.jobs for path in job_outputs(job, first_out)]))
    if tracer:
        first = {f"{j}": c for (p, j), c in sorted(counts.items()) if p == 0}
        print(f"counts {json.dumps(first, sort_keys=True)}")
        write_spans(tracer.spans,
                    os.path.join(WORK, f"trace-{args.workload}.tsv"))
        metrics = layer_metrics(tracer, workload, passes)
        metrics["traced.pass_ref"] = (statistics.median(pass_ref), "ref")
        metrics["traced.jobs_per_s"] = (jobs_per_s, "1/s")
    else:
        metrics = {
            "pass_ref": (statistics.median(pass_ref), "ref"),
            "job_ref_p50": (statistics.median(job_ref), "ref"),
            "job_ref_p90": (percentile(job_ref, 90), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "setup_s": (import_s + statistics.median(setups), "s"),
        }
        print(f"setup_s import {import_s:.4f} s + median of set-ups "
              f"{[round(s, 4) for s in setups]}; single sample "
              f"{import_s + setups[0]:.4f} s")
        print(f"job_ref over {len(job_ref)} jobs, each its median of "
              f"{len(passes)} passes; "
              f"{sum(t > metrics['job_ref_p90'][0] for t in job_ref)} "
              f"beyond p90")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_share {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
