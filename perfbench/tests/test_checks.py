"""The benchmark's own checker: bad outputs must count as failed jobs.

Run with `python3 -m pytest perfbench/tests`.
"""

import json
import os

import pytest

import harness
import workloads
from checks import job_outputs
from kcenter_resilience import solvers
from tracing import Tracer
from workloads import Spec, Workload, _oracle, _solve, _verify


def tiny_workload(jobs):
    inputs = (Spec("s15", "planted-sym", ("--n", "15", "--k", "3"), 3),
              Spec("bc18", "bad-center-18", ("--alpha", "2")),
              Spec("r12", "random", ("--mode", "asymmetric", "--n", "12"), 4))
    return Workload("tiny", inputs, tuple(jobs), ((), ()))


def run(workload, tmp_path, seconds=0.0, tracer=None):
    work = str(tmp_path / "work")
    inputs, radii = harness.set_up(workload, work)
    passes = harness.run_passes(workload, inputs, radii, work, seconds,
                                tracer)
    return inputs, passes


def error_share(workload, inputs, passes, counts=None):
    failures = harness.check_passes(workload, inputs, passes, counts or {})
    return len(failures) / (len(passes) * len(workload.jobs))


GOOD = [_solve("s15", "thm5-3eps", 3), _solve("s15", "hs", 3),
        _verify("bc18", "0.0555", 3, "falsified"), _oracle("s15", 3),
        _oracle("r12", 3)]


def test_correct_outputs_pass(tmp_path):
    wl = tiny_workload(GOOD)
    inputs, passes = run(wl, tmp_path)
    assert error_share(wl, inputs, passes) == 0


def test_wrong_partition_is_an_error(tmp_path):
    wl = tiny_workload(GOOD[:1])
    inputs, passes = run(wl, tmp_path)
    path = job_outputs(wl.jobs[0], passes[0][0])[0]
    with open(path) as fh:
        data = json.load(fh)
    # move one non-center point into the next cluster
    moved = next(p for p in data["clusters"][0] if p != data["centers"][0])
    data["clusters"][0].remove(moved)
    data["clusters"][1].append(moved)
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert error_share(wl, inputs, passes) == 1


def test_unexpected_exit_code_is_an_error(tmp_path):
    # bad-center-18 is falsified, so verify exits 3, not the 0 expected here
    wl = tiny_workload([_verify("bc18", "0.0555", 0, "falsified")])
    inputs, passes = run(wl, tmp_path)
    assert error_share(wl, inputs, passes) == 1


def test_raised_exception_is_an_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver bug")

    wl = tiny_workload(GOOD[:2])
    monkeypatch.setattr(solvers, "symmetric_3eps", broken)
    inputs, passes = run(wl, tmp_path)
    assert passes[0][1][0].error == "RuntimeError: solver bug"
    assert error_share(wl, inputs, passes) == 0.5


def test_pass_that_writes_other_bytes_is_an_error(tmp_path):
    wl = tiny_workload(GOOD[:1])
    inputs, passes = run(wl, tmp_path)
    assert error_share(wl, inputs, passes + passes) == 0
    out = os.path.join(os.path.dirname(passes[0][0]), "pass-copy")
    os.makedirs(out)
    src = job_outputs(wl.jobs[0], passes[0][0])[0]
    with open(src) as fh:
        data = json.load(fh)
    with open(job_outputs(wl.jobs[0], out)[0], "w") as fh:
        json.dump(data, fh)  # same clustering, other formatting
    assert error_share(wl, inputs, passes + [(out, passes[0][1])]) == 0.5


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_seed_changes_instances_not_job_shapes(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert [j.shape() for j in a.jobs] == [j.shape() for j in b.jobs]
    assert [(s.name, s.family, s.flags) for s in a.inputs] == \
        [(s.name, s.family, s.flags) for s in b.inputs]
    assert [s.seed for s in a.inputs] != [s.seed for s in b.inputs]
    assert workloads.build(name, 1) == a


def test_seed_changes_generated_files(tmp_path):
    texts = []
    for seed in (1, 2):
        wl = workloads.build("verify", seed)
        spec = wl.inputs[0]
        prefix = str(tmp_path / f"{seed}-{spec.name}")
        assert harness.run_job(spec.generate_argv(prefix)).rc == 0
        with open(prefix + ".kci") as fh:
            texts.append(fh.read())
    assert texts[0] != texts[1]


def test_tracer_counts_sweep_candidates_and_restores(tmp_path):
    from kcenter_resilience import cli
    original = solvers.sweep_radius
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.sweep_radius is solvers.sweep_radius is not original
        wl = tiny_workload(GOOD[:1])
        inputs, passes = run(wl, tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert cli.sweep_radius is solvers.sweep_radius is original
    sweeps = [rec for rec in tracer.spans
              if rec[0] == "solvers.sweep_radius"]
    calls = [rec for rec in tracer.spans if rec[0] == "solvers.symmetric_3eps"]
    assert len(sweeps) == 1 and sweeps[0][5] == len(calls) > 0
    assert all(tracer.spans[rec[3]][0] == "solvers.sweep_radius"
               for rec in calls)
