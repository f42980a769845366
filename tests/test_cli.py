"""CLI surface: file formats, exit codes, determinism."""

import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kcenter_resilience import (emit_instance, parse_clustering,
                                parse_instance, solvers, validate_instance)
from kcenter_resilience import cli, generators
from kcenter_resilience.cli import main
from kcenter_resilience.generators import (gen_planted_asymmetric,
                                           gen_planted_symmetric,
                                           gen_random_metric)
from kcenter_resilience.kci import KciFormatError, to_jsonable

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return main(list(args))


def _strict_report(path):
    """A verify report, parsed as strict JSON: Infinity and NaN raise."""
    def refuse(name):
        raise ValueError(f"report holds {name}, which is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def gen_planted_files(tmp_path, seed=7):
    prefix = str(tmp_path / "ps")
    assert run(["generate", "planted-sym", "--n", "12", "--k", "3",
                "--r", "1", "--alpha", "2", "--seed", str(seed),
                "--out-prefix", prefix]) == 0
    return prefix


def test_kci_round_trip_bit_exact():
    for seed in range(10):
        for mode in ("symmetric", "asymmetric"):
            inst = gen_random_metric(6, mode, seed)
            back = parse_instance(emit_instance(inst))
            assert back.mode == inst.mode
            assert np.array_equal(back.dist, inst.dist)


def test_kci_parse_errors_name_the_line():
    with pytest.raises(KciFormatError) as exc:
        parse_instance("kci 2\nmode symmetric\nn 1\n0.0\n")
    assert exc.value.line_no == 1
    with pytest.raises(KciFormatError) as exc:
        parse_instance("kci 1\nmode sideways\nn 1\n0.0\n")
    assert exc.value.line_no == 2
    with pytest.raises(KciFormatError) as exc:
        parse_instance("kci 1\nmode symmetric\nn 2\n0.0 1.0\n1.0\n")
    assert exc.value.line_no == 5
    two = "kci 1\nmode symmetric\nn 2\n0 5\n5 0\n"
    with pytest.raises(KciFormatError) as exc:  # was read as the 2 rows
        parse_instance(two + " \n0 5 6\ngarbage here\n")
    assert exc.value.line_no == 7
    assert parse_instance(two + "\n \t\n").n == 2


def test_to_jsonable_converts_numpy_values():
    report = {"count": np.int64(3), "ratio": np.float64(0.5),
              "far": np.float64(np.inf), "sets": np.array([[0, 2], [1, 2]]),
              "radii": np.array([1.5, np.inf]), 4: (np.intp(1), np.bool_(1))}
    got = to_jsonable(report)
    assert got == {"count": 3, "ratio": 0.5, "far": "inf",
                   "sets": [[0, 2], [1, 2]], "radii": [1.5, "inf"],
                   "4": [1, True]}
    assert all(type(v) in (int, float, str, bool)
               for v in (got["count"], got["ratio"], *got["4"]))
    json.dumps(got, allow_nan=False)  # strict JSON


@pytest.mark.parametrize("existing", [None, 0o640], ids=["new", "existing"])
def test_written_files_take_the_mode_open_would_give(tmp_path, existing):
    # mkstemp makes 0600 files and os.replace kept that mode
    paths = [tmp_path / f"ps{suffix}"
             for suffix in (".kci", ".truth.json", ".guarantee.json")]
    if existing is not None:
        for path in paths:
            path.write_text("old\n")
            path.chmod(existing)
    umask = os.umask(0o022)
    try:
        gen_planted_files(tmp_path)
    finally:
        os.umask(umask)
    want = 0o644 if existing is None else existing
    assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [want] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        path.name for path in paths)  # no temp file left behind


@pytest.mark.parametrize("dangling", [False, True],
                         ids=["existing", "dangling"])
def test_solve_out_writes_through_a_symlink(tmp_path, dangling):
    # the link stays a link and its target, in another directory, gets the
    # bytes and keeps its mode, as open(path, "w") would do
    prefix = gen_planted_files(tmp_path)
    (tmp_path / "links").mkdir()
    (tmp_path / "targets").mkdir()
    link, target = tmp_path / "links" / "l.json", tmp_path / "targets" / "t.json"
    if not dangling:
        target.write_text("old\n")
        target.chmod(0o640)
    link.symlink_to(target)
    plain = tmp_path / "plain.json"
    for out in (plain, link):
        assert run(["solve", prefix + ".kci", "--algo", "thm5-3eps",
                    "--k", "3", "--out", str(out)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    if not dangling:
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in (tmp_path / "targets").iterdir()] == ["t.json"]
    assert [p.name for p in (tmp_path / "links").iterdir()] == ["l.json"]


def test_generate_exits_1_when_a_construction_check_fails(tmp_path, capsys,
                                                           monkeypatch):
    oracle = generators.brute_force_optimal
    monkeypatch.setattr(generators, "brute_force_optimal", lambda d, k: (
        dataclasses.replace(oracle(d, k), optimal_radius=2.0)))
    assert run(["generate", "bad-center-18", "--alpha", "2",
                "--out-prefix", str(tmp_path / "b")]) == 1
    assert capsys.readouterr() == (
        "", "error: generation failed: oracle radius must be 1\n")
    assert list(tmp_path.iterdir()) == []


def test_generate_is_byte_identical_across_runs(tmp_path):
    p1 = str(tmp_path / "a")
    p2 = str(tmp_path / "b")
    for p in (p1, p2):
        assert run(["generate", "planted-sym", "--n", "12", "--k", "3",
                    "--r", "1", "--alpha", "2", "--seed", "7",
                    "--out-prefix", p]) == 0
    for suffix in (".kci", ".truth.json", ".guarantee.json"):
        assert Path(p1 + suffix).read_bytes() == Path(p2 + suffix).read_bytes()


def test_solve_planted_matches_truth(tmp_path):
    prefix = gen_planted_files(tmp_path)
    truth = parse_clustering(Path(prefix + ".truth.json").read_text())
    out = str(tmp_path / "sol.json")
    assert run(["solve", prefix + ".kci", "--algo", "thm5-3eps",
                "--k", "3", "--r", repr(truth.radius), "--out", out]) == 0
    got = parse_clustering(Path(out).read_text())
    assert got.canonical_partition() == truth.canonical_partition()


def test_solve_sweeps_when_r_absent(tmp_path):
    prefix = gen_planted_files(tmp_path)
    out = str(tmp_path / "sol.json")
    assert run(["solve", prefix + ".kci", "--algo", "alg1-2pr",
                "--k", "3", "--out", out]) == 0
    truth = parse_clustering(Path(prefix + ".truth.json").read_text())
    got = parse_clustering(Path(out).read_text())
    assert got.canonical_partition() == truth.canonical_partition()


def test_solve_malformed_header_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.kci"
    bad.write_text("kci 9\nmode symmetric\nn 1\n0.0\n")
    assert run(["solve", str(bad), "--algo", "ff2", "--k", "1"]) == 1
    assert "line 1" in capsys.readouterr().err


def test_solve_promise_violation_exits_2(tmp_path):
    prefix = gen_planted_files(tmp_path)
    # wrong radius: threshold graph cannot have exactly k components
    assert run(["solve", prefix + ".kci", "--algo", "thm5-3eps",
                "--k", "3", "--r", "1e-9"]) == 2


def test_solve_sweep_without_working_radius_prints_reason(tmp_path, capsys):
    # 4 points on a line: the threshold graph has 4 components or 1, never 2
    pts = np.arange(4.0)
    path = tmp_path / "line.kci"
    path.write_text(emit_instance(validate_instance(
        np.abs(pts[:, None] - pts[None, :]), "symmetric")))
    assert run(["solve", str(path), "--algo", "thm5-3eps", "--k", "2"]) == 2
    assert capsys.readouterr().out == \
        "status not-resilient (no candidate radius works)\n"
    # the bisection sees no candidate with 2 components in 3 calls on 4
    tried = []
    out, chosen = solvers.sweep_radius(
        parse_instance(path.read_text()), 2, lambda inst, k, r: (
            tried.append(r) or solvers.SOLVERS["thm5-3eps"].solve(inst, k, r)))
    assert chosen is None and len(tried) == 3
    assert out.diagnostics["sweep_log"] == tuple(
        (r, "not-resilient") for r in (0.0, 1.0, 2.0, 3.0))


def test_linkage_claims_nothing_when_k_does_not_divide_n(tmp_path, capsys):
    # n/k-point clusters cannot exist at n = 13, k = 3: the linkage used to
    # claim exact at radius 6.37 where the unique optimum is 0.819
    prefix = str(tmp_path / "ps13")
    assert run(["generate", "planted-sym", "--n", "13", "--k", "3",
                "--r", "1", "--alpha", "2", "--seed", "1",
                "--out-prefix", prefix]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.json")
    assert run(["solve", prefix + ".kci", "--algo", "alg3-linkage",
                "--k", "3", "--out", out]) == 2
    assert capsys.readouterr().out == ("status not-resilient (the equal-size"
                                       " promise needs k to divide n)\n")
    assert not os.path.exists(out)


def test_solve_patch_budget_prints_reason(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solvers, "PATCH_BUDGET", 0)
    planted = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 1)
    path = tmp_path / "pa.kci"
    path.write_text(emit_instance(planted.instance))
    assert run(["solve", str(path), "--algo", "alg2-3eps-asym", "--k", "3",
                "--r", repr(planted.truth.radius)]) == 2
    assert capsys.readouterr().out == \
        "status not-resilient (patch enumeration exceeded budget 0)\n"


def test_oracle_command(tmp_path, capsys):
    prefix = gen_planted_files(tmp_path)
    assert run(["oracle", prefix + ".kci", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "radius" in out and "partition-unique true" in out


def test_verify_planted_ok(tmp_path):
    prefix = gen_planted_files(tmp_path)
    report_path = str(tmp_path / "rep.json")
    assert run(["verify", prefix + ".kci", prefix + ".truth.json",
                "--alpha", "2", "--epsilon", "0", "--budget", "30",
                "--out", report_path]) == 0
    report = _strict_report(report_path)
    assert report["structure"]["property1"] is True
    assert report["structure"]["property2"] is True
    assert report["falsifier"]["status"] in ("none-found", "budget-exceeded")


def test_verify_epsilon_one_always_ok(tmp_path):
    prefix = gen_planted_files(tmp_path)
    assert run(["verify", prefix + ".kci", prefix + ".truth.json",
                "--alpha", "2", "--epsilon", "1", "--budget", "10",
                "--out", str(tmp_path / "rep.json")]) == 0


def test_verify_weak_instance_exits_3_with_replayable_counterexample(tmp_path):
    from kcenter_resilience import (brute_force_optimal, snap_up,
                                    validate_instance, voronoi_partition,
                                    epsilon_distance)
    pts = np.array([0.0, 1.0, 2.1, 3.1])
    d = snap_up(np.abs(pts[:, None] - pts[None, :]))
    np.fill_diagonal(d, 0.0)
    inst = validate_instance(d, "symmetric")
    inst_path = tmp_path / "weak.kci"
    inst_path.write_text(emit_instance(inst))
    res = brute_force_optimal(inst.dist, 2)
    truth = res.clustering(inst.dist)
    truth_path = tmp_path / "weak.truth.json"
    from kcenter_resilience import emit_clustering
    truth_path.write_text(emit_clustering(truth))
    report_path = str(tmp_path / "rep.json")
    assert run(["verify", str(inst_path), str(truth_path),
                "--alpha", "2", "--epsilon", "0", "--budget", "100",
                "--out", report_path]) == 3
    report = _strict_report(report_path)
    ce = report["counterexample"]
    # replay: the serialized dprime really does move the optimum
    dprime = parse_instance(ce["dprime_kci"], slack=float("inf")).dist
    res2 = brute_force_optimal(dprime, 2)
    eps_values = [epsilon_distance(voronoi_partition(dprime, c), truth)
                  for c in res2.optimal_center_sets]
    assert ce["epsilon_distance"] in eps_values
    assert ce["epsilon_distance"] > 0


def test_generate_dom_set_and_eps_padding(tmp_path):
    prefix = str(tmp_path / "star")
    assert run(["generate", "dom-set", "--graph", "star5", "--k", "1",
                "--out-prefix", prefix]) == 0
    inst = parse_instance(Path(prefix + ".kci").read_text())
    assert set(np.unique(inst.dist)) <= {0.0, 1.0, 2.0}

    base_prefix = str(tmp_path / "base")
    assert run(["generate", "random", "--n", "4", "--mode", "symmetric",
                "--seed", "1", "--out-prefix", base_prefix]) == 0
    pad_prefix = str(tmp_path / "padded")
    assert run(["generate", "eps-padding", "--base", base_prefix + ".kci",
                "--k", "2", "--alpha", "2", "--epsilon", "0.5",
                "--out-prefix", pad_prefix]) == 0
    padded = parse_instance(Path(pad_prefix + ".kci").read_text())
    assert padded.n == 4 + 8


def test_generate_infeasible_exits_1(tmp_path):
    assert run(["generate", "planted-sym", "--n", "2", "--k", "3",
                "--out-prefix", str(tmp_path / "x")]) == 1


def test_bench_deterministic_and_error_rows(tmp_path):
    manifest = [
        {"family": "planted-sym",
         "params": {"n": 10, "k": 2, "r": 1.0, "alpha": 2.0},
         "seed": 1, "solver": "thm5-3eps"},
        {"family": "bad-center-18", "params": {"alpha": 3.0},
         "seed": 0, "solver": "alg2-3eps-asym"},
        {"family": "planted-sym",
         "params": {"n": 10, "k": 2, "r": 1.0, "alpha": 2.0},
         "seed": 2, "solver": "no-such-solver"},
    ]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    out1 = str(tmp_path / "b1.csv")
    out2 = str(tmp_path / "b2.csv")
    for out in (out1, out2):
        assert run(["bench", "--manifest", str(mpath), "--out", out,
                    "--no-timing"]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    lines = Path(out1).read_text().splitlines()
    assert lines[0] == \
        "family,params,seed,solver,eps_dist,radius_ratio,wall_ms,status"
    assert len(lines) == 4
    assert lines[1].endswith("exact-claim")
    assert ",0.0," in lines[1]
    assert lines[3].startswith("planted-sym") and "error:" in lines[3]


def test_bench_non_finite_param_row_is_infeasible(tmp_path):
    # 1e400 reads as inf; the rows were error:OverflowError and a generation
    # that failed only on the non-finite table; the third, over the point
    # cap, was error:_ArrayMemoryError
    mpath = tmp_path / "m.json"
    mpath.write_text(
        '[{"family": "bad-center-18", "params": {"alpha": 1e400},'
        ' "solver": "thm3"},'
        ' {"family": "planted-sym", "solver": "thm3",'
        ' "params": {"n": 12, "k": 3, "r": 1.0, "alpha": 1e400}},'
        ' {"family": "planted-sym", "solver": "thm3",'
        ' "params": {"n": 10000000, "k": 3, "r": 1.0, "alpha": 2.0}}]')
    out = tmp_path / "b.csv"
    assert run(["bench", "--manifest", str(mpath), "--out", str(out),
                "--no-timing"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == \
        ["error:InfeasibleParams"] * 3


def test_bench_fewer_centers_than_truth_row_keeps_its_status(tmp_path):
    # hs covers bad-center-18 at k=3, r=1 with 2 centers (radius 1.5, OPT
    # 1): no epsilon distance to the 3-cluster truth, which read
    # error:MismatchedK
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([{"family": "bad-center-18", "solver": "hs",
                                  "params": {"alpha": 2.0}}]))
    out = tmp_path / "b.csv"
    assert run(["bench", "--manifest", str(mpath), "--out", str(out),
                "--no-timing"]) == 0
    assert out.read_text().splitlines()[1] == \
        "bad-center-18,alpha=2.0,0,hs,,1.5,,approximation-only"


def test_no_command_exits_1_with_one_line(capsys):
    assert run([]) == 1  # was argparse's exit 2 after a usage dump
    assert capsys.readouterr().err == \
        "error: kcenter-pr: the following arguments are required: command\n"


@pytest.mark.parametrize("argv", [["-h"], ["solve", "-h"]])
def test_help_exits_0_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: kcenter-pr") and err == ""


def test_bench_oracle_infeasible_row_blank_ratio(tmp_path):
    manifest = [{"family": "planted-sym",
                 "params": {"n": 60, "k": 3, "r": 1.0, "alpha": 2.0},
                 "seed": 0, "solver": "thm5-3eps"}]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    out = str(tmp_path / "b.csv")
    assert run(["bench", "--manifest", str(mpath), "--out", out,
                "--no-timing", "--oracle-budget", "1000"]) == 0
    row = Path(out).read_text().splitlines()[1]
    fields = row.split(",")
    assert fields[5] == ""  # radius_ratio column absent
    assert fields[7] == "exact-claim"


def test_bench_ratio_uses_the_oracle_budget(tmp_path, monkeypatch):
    # bench once kept its own C(n, k) <= budget check and then called the
    # oracle with the default budget, so a budget above it gave error rows
    budgets = []
    oracle = cli.brute_force_optimal

    def spy(table, k, budget):
        budgets.append(budget)
        return oracle(table, k, budget)

    monkeypatch.setattr(cli, "brute_force_optimal", spy)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([{
        "family": "planted-sym", "seed": 0, "solver": "thm3",
        "params": {"n": 12, "k": 3, "r": 1.0, "alpha": 2.0}}]))
    ratios = []
    for budget in (220, 219):  # C(12, 3) = 220
        out = tmp_path / f"b{budget}.csv"
        assert run(["bench", "--manifest", str(mpath), "--out", str(out),
                    "--no-timing", "--oracle-budget", str(budget)]) == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[7] == "exact-claim"
        ratios.append(fields[5])
    assert budgets == [220, 219]
    assert float(ratios[0]) >= 1.0 and ratios[1] == ""


def test_bench_failed_promise_row_is_not_resilient(tmp_path):
    # epsilon = 1 joins no pair, so alg4-2eps-as finds n components, not k
    manifest = [{"family": "planted-sym",
                 "params": {"n": 10, "k": 2, "r": 1.0, "alpha": 2.0,
                            "epsilon": 1.0},
                 "seed": 2, "solver": "alg4-2eps-as"}]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    out = str(tmp_path / "b.csv")
    assert run(["bench", "--manifest", str(mpath), "--out", out,
                "--no-timing"]) == 0
    assert Path(out).read_text().splitlines()[1] == \
        "planted-sym,alpha=2.0;epsilon=1.0;k=2;n=10;r=1.0,2,alg4-2eps-as," \
        ",,,not-resilient"


@pytest.mark.parametrize("flags,asym", [
    (["--algo", "ff2", "--k", "0"], False),
    (["--algo", "thm5-3eps", "--k", "13"], False),
    (["--algo", "hs", "--k", "3", "--r", "-1"], False),
    (["--algo", "alg4-2eps-as", "--k", "3"], False),
    (["--algo", "alg4-2eps-as", "--k", "3", "--epsilon", "-1"], False),
    (["--algo", "ff2", "--k", "3"], True),
    (["--algo", "thm3", "--k", "3"], True),
    (["--algo", "thm5-3eps", "--k", "3", "--r", "1"], True),
    (["--algo", "alg3-linkage", "--k", "3"], True),
    (["--algo", "alg4-2eps-as", "--k", "3", "--epsilon", "0.1"], True),
], ids=["k-0", "k-above-n", "negative-r", "no-epsilon", "negative-epsilon",
        "ff2-asym", "thm3-asym", "thm5-asym", "alg3-asym", "alg4-asym"])
def test_solve_bad_arguments_exit_1(tmp_path, capsys, flags, asym):
    if asym:
        path = tmp_path / "asym.kci"
        path.write_text(emit_instance(gen_random_metric(12, "asymmetric", 3)))
        path = str(path)
    else:
        path = gen_planted_files(tmp_path) + ".kci"
    assert run(["solve", path, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _two_point_kci(entry):
    return f"kci 1\nmode symmetric\nn 2\n0.0 {entry}\n{entry} 0.0\n"


@pytest.mark.parametrize("argv,payload,needle", [
    (["oracle", "{ps}.kci", "--k", "0"], None, "--k"),
    (["oracle", "{ps}.kci", "--k", "13"], None, "--k"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "0.5"], None,
     "alpha"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "nan"], None,
     "alpha"),
    # was an OverflowError in the random phase, after NaN diagonals
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "inf"], None,
     "alpha must be finite"),
    # alpha * d overflowed to inf: warned, then wrote a d' kcenter-pr
    # cannot read back
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "1e308"], None,
     "--alpha: alpha = 1e+308 times the largest distance"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2",
      "--epsilon", "2"], None, "epsilon"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2", "--r", "-1"],
     None, "--r"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2",
      "--oracle-budget", "10"], None, "budget 10"),
    # were budget-exceeded with exit 0, a blank ratio column with exit 0,
    # and "exceeds budget -3"
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2",
      "--budget", "-5"], None, "--budget must be >= 0"),
    (["bench", "--manifest", "{manifest}", "--oracle-budget", "-1"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "solver": "thm3"}],
     "--oracle-budget must be >= 0"),
    (["oracle", "{ps}.kci", "--k", "3", "--budget", "-3"], None,
     "--budget must be >= 0"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2",
      "--oracle-budget", "-1"], None, "--oracle-budget must be >= 0"),
    # was a numpy ValueError traceback once the random phase began
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2",
      "--budget", "200", "--seed", "-1"], None, "--seed must be >= 0"),
    (["bench", "--manifest", "{manifest}"], [1], "row 0"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "solver": "thm3"},
      {"params": {"alpha": 2.0}, "solver": "thm3"}], "row 1"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}}], "row 0"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "seed": "x",
       "solver": "thm3"}], "row 0"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "solver": "thm3"},
      {"family": "planted-asym", "solver": "alg1-2pr",
       "params": {"n": 12, "k": 3, "r": 1.0, "alpha": 2.0}}],
     "row 1: planted-asym params lack 'skew'"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "solver": "thm3"},
      {"family": "planted-symm", "solver": "thm3",
       "params": {"n": 12, "k": 3, "r": 1.0, "alpha": 2.0}}],
     "row 1: unknown family 'planted-symm'"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "planted-sym", "solver": "thm3",
       "params": {"n": "12", "k": 3, "r": 1.0, "alpha": 2.0}}],
     "row 0: param 'n' must be a number, got '12'"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "solver": "thm3"},
      {"family": "planted-sym", "solver": "alg4-2eps-as",
       "params": {"n": 12, "k": 3, "r": 1.0, "alpha": 2.0}}],
     "row 1: solver alg4-2eps-as needs params epsilon in [0, 1]"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "planted-sym", "solver": "thm3",
       "params": {"n": 12.5, "k": 3, "r": 1.0, "alpha": 2.0}}],
     "row 0: param 'n' must be an integer, got 12.5"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "solver": "thm3"},
      {"family": "bad-center-18", "params": {"alpha": 2.0},
       "solver": ["thm3", "hs"]}], "manifest row 1 must be"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0},
       "solver": "thm3,hs"}], "manifest row 0 must be"),
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "solver": "thm3"},
      {"family": "bad-center-18", "params": {"alpha": 2.0, "x,y": 1},
       "solver": "thm3"}], "row 1: bad-center-18 params do not take 'x,y'"),
    (["solve", "{ps}.kci", "--algo", "ff2", "--k", "3", "--slack", "-1"],
     None, "--slack"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"], "nan",
     "bad.kci: line 4: non-finite"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"], "inf",
     "bad.kci: line 4: non-finite"),
    (["verify", "{kci}", "{ps}.truth.json", "--alpha", "2"], "1e400",
     "bad.kci: line 4: non-finite"),
    # was a 25.6 PiB allocation
    (["generate", "eps-padding", "--base", "{ps}.kci", "--epsilon", "1e-6"],
     None, "exceeds 2000 points"),
    # was refused only after building and validating the padded table
    (["generate", "eps-padding", "--base", "{kci}", "--k", "5"], 60,
     "C(60,5) = 5461512 exceeds budget"),
    # were an OverflowError traceback, and a numpy RuntimeWarning before
    # "table entries must be finite"
    (["generate", "bad-center-18", "--alpha", "inf"], None,
     "alpha must be in (1, inf), got inf"),
    (["generate", "planted-sym", "--r", "inf"], None, "r=inf"),
    (["generate", "planted-sym", "--alpha", "inf"], None, "alpha=inf"),
    (["generate", "planted-sym", "--r", "nan"], None, "r=nan"),
    (["generate", "planted-asym", "--skew", "inf"], None,
     "skew must be in [1, inf), got inf"),
    (["generate", "planted-asym", "--skew", "nan"], None,
     "skew must be in [1, inf), got nan"),
    (["generate", "eps-padding", "--base", "{ps}.kci", "--alpha", "inf"],
     None, "alpha must be in [1, inf), got inf"),
    # was solved from the first two rows with exit 0
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn 2\n0 5\n5 0\n0 5 6\ngarbage here\n",
     "bad.kci: line 6: text after the 2 distance rows"),
    # was run as seed 1
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "seed": True,
       "solver": "thm3"}], "manifest row 0 must be"),
    # was exit 0 with an error:ValueError row, though this family takes no
    # seed
    (["bench", "--manifest", "{manifest}"],
     [{"family": "bad-center-18", "params": {"alpha": 2.0}, "seed": -1,
       "solver": "thm3"}], "manifest row 0 must be"),
    # usage errors were argparse's exit 2 after a usage dump
    (["solve", "{ps}.kci", "--algo", "ff2", "--k", "notint"], None,
     "kcenter-pr solve: argument --k: invalid int value: 'notint'"),
    (["solve", "{ps}.kci", "--algo", "nosuch", "--k", "3"], None,
     "argument --algo: invalid choice: 'nosuch'"),
    (["solve", "{ps}.kci", "--k", "3"], None,
     "the following arguments are required: --algo"),
    (["generate", "nosuch"], None,
     "argument family: invalid choice: 'nosuch'"),
    (["nosuch"], None, "kcenter-pr: argument command: invalid choice"),
    # argparse echoes an unrecognized argument as is, newline and all
    (["solve", "{ps}.kci", "--algo", "ff2", "--k", "3", "a\nb"], None,
     r"unrecognized arguments: a\nb"),
    # were a numpy _ArrayMemoryError traceback
    (["generate", "random", "--n", "10000000"], None,
     "n=10000000 exceeds 2000 points"),
    (["generate", "planted-sym", "--n", "10000000"], None,
     "n=10000000 exceeds 2000 points"),
    (["generate", "planted-asym", "--n", "10000000"], None,
     "n=10000000 exceeds 2000 points"),
    (["generate", "dom-set", "--graph", "star10000000"], None,
     "n=10000000 exceeds 2000 points"),
    # were exit 0 with no pads (inf) or fewer pads than points (2)
    (["generate", "eps-padding", "--base", "{ps}.kci", "--epsilon", "inf"],
     None, "epsilon must be in (0, 1], got inf"),
    (["generate", "eps-padding", "--base", "{ps}.kci", "--epsilon", "2"],
     None, "epsilon must be in (0, 1], got 2.0"),
    # printed a numpy RuntimeWarning before the error line
    (["generate", "planted-sym", "--r", "1e300"], None,
     "separation guarantee failed"),
    (["generate", "planted-sym", "--alpha", "1e308"], None,
     "separation guarantee failed"),
    # were a RecursionError traceback
    (["verify", "{ps}.kci", "{deep}", "--alpha", "2"], None,
     "cannot read clustering"),
    (["bench", "--manifest", "{deep}"], None, "cannot read manifest"),
    # were exit 0: a claimed approximation-only solve, an "r_star": Infinity
    # report that is not JSON, and a non-metric table accepted
    (["solve", "{ps}.kci", "--algo", "hs", "--k", "3", "--r", "inf"], None,
     "argument --r: must be a finite number >= 0, got inf"),
    (["verify", "{ps}.kci", "{ps}.truth.json", "--alpha", "2",
      "--r", "1e400"], None,
     "argument --r: must be a finite number >= 0, got 1e400"),
    (["oracle", "{kci}", "--k", "1", "--slack", "inf"],
     b"kci 1\nmode symmetric\nn 3\n0 1 100\n5 0 1\n100 1 0\n",
     "argument --slack: must be a finite number >= 0, got inf"),
    (["verify", "{kci}", "{ps}.truth.json", "--alpha", "2"], 5,
     "truth has 12 points, instance 5"),
    (["generate", "eps-padding"], None, "--base is required for eps-padding"),
    (["bench", "--manifest", "{manifest}"], {"rows": []},
     "manifest must be a JSON list of rows"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn x\n", "bad.kci: line 3: bad point count 'x'"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn 0\n", "bad.kci: line 3: n must be >= 1"),
    # were read by int and float as 2, 10.0 and 1.0, with exit 0
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn 0_2\n0 1\n1 0\n",
     "bad.kci: line 3: '_' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"], "1_0",
     "bad.kci: line 4: '_' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"], "\u0661",
     "bad.kci: line 4: '\\u0661' is not allowed"),
    # splitlines breaks a line at each of these: the first two files were
    # read as valid, with exit 0
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     "kci 1\x85mode symmetric\nn 1\n0\n".encode(),
     "bad.kci: line 1: '\\x85' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     "kci 1\nmode symmetric\nn 1\n0\n\u2029".encode(),
     "bad.kci: line 5: '\\u2029' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"], "1\u20281",
     "bad.kci: line 4: '\\u2028' is not allowed"),
    # ASCII controls that splitlines also breaks at: the first two files
    # were read as valid 2-point instances, with exit 0
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\x0cmode symmetric\nn 2\n0 1\n1 0\n",
     "bad.kci: line 1: '\\x0c' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn 2\n0 1\x0b1 0\n",
     "bad.kci: line 4: '\\x0b' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn 2\n0 1\x1c1 0\n",
     "bad.kci: line 4: '\\x1c' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\nn 1\n0\n\x1d",
     "bad.kci: line 5: '\\x1d' is not allowed"),
    (["solve", "{kci}", "--algo", "ff2", "--k", "1"],
     b"kci 1\nmode symmetric\x1en 2\n0 1\n1 0\n",
     "bad.kci: line 2: '\\x1e' is not allowed"),
], ids=["oracle-k-0", "oracle-k-above-n", "verify-alpha-below-1",
        "verify-alpha-nan", "verify-alpha-inf", "verify-alpha-1e308",
        "verify-epsilon-above-1", "verify-negative-r",
        "verify-oracle-budget-too-small", "verify-negative-budget",
        "bench-negative-oracle-budget", "oracle-negative-budget",
        "verify-negative-oracle-budget", "verify-negative-seed",
        "bench-row-not-object", "bench-row-no-family", "bench-row-no-solver",
        "bench-seed-not-int", "bench-params-missing-key",
        "bench-unknown-family", "bench-param-not-a-number",
        "bench-no-epsilon", "bench-count-not-int", "bench-solver-not-string",
        "bench-solver-with-comma", "bench-param-unknown-key", "negative-slack",
        "kci-nan", "kci-inf", "kci-1e400", "eps-padding-tiny-epsilon",
        "eps-padding-base-over-budget", "bad-center-18-alpha-inf",
        "planted-sym-r-inf", "planted-sym-alpha-inf", "planted-sym-r-nan",
        "planted-asym-skew-inf", "planted-asym-skew-nan",
        "eps-padding-alpha-inf", "kci-trailing-text", "bench-seed-bool",
        "bench-seed-negative",
        "usage-k-not-int", "usage-unknown-algo", "usage-missing-algo",
        "usage-unknown-family", "usage-unknown-command",
        "usage-newline-argument", "random-over-cap",
        "planted-sym-over-cap", "planted-asym-over-cap", "dom-set-over-cap",
        "eps-padding-epsilon-inf", "eps-padding-epsilon-2",
        "planted-sym-r-1e300", "planted-sym-alpha-1e308",
        "verify-truth-deep-json", "bench-manifest-deep-json", "solve-r-inf",
        "verify-r-1e400", "oracle-slack-inf", "verify-truth-other-count",
        "eps-padding-no-base", "bench-manifest-object", "kci-count-not-int",
        "kci-count-0", "kci-count-underscore", "kci-entry-underscore",
        "kci-entry-arabic-indic-digit", "kci-next-line",
        "kci-paragraph-separator", "kci-line-separator", "kci-form-feed",
        "kci-vertical-tab", "kci-file-separator", "kci-group-separator",
        "kci-record-separator"])
def test_input_boundary_exit_1(tmp_path, capsys, argv, payload, needle):
    # payload: a manifest (a list of rows or an object), one KCI distance
    # entry (a string), a whole KCI file (bytes) or the point count of a
    # random symmetric KCI file (an int); {deep} is a JSON file nested
    # 200000 lists deep
    prefix = gen_planted_files(tmp_path)
    manifest = tmp_path / "m.json"
    kci = tmp_path / "bad.kci"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    if isinstance(payload, (list, dict)):
        manifest.write_text(json.dumps(payload))
    elif isinstance(payload, bytes):
        kci.write_bytes(payload)
    elif isinstance(payload, str):
        kci.write_text(_two_point_kci(payload))
    elif isinstance(payload, int):
        kci.write_text(emit_instance(gen_random_metric(payload, "symmetric", 0)))
    capsys.readouterr()
    argv = [a.format(ps=prefix, manifest=manifest, kci=kci, deep=deep)
            for a in argv]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err and "Traceback" not in err


@pytest.mark.parametrize("algo", ["ff2", "thm3"])
def test_solve_k_equals_n_with_coincident_points(tmp_path, algo):
    # points 0 and 1 coincide: farthest-first must not pick a center twice
    path = tmp_path / "coincident.kci"
    path.write_text(emit_instance(validate_instance(
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]], "symmetric")))
    out = tmp_path / "cl.json"
    assert run(["solve", str(path), "--algo", algo, "--k", "3",
                "--out", str(out)]) == 0
    assert sorted(parse_clustering(out.read_text()).centers) == [0, 1, 2]


def _rename_point(truth, old, new):
    for g in truth["clusters"]:
        g[:] = [new if p == old else p for p in g]


@pytest.mark.parametrize("edit", [
    lambda t: _rename_point(t, 11, -1),  # was read as point 11
    lambda t: _rename_point(t, 11, 99),
    lambda t: t["clusters"][1].append(t["clusters"][0][0]),
    lambda t: t.__setitem__("k", 4),
    lambda t: t["centers"].pop(),
    lambda t: t["centers"].reverse(),
    lambda t: t.__setitem__("radius", -1),
    lambda t: t.__setitem__("radius", float("nan")),
    lambda t: t.__setitem__("radius", 10 ** 400),  # was an OverflowError
    lambda t: t.__setitem__("radius", "1.0"),
    lambda t: t.__setitem__("k", 3.0),  # was a TypeError in clusters()
], ids=["negative-point", "point-99", "duplicate-point", "k-mismatch",
        "missing-center", "center-outside-cluster", "negative-radius",
        "nan-radius", "huge-int-radius", "string-radius", "float-k"])
def test_verify_malformed_truth_exits_1(tmp_path, capsys, edit):
    prefix = gen_planted_files(tmp_path)
    truth = json.loads(Path(prefix + ".truth.json").read_text())
    edit(truth)
    bad = tmp_path / "bad.truth.json"
    bad.write_text(json.dumps(truth))
    assert run(["verify", prefix + ".kci", str(bad), "--alpha", "2",
                "--budget", "5", "--out", str(tmp_path / "rep.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _write_commands(tmp_path, out):
    """Each command that writes a file, writing it to ``out``."""
    prefix = gen_planted_files(tmp_path)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"family": "bad-center-18",
                                     "params": {"alpha": 2.0},
                                     "solver": "thm3"}]))
    return {
        "solve": ["solve", prefix + ".kci", "--algo", "ff2", "--k", "3",
                  "--out", out],
        "oracle": ["oracle", prefix + ".kci", "--k", "3", "--out", out],
        "verify": ["verify", prefix + ".kci", prefix + ".truth.json",
                   "--alpha", "2", "--budget", "2", "--out", out],
        "bench": ["bench", "--manifest", str(manifest), "--out", out],
        "generate": ["generate", "random", "--n", "4", "--out-prefix", out],
    }


@pytest.mark.parametrize("target", ["missing-dir", "existing-dir"])
def test_unwritable_output_path_exits_1(tmp_path, capsys, target):
    # was a FileNotFoundError or IsADirectoryError traceback, and solve
    # printed its result lines first
    out = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path
    commands = _write_commands(tmp_path, str(out))
    if target == "existing-dir":
        del commands["generate"]  # writes <prefix>.kci, never the prefix
    capsys.readouterr()
    for name, argv in commands.items():
        assert run(argv) == 1, name
        got = capsys.readouterr()
        assert got.out == "", name
        assert got.err.startswith(f"error: cannot write {out}")
        assert got.err.count("\n") == 1, name


def _huge_kci(tmp_path):
    """A valid 4-point metric whose triangle sums overflow to inf."""
    d = np.full((4, 4), 1e308)
    d[:2, :2] = d[2:, 2:] = 1e-10
    np.fill_diagonal(d, 0.0)
    path = tmp_path / "huge.kci"
    path.write_text(emit_instance(validate_instance(d, "symmetric")))
    truth = tmp_path / "huge.truth.json"
    truth.write_text(json.dumps({"k": 2, "radius": 1e-10, "centers": [0, 2],
                                 "clusters": [[0, 1], [2, 3]]}))
    return str(path), str(truth)


@pytest.mark.parametrize("argv", [
    ["solve", "{kci}", "--algo", "ff2", "--k", "2"],
    ["solve", "{kci}", "--algo", "thm5-3eps", "--k", "2"],
    ["oracle", "{kci}", "--k", "2"],
    ["verify", "{kci}", "{truth}", "--alpha", "1", "--budget", "3"],
], ids=["solve-ff2", "solve-sweep", "oracle", "verify-alpha-1"])
def test_huge_finite_distances_do_not_warn(tmp_path, capsys, argv):
    # the triangle sums and the proximity ratio warned of an overflow; a
    # RuntimeWarning is an error under the test settings
    kci, truth = _huge_kci(tmp_path)
    argv = [a.format(kci=kci, truth=truth) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_verify_overflowing_alpha_exits_1(tmp_path, capsys):
    # 2 * 1e308 is inf: was a warning and a d' with inf entries
    kci, truth = _huge_kci(tmp_path)
    assert run(["verify", kci, truth, "--alpha", "2",
                "--out", str(tmp_path / "rep.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha:") and err.count("\n") == 1
    assert not (tmp_path / "rep.json").exists()


# main reuses one parser per process: no flag, default or error may carry
# over from one call to the next

def test_shared_parser_forgets_epsilon_between_calls(tmp_path, capsys):
    prefix = gen_planted_files(tmp_path)
    solve = ["solve", prefix + ".kci", "--algo", "alg4-2eps-as", "--k", "3",
             "--out", str(tmp_path / "sol.json")]
    assert run(solve + ["--epsilon", "0.05"]) == 0
    capsys.readouterr()
    assert run(solve) == 1
    assert capsys.readouterr() == (
        "", "error: solver alg4-2eps-as needs --epsilon in [0, 1]\n")


def test_shared_parser_restores_verify_defaults(tmp_path):
    prefix = gen_planted_files(tmp_path)
    verify = ["verify", prefix + ".kci", prefix + ".truth.json",
              "--alpha", "2"]
    reports = []
    for flags in ([], ["--budget", "3", "--seed", "5"], []):
        out = tmp_path / f"rep{len(reports)}.json"
        assert run(verify + flags + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[2] == reports[0] != reports[1]
    assert json.loads(reports[1])["falsifier"]["tried"] == 3


def test_usage_error_leaves_the_next_command_unchanged(tmp_path, capsys):
    prefix = gen_planted_files(tmp_path)
    out = tmp_path / "opt.json"
    oracle = ["oracle", prefix + ".kci", "--k", "3", "--out", str(out)]
    capsys.readouterr()
    assert run(oracle) == 0
    first = (capsys.readouterr(), out.read_bytes())
    for bad in (["oracle", prefix + ".kci"],
                ["oracle", prefix + ".kci", "--k", "x"],
                ["oracle", prefix + ".kci", "--k", "3", "--bogus"],
                ["solve", prefix + ".kci", "--algo", "nope", "--k", "3"],
                ["nope"]):
        assert run(bad) == 1
        assert capsys.readouterr().err.startswith("error: kcenter-pr")
        out.unlink()
        assert run(oracle) == 0
        assert (capsys.readouterr(), out.read_bytes()) == first


def test_main_builds_its_parser_at_most_once(tmp_path, monkeypatch, capsys):
    # the tree may already be built by an earlier call in this process
    prefix = gen_planted_files(tmp_path)
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for argv in ([], ["oracle", prefix + ".kci", "--k", "3"],
                 ["solve", "--k"],
                 ["generate", "random", "--n", "4",
                  "--out-prefix", str(tmp_path / "g")]):
        main(argv)
    assert built.count("kcenter-pr") <= 1
    assert cli.build_parser() is cli.build_parser()


def test_in_process_commands_match_fresh_processes(tmp_path, capsys,
                                                   monkeypatch):
    radius = gen_planted_symmetric(12, 3, 1.0, 2.0, 7).truth.radius
    manifest = json.dumps([{"family": "planted-sym", "seed": 3,
                            "params": {"n": 12, "k": 3, "r": 1.0,
                                       "alpha": 2.0},
                            "solver": "thm5-3eps"}])
    commands = [
        ["generate", "planted-sym", "--n", "12", "--k", "3", "--r", "1",
         "--alpha", "2", "--seed", "7", "--out-prefix", "ps"],
        ["solve", "ps.kci", "--algo", "thm5-3eps", "--k", "3",
         "--r", repr(radius), "--out", "fixed.json"],
        ["solve", "ps.kci", "--algo", "alg1-2pr", "--k", "3"],
        ["oracle", "ps.kci", "--k", "3", "--out", "opt.json"],
        ["verify", "ps.kci", "ps.truth.json", "--alpha", "2",
         "--budget", "20"],
        ["bench", "--manifest", "manifest.json", "--no-timing"],
        ["solve", "ps.kci", "--algo", "nope", "--k", "3"],
        ["oracle", "missing.kci", "--k", "3"],
    ]
    runs = {}
    for side in ("in-process", "fresh"):
        work = tmp_path / side
        work.mkdir()
        (work / "manifest.json").write_text(manifest)
        results = []
        for argv in commands:
            if side == "fresh":
                done = subprocess.run(
                    [sys.executable, "-m", "kcenter_resilience.cli", *argv],
                    cwd=work, capture_output=True, text=True,
                    env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
                results.append((done.returncode, done.stdout, done.stderr))
            else:
                monkeypatch.chdir(work)
                capsys.readouterr()
                rc = main(argv)
                results.append((rc, *capsys.readouterr()))
        files = {path.name: path.read_bytes() for path in work.iterdir()}
        runs[side] = results, files
    assert [rc for rc, _, _ in runs["fresh"][0]] == [0, 0, 0, 0, 0, 0, 1, 1]
    assert runs["in-process"] == runs["fresh"]
    assert sorted(runs["fresh"][1]) == [
        "fixed.json", "manifest.json", "opt.json", "ps.guarantee.json",
        "ps.kci", "ps.kci.clustering.json", "ps.kci.report.json",
        "ps.truth.json"]
