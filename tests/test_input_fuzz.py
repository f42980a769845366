"""Mutated KCI, truth and manifest files: every run ends in an exit code,
never a traceback."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from kcenter_resilience.cli import main
from kcenter_resilience.generators import gen_planted_symmetric
from kcenter_resilience.kci import emit_clustering, emit_instance

PLANTED = gen_planted_symmetric(6, 2, 1.0, 2.0, 0)
KCI = emit_instance(PLANTED.instance).encode()
TRUTH = emit_clustering(PLANTED.truth).encode()


def _flip(data, draw):
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    return data


def _truncate(data, draw):
    return data[:draw(st.integers(0, len(data) - 1))]


def _swap_rows(data, draw):
    rows = data.split(b"\n")
    i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    rows[i], rows[j] = rows[j], rows[i]
    return b"\n".join(rows)


def _duplicate_row(data, draw):
    rows = data.split(b"\n")
    i = draw(st.integers(0, len(rows) - 1))
    return b"\n".join(rows[:i + 1] + rows[i:])


MUTATIONS = (_flip, _truncate, _swap_rows, _duplicate_row)


@st.composite
def mutated(draw, data):
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS),
                                min_size=1, max_size=2)):
        if data:  # a truncation may leave nothing to mutate
            data = mutate(data, draw)
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # an exception here is a user-visible traceback
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 1) == err.getvalue().startswith("error:")
    return code


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kci=mutated(KCI))
def test_solve_mutated_kci(workdir, kci):
    path = workdir / "in.kci"
    path.write_bytes(kci)
    _check_exit(["solve", str(path), "--algo", "thm5-3eps", "--k", "2",
                 "--r", "1", "--out", str(workdir / "out.json")])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(which=st.sampled_from(["kci", "truth", "both"]), data=st.data())
def test_verify_mutated_kci_and_truth(workdir, which, data):
    kci = data.draw(mutated(KCI)) if which != "truth" else KCI
    truth = data.draw(mutated(TRUTH)) if which != "kci" else TRUTH
    (workdir / "v.kci").write_bytes(kci)
    (workdir / "v.truth.json").write_bytes(truth)
    _check_exit(["verify", str(workdir / "v.kci"),
                 str(workdir / "v.truth.json"), "--alpha", "2",
                 "--budget", "5", "--out", str(workdir / "rep.json")])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kci=mutated(KCI))
def test_oracle_mutated_kci(workdir, kci):
    path = workdir / "o.kci"
    path.write_bytes(kci)
    _check_exit(["oracle", str(path), "--k", "2",
                 "--out", str(workdir / "o.json")])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kci=mutated(KCI), k=st.integers(0, 7),
       epsilon=st.sampled_from([0.5, 1.0, 1e-6, 0.0, math.nan]))
def test_generate_eps_padding_mutated_base(workdir, kci, k, epsilon):
    path = workdir / "base.kci"
    path.write_bytes(kci)
    _check_exit(["generate", "eps-padding", "--base", str(path),
                 "--k", str(k), "--epsilon", str(epsilon),
                 "--out-prefix", str(workdir / "pad")])


ROW = {"family": "planted-sym", "solver": "thm5-3eps", "seed": 0,
       "params": {"n": 6, "k": 2, "r": 1.0, "alpha": 2.0}}
# a JSON value of any type; numbers stay small so a row that runs is cheap
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 20),
    st.floats(-2.0, 20.0), st.sampled_from([math.nan, math.inf]),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
FIELDS = ("family", "solver", "seed", "params", "n", "k", "r", "alpha")


@st.composite
def manifests(draw):
    row = dict(ROW, params=dict(ROW["params"]))
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
        target = row if field in ROW else row["params"]
        if isinstance(target, dict):  # params itself may be swapped
            target[field] = draw(JSON_VALUES)
    if isinstance(row["params"], dict) and draw(st.booleans()):
        key = draw(st.sampled_from(["epsilon", "skew", "x,y"])
                   | st.text(max_size=3))
        row["params"][key] = draw(st.integers(0, 3) | st.floats(0, 2))
    return [row]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(manifest=manifests())
def test_bench_mutated_manifest(workdir, manifest):
    path, out = workdir / "m.json", workdir / "bench.csv"
    path.write_text(json.dumps(manifest))
    out.unlink(missing_ok=True)
    code = _check_exit(["bench", "--manifest", str(path), "--no-timing",
                        "--out", str(out)])
    if code == 0:
        assert all(line.count(",") == 7
                   for line in out.read_text().splitlines())
