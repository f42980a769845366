"""Mutated KCI and truth files: every run ends in an exit code, never a traceback."""

import contextlib
import io

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
