"""Validation, the oracle scan and the falsifier hold a bounded number of
cells, whatever n^3 or C(n, k) is."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (StabilityParams, TriangleViolation,
                                brute_force_optimal, falsify_resilience,
                                validate_instance)
from kcenter_resilience import core
from kcenter_resilience.generators import gen_planted_symmetric


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_peak_is_a_few_tables():
    # every triangle holds: the scan runs to the end over half the columns
    # of the symmetric table, and the asymmetric one passes by its closure
    d = 1.0 - np.eye(500)
    skew = d.copy()
    skew[0, 1] = 0.5
    for table, mode in ((d, "symmetric"), (skew, "asymmetric")):
        # the whole-cube scan held 9 bytes per triple, 562 tables at n = 500
        assert _peak_bytes(validate_instance, table, mode) < 4 * table.nbytes


def _violating_table():
    bad = 1.0 - np.eye(500)
    bad[250, 3] = 2.5  # > d(250, s) + d(s, 3) = 2: the closure fails
    return bad


def _located(bad):
    with pytest.raises(TriangleViolation) as exc:
        validate_instance(bad, "asymmetric")
    assert (exc.value.p, exc.value.s, exc.value.q) == (250, 0, 3)


def test_validate_peak_is_a_few_tables_when_the_closure_fails():
    bad = _violating_table()
    assert _peak_bytes(_located, bad) < 4 * bad.nbytes


def test_validate_frees_a_failed_closure_before_the_scan(monkeypatch):
    # the peak cannot show it (the closure's own conversion holds more than
    # the closure beside a one-row block), so the closure is watched by a
    # weak reference, which must be dead when the scan names the violation
    watched = []

    def closure(table):
        out = floyd_warshall(table)
        watched.append(weakref.ref(out))
        return out

    class Located(TriangleViolation):
        def __init__(self, *witness):
            assert len(watched) == 1 and watched[0]() is None
            super().__init__(*witness)

    monkeypatch.setattr(core, "floyd_warshall", closure)
    monkeypatch.setattr(core, "TriangleViolation", Located)
    _located(_violating_table())


def test_validate_symmetric_mode_peak_is_under_one_and_a_half_tables():
    # symmetry is compared in the triangle scan's row blocks, and not at
    # all on a table equal to its transpose: the whole-table compare held
    # 2.13 tables at n = 500
    d = 1.0 - np.eye(500)
    loose = d.copy()
    loose[0, 1] += 0.5  # symmetric only within the slack
    for table, slack in ((d, 0.0), (loose, 1.0)):
        peak = _peak_bytes(validate_instance, table, "symmetric", slack)
        assert peak < 1.5 * table.nbytes


def test_oracle_peak_is_bounded():
    d = gen_planted_symmetric(60, 3, 1.0, 2.0, 0).instance.dist
    # one array over all C(60, 3) subsets would take 49 MB
    assert _peak_bytes(brute_force_optimal, d, 3) < 4 * 2 ** 20


def test_oracle_peak_is_bounded_at_k4():
    # scored from their 3-prefixes: the C(80, 3) = 82,160 prefixes' index
    # rows alone would take 1.9 MB, their closest-center rows 52 MB
    d = gen_planted_symmetric(80, 4, 1.0, 2.0, 0).instance.dist
    assert _peak_bytes(brute_force_optimal, d, 4) < 2 ** 20


def test_falsifier_peak_is_bounded():
    d = gen_planted_symmetric(60, 3, 1.0, 2.0, 0).instance.dist
    # the base-cost cut keeps 8,000 of the C(60, 3) = 34,220 sets, and at
    # most KEPT_CELLS cells of them; scoring them all at once would take 49 MB
    peak = _peak_bytes(falsify_resilience, d, 3, StabilityParams(2.0, 0.0), 3)
    assert peak < 2 * 2 ** 20


def test_falsifier_peak_is_a_few_tables_when_one_table_fills_the_cells():
    # n^2 + k n > SCAN_CELLS: beside one d' there is no room for a kept
    # set, so each d' is scored SCAN_CELLS // (k n) = 126 of its 16,900
    # kept sets at a time, one table past the cells.  Scoring them all at
    # once would take 70 MB (130 tables); one set per call held 16,900
    # score arrays, 9 tables in all.  Two d', their column stack, the kept
    # sets and the base scans make up the rest.
    d = gen_planted_symmetric(260, 2, 1.0, 2.0, 0).instance.dist
    assert d.size + 2 * 260 > core.SCAN_CELLS
    peak = _peak_bytes(falsify_resilience, d, 2, StabilityParams(2.0, 0.0), 5)
    assert peak < 7 * d.nbytes
