"""Validation and the oracle scan hold a bounded number of cells, whatever
n^3 or C(n, k) is."""

import tracemalloc

import numpy as np

from kcenter_resilience import brute_force_optimal, validate_instance
from kcenter_resilience.generators import gen_planted_symmetric


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_peak_is_a_few_tables():
    d = 1.0 - np.eye(500)  # every triangle holds: the scan runs to the end
    # the whole-cube scan held 9 bytes per triple, 562 tables at n = 500
    assert _peak_bytes(validate_instance, d, "symmetric") < 4 * d.nbytes


def test_oracle_peak_is_bounded():
    d = gen_planted_symmetric(60, 3, 1.0, 2.0, 0).instance.dist
    # one array over all C(60, 3) subsets would take 49 MB
    assert _peak_bytes(brute_force_optimal, d, 3) < 4 * 2 ** 20
