"""Structural-property checkers against handmade constructions and generators."""

import numpy as np
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    Clustering,
    brute_force_optimal,
    check_structure,
    count_bad_centers_bound_check,
    find_cluster_capturing_centers,
)
from kcenter_resilience.generators import (
    gen_bad_center_18,
    gen_planted_asymmetric,
    gen_planted_symmetric,
)


def test_planted_symmetric_all_flags_true():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 7)
    r = brute_force_optimal(planted.instance.dist, 3).optimal_radius
    rep = check_structure(planted.instance, planted.truth, r)
    assert rep.property1 and rep.property1_full_scope
    assert rep.property2
    assert rep.weak_center_proximity
    assert rep.bad_centers == ()
    assert rep.a_respects_opt
    assert rep.witnesses == {}
    assert rep.center_proximity_factor > 2.0


def test_four_point_property2_violation_with_witness():
    r = 1.0
    # cluster {0, 1} centered at 0, cluster {2, 3} centered at 2,
    # foreign point 3 sits at r/2 from center 0
    d = np.full((4, 4), 4.0)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 1.0
    d[3, 0] = d[0, 3] = r / 2
    d = floyd_warshall(d)
    cl = Clustering(k=2, centers=(0, 2), assignment=(0, 0, 1, 1),
                    radius=1.0)
    rep = check_structure(d, cl, r_star=r)
    assert not rep.property2
    assert rep.witnesses["property2"] == (3, 0)
    assert 0 in rep.bad_centers


def test_bad_center_18_has_exactly_one():
    planted = gen_bad_center_18(3.0)
    rep = check_structure(planted.instance, planted.truth, r_star=1.0)
    assert len(rep.bad_centers) == 1
    assert count_bad_centers_bound_check(planted.instance, planted.truth, 1.0)


def test_planted_asymmetric_properties_hold():
    planted = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 5)
    rep = check_structure(planted.instance, planted.truth,
                          planted.truth.radius)
    assert rep.property1 and rep.property1_full_scope
    assert rep.property2
    assert rep.a_respects_opt


def test_center_proximity_factor_implication():
    planted = gen_planted_symmetric(10, 2, 1.0, 2.0, 1)
    rep = check_structure(planted.instance, planted.truth,
                          planted.truth.radius)
    # factor above 1 forces each point strictly closer to its own center
    assert rep.center_proximity_factor > 1.0
    assert rep.property1_full_scope


def test_no_ccc_on_separated_instance():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 7)
    rep = find_cluster_capturing_centers(planted.instance, planted.truth,
                                         planted.truth.radius)
    assert rep.ccc == {}
    assert rep.ccc2 == {}


def _capturing_construction():
    """Center 0 sits within r*/2 of every point of cluster 1 while that
    cluster's own center is farther; r* = 1."""
    d = np.full((6, 6), 6.0)
    np.fill_diagonal(d, 0.0)
    # cluster 0 = {0, 1}, cluster 1 = {2, 3, 4}, cluster 2 = {5}
    d[0, 1] = d[1, 0] = 1.0
    for p in (3, 4):
        d[2, p] = d[p, 2] = 0.9
    for p in (2, 3, 4):
        d[0, p] = d[p, 0] = 0.5
    d = floyd_warshall(d)
    cl = Clustering(k=3, centers=(0, 2, 5), assignment=(0, 0, 1, 1, 1, 2),
                    radius=1.0)
    return d, cl


def test_ccc_detected_and_contained_in_ccc2():
    d, cl = _capturing_construction()
    rep = find_cluster_capturing_centers(d, cl, r_star=1.0)
    assert rep.ccc.get(1) == 0
    for cluster, center in rep.ccc.items():
        assert center in rep.ccc2.get(cluster, {})


def test_seven_bad_centers_fail_bound():
    # seven tight center pairs: every center has a foreign center within r*
    k = 7
    n = 2 * k
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    for i in range(k):
        for j in range(k):
            if i != j:
                d[2 * i, 2 * j] = 0.5  # centers are mutually close
        d[2 * i, 2 * i + 1] = d[2 * i + 1, 2 * i] = 1.0
    d = floyd_warshall(d)
    cl = Clustering(k=k, centers=tuple(2 * i for i in range(k)),
                    assignment=tuple(i // 2 for i in range(n)), radius=1.0)
    rep = check_structure(d, cl, r_star=1.0)
    assert len(rep.bad_centers) == 7
    assert not count_bad_centers_bound_check(d, cl, 1.0)


def test_witnesses_reproduce_violations():
    d, cl = _capturing_construction()
    rep = check_structure(d, cl, r_star=1.0)
    if not rep.property2:
        q, c = rep.witnesses["property2"]
        assert d[q, c] <= 1.0
        assert cl.assignment[q] != cl.assignment[cl.centers.index(c)]
    if not rep.weak_center_proximity:
        p, q = rep.witnesses["weak_center_proximity"]
        c = cl.centers[cl.assignment[p]]
        assert d[c, p] >= d[p, q]
