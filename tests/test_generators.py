"""Seeded generators: planted guarantees, explicit constructions, reductions."""

import itertools

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    BudgetExceeded,
    StabilityParams,
    brute_force_optimal,
    check_structure,
    epsilon_distance,
    falsify_resilience,
    validate_instance,
    voronoi_partition,
)
from kcenter_resilience import generators
from kcenter_resilience.generators import (
    InfeasibleParams,
    gen_bad_center_18,
    gen_eps_padding,
    gen_from_dominating_set,
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
    named_graph,
)


def test_planted_symmetric_singletons():
    planted = gen_planted_symmetric(4, 4, 0.5, 2.0, 0)
    assert planted.truth.radius == 0.0
    assert planted.truth.k == 4


def test_planted_symmetric_guarantee_seed7():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 7)
    assert planted.guarantee.separation > 4.0  # min cross distance > 2*alpha*r
    assert planted.truth.radius <= 1.0
    res = brute_force_optimal(planted.instance.dist, 3)
    got = res.clustering(planted.instance.dist)
    assert got.canonical_partition() == planted.truth.canonical_partition()


def test_planted_symmetric_survives_falsifier():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 7)
    res = falsify_resilience(planted.instance, 3, StabilityParams(2.0, 0.0),
                             budget=50)
    assert res.status in ("none-found", "budget-exceeded")
    assert res.status != "falsified"


def test_planted_symmetric_bad_params():
    with pytest.raises(InfeasibleParams):
        gen_planted_symmetric(3, 5, 1.0, 2.0, 0)
    with pytest.raises(InfeasibleParams):
        gen_planted_symmetric(6, 2, -1.0, 2.0, 0)


def test_planted_asymmetric_skew_one_is_symmetric():
    a = gen_planted_asymmetric(10, 2, 1.0, 2.0, 1.0, 5)
    b = gen_planted_symmetric(10, 2, 1.0, 2.0, 5)
    assert np.array_equal(a.instance.dist, b.instance.dist)


def test_planted_asymmetric_checked_properties():
    planted = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 3)
    rep = check_structure(planted.instance, planted.truth,
                          planted.truth.radius)
    assert rep.property1 and rep.property2 and rep.a_respects_opt
    # re-validate the emitted table from scratch
    validate_instance(planted.instance.dist, "asymmetric")
    vor = voronoi_partition(planted.instance, planted.truth.centers)
    assert vor.assignment == planted.truth.assignment


def test_bad_center_18_shape_and_claims():
    planted = gen_bad_center_18(3.0)
    inst = planted.instance
    assert inst.n == 18
    assert planted.truth.k == 3
    assert planted.truth.radius == 1.0
    rep = check_structure(inst, planted.truth, r_star=1.0)
    assert len(rep.bad_centers) == 1
    assert rep.bad_centers[0] == planted.truth.centers[1]
    assert planted.guarantee.epsilon == pytest.approx(1 / 18)


def test_bad_center_18_other_alphas():
    for alpha in (1.5, 2.0, 4.0):
        planted = gen_bad_center_18(alpha)
        assert brute_force_optimal(planted.instance.dist, 3).optimal_radius == 1.0


def test_dominating_set_star_and_path():
    n, edges = named_graph("star5")
    inst = gen_from_dominating_set(n, edges)
    assert set(np.unique(inst.dist)) <= {0.0, 1.0, 2.0}
    assert brute_force_optimal(inst.dist, 1).optimal_radius == 1.0

    n, edges = named_graph("path4")
    inst = gen_from_dominating_set(n, edges)
    assert brute_force_optimal(inst.dist, 1).optimal_radius == 2.0
    assert brute_force_optimal(inst.dist, 2).optimal_radius == 1.0


def test_dominating_set_edgeless():
    n, edges = named_graph("empty5")
    inst = gen_from_dominating_set(n, edges)
    assert brute_force_optimal(inst.dist, 5).optimal_radius == 0.0


def _has_dominating_set(n, edges, k):
    adj = {v: {v} for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(set().union(*(adj[v] for v in pick)) == set(range(n))
               for pick in itertools.combinations(range(n), k))


def test_dominating_set_reduction_agrees_with_exhaustive_search():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(3, 9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.35]
        k = int(rng.integers(1, n))
        inst = gen_from_dominating_set(n, edges)
        radius = brute_force_optimal(inst.dist, k).optimal_radius
        assert (radius <= 1.0) == _has_dominating_set(n, edges, k)


def test_eps_padding_counts_and_truth():
    base = validate_instance([[0.0, 1.0], [1.0, 0.0]], "symmetric")
    planted = gen_eps_padding(base, k=1, alpha=2.0, epsilon=0.5)
    extras = planted.guarantee.extras
    assert extras["n_pad"] == 4
    assert extras["k_prime"] == 5
    assert planted.instance.n == 6
    res = brute_force_optimal(planted.instance.dist, 5)
    assert res.optimal_radius == 1.0
    # every optimal solution keeps the pads as singletons
    for centers in res.optimal_center_sets:
        cl = voronoi_partition(planted.instance.dist, centers)
        for pad in range(2, 6):
            assert cl.clusters()[cl.assignment[pad]] == [pad]
    assert epsilon_distance(res.clustering(planted.instance.dist),
                            planted.truth) == 0.0


def test_eps_padding_epsilon_one():
    base = gen_random_metric(4, "symmetric", 2)
    planted = gen_eps_padding(base, k=2, alpha=1.5, epsilon=1.0)
    assert planted.guarantee.extras["n_pad"] == 4


def test_eps_padding_refuses_before_building_the_table(monkeypatch):
    def no_call(*args):
        raise AssertionError("the padded table was built")

    small, large = (gen_random_metric(n, "symmetric", 0) for n in (12, 60))
    monkeypatch.setattr(generators, "validate_instance", no_call)
    with pytest.raises(InfeasibleParams, match="exceeds 2000 points"):
        gen_eps_padding(small, k=3, alpha=2.0, epsilon=1e-6)
    with pytest.raises(InfeasibleParams, match="exceeds 2000 points"):
        gen_eps_padding(small, k=3, alpha=2.0, epsilon=12 / 1989)  # 2001
    with pytest.raises(BudgetExceeded):  # C(60, 5) subsets
        gen_eps_padding(large, k=5, alpha=2.0, epsilon=0.5)


def test_random_metric_valid_both_modes():
    for seed in range(100):
        for mode in ("symmetric", "asymmetric"):
            inst = gen_random_metric(7, mode, seed)
            validate_instance(inst.dist, mode)


def test_random_metric_symmetric_table_is_symmetric():
    inst = gen_random_metric(9, "symmetric", 12)
    assert np.array_equal(inst.dist, inst.dist.T)


def test_random_metric_closure_idempotent():
    inst = gen_random_metric(8, "asymmetric", 4)
    assert np.array_equal(floyd_warshall(inst.dist), inst.dist)


def test_generators_deterministic():
    a = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 9)
    b = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 9)
    assert np.array_equal(a.instance.dist, b.instance.dist)
    assert a.truth.assignment == b.truth.assignment


def test_named_graph_families():
    assert named_graph("cycle4") == (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert named_graph("complete3") == (3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        named_graph("blob7")
