"""Recovery algorithms against the oracle and the planted generators."""

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    AsymmetricInput,
    ClusterVerifier,
    NeedsMoreCenters,
    SOLVERS,
    SolveOutcome,
    approx_stability_2eps,
    asymmetric_2pr,
    asymmetric_3eps,
    brute_force_optimal,
    cost,
    epsilon_distance,
    exact_via_approximation,
    farthest_first,
    hochbaum_shmoys_cover,
    sweep_radius,
    symmetric_3eps,
    validate_instance,
    weak_proximity_linkage,
)
from kcenter_resilience import solvers
from kcenter_resilience.generators import (
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
)


def test_farthest_first_k_equals_n():
    inst = gen_random_metric(6, "symmetric", 0)
    centers = farthest_first(inst, 6)
    assert cost(inst, centers) == 0.0


def test_farthest_first_rejects_asymmetric():
    inst = gen_random_metric(5, "asymmetric", 0)
    with pytest.raises(AsymmetricInput):
        farthest_first(inst, 2)


def test_farthest_first_one_center_per_planted_cluster():
    planted = gen_planted_symmetric(10, 2, 1.0, 2.0, 2)
    centers = farthest_first(planted.instance, 2)
    labels = {planted.truth.assignment[c] for c in centers}
    assert labels == {0, 1}


def test_farthest_first_within_twice_oracle():
    for seed in range(10):
        inst = gen_random_metric(15, "symmetric", seed)
        for k in (2, 3):
            opt = brute_force_optimal(inst.dist, k).optimal_radius
            assert cost(inst, farthest_first(inst, k)) <= 2 * opt


def test_hochbaum_shmoys_edges():
    inst = gen_random_metric(8, "symmetric", 1)
    diam = float(inst.dist.max())
    assert hochbaum_shmoys_cover(inst, diam / 2, 1) == (0,)
    with pytest.raises(NeedsMoreCenters):
        hochbaum_shmoys_cover(inst, 0.0, 7)
    assert len(hochbaum_shmoys_cover(inst, 0.0, 8)) == 8


def test_hochbaum_shmoys_planted_one_center_per_cluster():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 6)
    centers = hochbaum_shmoys_cover(planted.instance, planted.truth.radius, 3)
    assert len(centers) == 3
    assert {planted.truth.assignment[c] for c in centers} == {0, 1, 2}
    assert cost(planted.instance, centers) <= 2 * planted.truth.radius


def test_exact_via_approximation_planted():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 7)
    out = exact_via_approximation(planted.instance, 3, alpha=2.0)
    assert out.status == "exact-claim"
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()


def test_exact_via_approximation_cost_bound_holds_regardless():
    inst = gen_random_metric(12, "symmetric", 9)
    out = exact_via_approximation(inst, 3, alpha=2.0)
    opt = brute_force_optimal(inst.dist, 3).optimal_radius
    assert out.clustering.radius <= 2 * opt


def test_asymmetric_2pr_symmetric_instance_agrees_with_thm3():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 5)
    r = brute_force_optimal(planted.instance.dist, 3).optimal_radius
    a = asymmetric_2pr(planted.instance, 3, r)
    b = exact_via_approximation(planted.instance, 3, alpha=2.0)
    assert a.status == "exact-claim"
    assert a.clustering.canonical_partition() == \
        b.clustering.canonical_partition()


def test_asymmetric_2pr_planted_asymmetric():
    planted = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 3)
    out = asymmetric_2pr(planted.instance, 3, planted.truth.radius)
    assert out.status == "exact-claim"
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()
    assert "ball_sizes_restricted" in out.diagnostics


def _six_point_property2_mutant(t):
    """Two clusters {0,1} and {2,3,4,5}; point 3 undercuts center 0 at t."""
    d = np.full((6, 6), 4.0)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 1.0
    for j in (3, 4, 5):
        d[2, j] = d[j, 2] = 1.0
    d[3, 0] = t
    return floyd_warshall(d)


def test_asymmetric_2pr_property2_violation_visible():
    d = _six_point_property2_mutant(0.5)
    res = brute_force_optimal(d, 2)
    out = asymmetric_2pr(d, 2, res.optimal_radius)
    opt = res.clustering(d)
    assert (out.status == "not-resilient"
            or out.clustering.canonical_partition()
            != opt.canonical_partition())


def test_symmetric_3eps_planted():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 8)
    out = symmetric_3eps(planted.instance, 3, planted.truth.radius)
    assert out.status == "exact-claim"
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()


def test_symmetric_3eps_bridge_pair_merges():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 8)
    d = planted.instance.dist.copy()
    r = planted.truth.radius
    p = planted.truth.clusters()[0][0]
    q = planted.truth.clusters()[1][0]
    d[p, q] = d[q, p] = r
    out = symmetric_3eps(d, 3, r)
    assert out.status == "not-resilient"
    assert out.diagnostics["component_count"] == 2


def test_symmetric_3eps_all_far_apart():
    d = np.full((5, 5), 3.0)
    np.fill_diagonal(d, 0.0)
    inst = validate_instance(d, "symmetric")
    out = symmetric_3eps(inst, 5, 1.0)
    assert out.status == "exact-claim"
    assert out.clustering.k == 5


def test_asymmetric_3eps_planted_uses_x_zero():
    planted = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 1)
    out = asymmetric_3eps(planted.instance, 3, planted.truth.radius)
    assert out.status == "eps-close-claim"
    assert out.diagnostics["x"] == 0
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()


def test_weak_proximity_linkage_trivial_cases():
    inst = gen_random_metric(4, "symmetric", 0)
    ver = ClusterVerifier.equal_size(4, 4)
    out = weak_proximity_linkage(inst, 4, ver)
    assert out.clustering.k == 4
    out1 = weak_proximity_linkage(inst, 1, ClusterVerifier.equal_size(4, 1))
    assert out1.clustering.canonical_partition() == ((0, 1, 2, 3),)


def test_weak_proximity_linkage_planted_and_oracle():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 4)
    ver = ClusterVerifier.equal_size(12, 3)
    out = weak_proximity_linkage(planted.instance, 3, ver)
    assert out.status == "exact-claim"
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()
    oracle = brute_force_optimal(planted.instance.dist, 3)
    assert out.clustering.canonical_partition() == \
        oracle.clustering(planted.instance.dist).canonical_partition()


def test_weak_proximity_linkage_target_cost_verifier():
    # three far-apart pairs: every cluster has one-center cost exactly 1,
    # every strict subset (a singleton) has cost 0
    d = np.full((6, 6), 10.0)
    np.fill_diagonal(d, 0.0)
    for a in (0, 2, 4):
        d[a, a + 1] = d[a + 1, a] = 1.0
    inst = validate_instance(d, "symmetric")
    ver = ClusterVerifier.target_cost(inst, 1.0)
    out = weak_proximity_linkage(inst, 3, ver)
    assert out.clustering.canonical_partition() == \
        ((0, 1), (2, 3), (4, 5))


def test_weak_proximity_linkage_verifier_stuck():
    inst = gen_random_metric(6, "symmetric", 3)
    # f >= 0 everywhere: no component may ever be grown
    always_ok = ClusterVerifier(kind="degenerate", fn=lambda b: 0.0)
    out = weak_proximity_linkage(inst, 2, always_ok)
    assert out.status == "not-resilient" and out.clustering is None
    assert out.diagnostics["reason"] == \
        "all components verify but more than k remain"
    assert out.diagnostics["committed_edges"] == ()


def test_weak_proximity_linkage_single_component_stuck():
    inst = gen_random_metric(6, "symmetric", 3)
    # f < 0 everywhere: merging never stops short of one component
    never_ok = ClusterVerifier(kind="degenerate", fn=lambda b: -1.0)
    out = weak_proximity_linkage(inst, 2, never_ok)
    assert out.status == "not-resilient"
    assert out.diagnostics["reason"] == "a single component still has f < 0"
    assert out.diagnostics["committed_edges"] == ()


def test_approx_stability_planted():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 6)
    out = approx_stability_2eps(planted.instance, 3, planted.truth.radius, 0.1)
    assert out.status == "exact-claim"
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()


def test_approx_stability_trivial():
    inst = gen_planted_symmetric(6, 1, 1.0, 2.0, 0).instance
    out = approx_stability_2eps(inst, 1, 1.0, 0.5)
    assert out.status == "exact-claim"
    assert out.clustering.k == 1
    # epsilon * n >= n kills every edge
    out2 = approx_stability_2eps(inst, 1, 1.0, 1.0)
    assert out2.status == "not-resilient"
    assert out2.diagnostics["component_count"] == 6


def test_sweep_radius_finds_planted_radius():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 9)
    out, chosen = sweep_radius(planted.instance, 3,
                               lambda inst, k, r: symmetric_3eps(inst, k, r))
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()
    r_star = brute_force_optimal(planted.instance.dist, 3).optimal_radius
    assert chosen == r_star


def test_sweep_radius_k_equals_n_picks_zero():
    inst = gen_random_metric(5, "symmetric", 4)
    out, chosen = sweep_radius(inst, 5,
                               lambda i, k, r: symmetric_3eps(i, k, r))
    assert chosen == 0.0
    assert out.clustering.k == 5


def test_sweep_radius_candidates_below_r_star_fail():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 10)
    r_star = brute_force_optimal(planted.instance.dist, 3).optimal_radius
    d = planted.instance.dist
    below = sorted(set(d[d > 0].tolist()))
    for r in below:
        if r >= r_star:
            break
        assert symmetric_3eps(planted.instance, 3, r).status == "not-resilient"


def test_sweep_radius_no_candidate_works():
    inst = gen_random_metric(6, "symmetric", 7)
    tried = []

    def always_fails(i, k, r):
        tried.append(r)
        return SolveOutcome(status="not-resilient")

    out, chosen = sweep_radius(inst, 4, always_fails)
    assert chosen is None
    assert out.status == "not-resilient" and out.clustering is None
    assert out.diagnostics["reason"] == "no candidate radius works"
    assert out.diagnostics["sweep_log"] == tuple(
        (r, "not-resilient") for r in tried)
    assert [r for r, _ in out.diagnostics["sweep_log"]] == \
        sorted(set([0.0] + inst.dist[inst.dist > 0].tolist()))


@pytest.mark.parametrize(
    "solver_id,budget",
    [(sid, None) for sid in sorted(SOLVERS)] + [("alg2-3eps-asym", 0)],
    ids=sorted(SOLVERS) + ["alg2-3eps-asym-budget-0"])
def test_sweep_raises_nothing_but_asymmetric_input(monkeypatch, solver_id,
                                                    budget):
    # a failed promise is a not-resilient outcome, never an exception
    if budget is not None:
        monkeypatch.setattr(solvers, "PATCH_BUDGET", budget)
    instances = [gen_random_metric(7, mode, seed)
                 for mode in ("symmetric", "asymmetric") for seed in (0, 1)]
    instances += [gen_planted_symmetric(9, 3, 1.0, 2.0, 2).instance,
                  gen_planted_asymmetric(9, 3, 1.0, 2.0, 1.2, 2).instance]
    solve = SOLVERS[solver_id].solve
    for inst in instances:
        for k in (1, 2, 3):
            try:
                out, chosen = sweep_radius(
                    inst, k, lambda i, kk, r: solve(i, kk, r, 0.1))
            except AsymmetricInput:
                assert not inst.is_symmetric
                continue
            assert out.ok == (chosen is not None)
            assert out.ok or "reason" in out.diagnostics


def test_solver_registry_ids():
    assert set(SOLVERS) == {"ff2", "hs", "thm3", "alg1-2pr", "thm5-3eps",
                            "alg2-3eps-asym", "alg3-linkage", "alg4-2eps-as"}


def test_solvers_deterministic():
    planted = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 2)
    a = asymmetric_3eps(planted.instance, 3, planted.truth.radius)
    b = asymmetric_3eps(planted.instance, 3, planted.truth.radius)
    assert a.clustering.assignment == b.clustering.assignment
    assert a.diagnostics == b.diagnostics
