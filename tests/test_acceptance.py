"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Each test prints exactly one "criterion N PASS/FAIL" line so the suite's
output doubles as a checklist.  All comparisons are exact unless a
tolerance is stated in the check itself.
"""

import itertools

import numpy as np
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    StabilityParams,
    approx_stability_2eps,
    asymmetric_2pr,
    asymmetric_3eps,
    brute_force_optimal,
    build_lemma1_perturbation,
    cost,
    epsilon_distance,
    equal_size_verifier,
    exact_via_approximation,
    falsify_resilience,
    farthest_first,
    hochbaum_shmoys_cover,
    symmetric_3eps,
    voronoi_partition,
    weak_proximity_linkage,
)
from kcenter_resilience.generators import (
    gen_bad_center_18,
    gen_from_dominating_set,
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
)
from kcenter_resilience.oracle import DEFAULT_SUBSET_BUDGET


def _verdict(num, label, ok):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_approximation_is_exact_under_resilience():
    ok = True
    for seed in range(50):
        n = 8 + seed % 5          # n <= 12
        k = 1 + seed % 3          # k <= 3
        planted = gen_planted_symmetric(n, k, 1.0, 2.0, seed)
        out = exact_via_approximation(planted.instance, k, alpha=2.0)
        oracle = brute_force_optimal(planted.instance.dist, k)
        opt = oracle.clustering(planted.instance.dist)
        if (epsilon_distance(out.clustering, opt) != 0.0
                or not oracle.partition_unique):
            ok = False
            break
    _verdict(1, "2-approximation Voronoi partition = unique optimum "
                "on 50 planted symmetric instances", ok)


def _six_point_property2_mutant(t):
    """Two clusters {0,1} / {2,3,4,5}; point 3 undercuts center 0 at t < 1."""
    d = np.full((6, 6), 4.0)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 1.0
    for j in (3, 4, 5):
        d[2, j] = d[j, 2] = 1.0
    d[3, 0] = t
    return floyd_warshall(d)


def test_criterion_2_ball_pruning_recovers_and_mutants_are_flagged():
    from kcenter_resilience import check_structure, Clustering
    ok = True
    for seed in range(50):
        n = 8 + seed % 5
        planted = gen_planted_asymmetric(n, 3, 1.0, 2.0, 1.2, seed)
        out = asymmetric_2pr(planted.instance, 3, planted.truth.radius)
        if (out.status != "exact-claim"
                or epsilon_distance(out.clustering, planted.truth) != 0.0):
            ok = False
            break
    truth6 = Clustering(k=2, centers=(0, 2), assignment=(0, 0, 1, 1, 1, 1),
                        radius=1.0)
    for i in range(1, 21):
        d = _six_point_property2_mutant(i / 32)
        if check_structure(d, truth6, r_star=1.0).property2:
            ok = False
            break
        oracle = brute_force_optimal(d, 2)
        out = asymmetric_2pr(d, 2, oracle.optimal_radius)
        visibly_off = (out.status != "exact-claim"
                       or out.clustering.canonical_partition()
                       != oracle.clustering(d).canonical_partition())
        if not visibly_off:
            ok = False
            break
    _verdict(2, "ball pruning exact on 50 planted asymmetric instances; "
                "20 foreign-point-near-center mutants flagged or refused", ok)


def test_criterion_3_threshold_components_and_bridge_mutants():
    ok = True
    for seed in range(50):
        n = 9 + seed % 4
        planted = gen_planted_symmetric(n, 3, 1.0, 2.0, seed)
        r = planted.truth.radius
        out = symmetric_3eps(planted.instance, 3, r)
        if (out.status != "exact-claim"
                or epsilon_distance(out.clustering, planted.truth) != 0.0):
            ok = False
            break
        d = planted.instance.dist.copy()
        p = planted.truth.clusters()[0][0]
        q = planted.truth.clusters()[1][0]
        d[p, q] = d[q, p] = r
        if symmetric_3eps(d, 3, r).status != "not-resilient":
            ok = False
            break
    _verdict(3, "threshold components = planted on 50 instances; "
                "a bridge pair at r* flips all 50 to not-resilient", ok)


def test_criterion_4_cover_and_patch_on_the_bad_center_instance():
    planted = gen_bad_center_18(3.0)
    out = asymmetric_3eps(planted.instance, 3, 1.0)
    ok = (out.status == "eps-close-claim"
          and epsilon_distance(out.clustering, planted.truth) <= 1 / 18)
    for seed in range(10):
        pa = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, seed)
        res = asymmetric_3eps(pa.instance, 3, pa.truth.radius)
        if (res.diagnostics.get("x") != 0
                or epsilon_distance(res.clustering, pa.truth) != 0.0):
            ok = False
            break
    _verdict(4, "18-point one-bad-center instance solved within 1 moved "
                "point; x = 0 suffices when no center is bad", ok)


def test_criterion_5_guarded_linkage_equal_size_clusters():
    ok = True
    for seed in range(50):
        k = 2 + seed % 4                      # k <= 5
        n = k * (3 + seed % 3)                # equal sizes, n <= 60
        if seed % 5 == 0:
            k, n = 5, 60
        planted = gen_planted_symmetric(n, k, 1.0, 2.0, seed)
        out = weak_proximity_linkage(planted.instance, k,
                                     equal_size_verifier(n, k))
        if (out.status != "exact-claim"
                or epsilon_distance(out.clustering, planted.truth) != 0.0):
            ok = False
            break
        if n <= 12:
            oracle = brute_force_optimal(planted.instance.dist, k)
            opt = oracle.clustering(planted.instance.dist)
            if epsilon_distance(out.clustering, opt) != 0.0:
                ok = False
                break
    _verdict(5, "guarded linkage recovers 50 planted equal-size "
                "clusterings; matches the oracle when n <= 12", ok)


def test_criterion_6_ball_intersection_components():
    ok = True
    eps = 0.1
    for seed in range(50):
        n = 10 + seed % 3
        planted = gen_planted_symmetric(n, 3, 1.0, 2.0, seed)
        r = planted.truth.radius
        sizes = [len(c) for c in planted.truth.clusters()]
        if min(sizes) <= eps * n:
            ok = False
            break
        out = approx_stability_2eps(planted.instance, 3, r, eps)
        if (out.status != "exact-claim"
                or epsilon_distance(out.clustering, planted.truth) != 0.0):
            ok = False
            break
        big_eps = max(sizes) / n
        if approx_stability_2eps(planted.instance, 3, r,
                                 big_eps).status != "not-resilient":
            ok = False
            break
    _verdict(6, "ball-intersection components exact on 50 planted "
                "instances; epsilon above the cluster fraction refuses", ok)


def test_criterion_7_capped_perturbation_cost_is_exactly_alpha_r():
    ok = True
    for seed in range(30):
        n = 6 + seed % 5     # n <= 10
        k = 2 + seed % 2
        mode = "symmetric" if seed % 2 == 0 else "asymmetric"
        inst = gen_random_metric(n, mode, seed)
        alpha = 1.25 + (seed % 4) * 0.25
        r = brute_force_optimal(inst.dist, k).optimal_radius
        rng = np.random.default_rng(seed)
        eligible = [(int(p), int(q)) for p, q in
                    np.argwhere((inst.dist <= alpha * r) & (inst.dist > 0))]
        picked = [eligible[i] for i in
                  rng.choice(len(eligible),
                             size=min(len(eligible), 1 + seed % 7),
                             replace=False)]
        pert = build_lemma1_perturbation(inst, r, alpha, picked)
        if brute_force_optimal(pert.dprime, k).optimal_radius != alpha * r:
            ok = False
            break
    _verdict(7, "capped perturbations have optimal cost exactly "
                "alpha * r* on 30 instances, zero tolerance", ok)


def test_criterion_8_two_approximation_bounds():
    ok = True
    for seed in range(200):
        n = 10 + seed % 6    # n <= 15
        k = 1 + seed % 4     # k <= 4
        inst = gen_random_metric(n, "symmetric", seed)
        r = brute_force_optimal(inst.dist, k).optimal_radius
        if cost(inst, farthest_first(inst, k)) > 2 * r:
            ok = False
            break
        centers = hochbaum_shmoys_cover(inst, r, k)
        if len(centers) > k:
            ok = False
            break
    _verdict(8, "farthest-first cost <= 2 r* and greedy cover at r* uses "
                "<= k centers on 200 random symmetric metrics", ok)


def _has_dominating_set(n, edges, k):
    adj = {v: {v} for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(set().union(*(adj[v] for v in pick)) == set(range(n))
               for pick in itertools.combinations(range(n), k))


def test_criterion_9_dominating_set_reduction():
    ok = True
    rng = np.random.default_rng(1234)
    for trial in range(100):
        n = 3 + trial % 6                    # |V| <= 8
        p_edge = 0.15 + 0.1 * (trial % 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p_edge]
        k = 1 + trial % (n - 1)              # keep k < n so radius > 0
        inst = gen_from_dominating_set(n, edges)
        radius = brute_force_optimal(inst.dist, k).optimal_radius
        if (radius == 1.0) != _has_dominating_set(n, edges, k):
            ok = False
            break
    _verdict(9, "oracle radius 1 iff a size-k dominating set exists, "
                "100 sampled graphs with at most 8 vertices", ok)


def test_criterion_10_falsifier_counterexamples_revalidate():
    ok = True
    found = 0
    for gap_index in range(6):
        gap = 1.05 + 0.1 * gap_index
        pts = np.array([0.0, 1.0, 1.0 + gap, 2.0 + gap])
        d = np.abs(pts[:, None] - pts[None, :])
        res = falsify_resilience(d, 2, StabilityParams(2.0, 0.0), budget=100)
        if res.status != "falsified":
            continue
        found += 1
        pert = res.perturbation
        if not pert.bounds_ok():
            ok = False
            break
        replay = brute_force_optimal(pert.dprime, 2,
                                     budget=DEFAULT_SUBSET_BUDGET)
        eps_values = [epsilon_distance(voronoi_partition(pert.dprime, c),
                                       res.opt_clustering)
                      for c in replay.optimal_center_sets]
        if max(eps_values) <= 0.0 or res.eps_dist not in eps_values:
            ok = False
            break
    ok = ok and found >= 3
    _verdict(10, "every emitted counterexample re-validates: bounds hold "
                 "and some exact optimum under d' moves off the original "
                 "partition", ok)
