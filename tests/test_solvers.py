"""Recovery algorithms against the oracle and the planted generators."""

import bisect
import inspect
import itertools
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    AsymmetricInput,
    BudgetExceeded,
    SOLVERS,
    SolveOutcome,
    approx_stability_2eps,
    asymmetric_2pr,
    asymmetric_3eps,
    brute_force_optimal,
    cost,
    equal_size_verifier,
    exact_via_approximation,
    farthest_first,
    hochbaum_shmoys_cover,
    optimal_radius,
    sweep_radius,
    symmetric_3eps,
    symmetrized_set,
    target_cost_verifier,
    validate_instance,
    voronoi_partition,
    weak_proximity_linkage,
)
from kcenter_resilience import solvers
from kcenter_resilience.core import components, label_groups
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
    assert len(hochbaum_shmoys_cover(inst, 0.0, 7)) == 8  # k + 1: r too small
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
    ver = equal_size_verifier(4, 4)
    out = weak_proximity_linkage(inst, 4, ver)
    assert out.clustering.k == 4
    out1 = weak_proximity_linkage(inst, 1, equal_size_verifier(4, 1))
    assert out1.clustering.canonical_partition() == ((0, 1, 2, 3),)


def test_weak_proximity_linkage_planted_and_oracle():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 4)
    ver = equal_size_verifier(12, 3)
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
    ver = target_cost_verifier(inst, 1.0)
    out = weak_proximity_linkage(inst, 3, ver)
    assert out.clustering.canonical_partition() == \
        ((0, 1), (2, 3), (4, 5))


def test_weak_proximity_linkage_verifier_stuck():
    inst = gen_random_metric(6, "symmetric", 3)
    # f >= 0 everywhere: no component may ever be grown
    out = weak_proximity_linkage(inst, 2, lambda b: 0.0)
    assert out.status == "not-resilient" and out.clustering is None
    assert out.diagnostics["reason"] == \
        "all components verify but more than k remain"
    assert out.diagnostics["committed_edges"] == ()


def test_weak_proximity_linkage_single_component_stuck():
    inst = gen_random_metric(6, "symmetric", 3)
    # f < 0 everywhere: merging never stops short of one component
    out = weak_proximity_linkage(inst, 2, lambda b: -1.0)
    assert out.status == "not-resilient"
    assert out.diagnostics["reason"] == "a single component still has f < 0"
    assert out.diagnostics["committed_edges"] == ()


def test_weak_proximity_linkage_default_verifier_needs_k_to_divide_n(
        monkeypatch):
    # equal_size_verifier promises n/k-point clusters: none when k does not
    # divide n; an explicit verifier still runs there
    monkeypatch.setattr(solvers, "_spanning_tree", None)  # never reached
    inst = gen_planted_symmetric(13, 3, 1.0, 2.0, 1).instance
    out = weak_proximity_linkage(inst, 3)
    assert out.status == "not-resilient"
    assert out.diagnostics == {
        "reason": "the equal-size promise needs k to divide n",
        "committed_edges": ()}
    monkeypatch.undo()
    assert weak_proximity_linkage(inst, 1).status == "exact-claim"
    assert weak_proximity_linkage(inst, 3, lambda b: len(b) - 4).ok


@pytest.mark.parametrize("k", [-1, 0, 13])
def test_weak_proximity_linkage_rejects_k_outside_1_to_n(monkeypatch, k):
    inst = gen_random_metric(12, "symmetric", 3)
    calls = []

    def verifier(members):
        calls.append(members)
        return -1.0

    message = f"need 1 <= k <= n, got k={k}, n=12"
    with pytest.raises(ValueError, match=message):
        weak_proximity_linkage(inst, k, verifier)
    monkeypatch.setattr(solvers, "equal_size_verifier", lambda n, k: verifier)
    with pytest.raises(ValueError, match=message):
        SOLVERS["alg3-linkage"].solve(inst, k, None, None)
    assert calls == []


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
                               SOLVERS["thm5-3eps"].solve)
    assert out.clustering.canonical_partition() == \
        planted.truth.canonical_partition()
    r_star = brute_force_optimal(planted.instance.dist, 3).optimal_radius
    assert chosen == r_star


def test_sweep_radius_k_equals_n_picks_zero():
    inst = gen_random_metric(5, "symmetric", 4)
    out, chosen = sweep_radius(inst, 5, SOLVERS["thm5-3eps"].solve)
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


def test_sweep_radius_logs_negative_zero_as_zero():
    # points 0, 1 and 2 coincide at distance -0.0
    d = gen_random_metric(6, "symmetric", 7).dist.copy()
    d[:3] = d[0]
    d[:, :3] = d[:, [0]]
    d[:3, :3] = -0.0
    np.fill_diagonal(d, 0.0)
    out, chosen = sweep_radius(validate_instance(d, "symmetric"), 4,
                               lambda i, k, r: SolveOutcome("not-resilient"))
    assert [repr(r) for r, _ in out.diagnostics["sweep_log"]] == \
        [repr(r) for r in sorted(set([0.0] + d.ravel().tolist()))]
    assert repr(out.diagnostics["sweep_log"][0][0]) == "0.0"


def test_sweep_radius_logs_inconsistent_radii():
    # points 0..4 and 6 on a line, k=2: at r=1 the chain 0..4 is one
    # component of cost 2 > r; from r=2 on there is one component
    pts = np.array([0.0, 1, 2, 3, 4, 6])
    inst = validate_instance(np.abs(pts[:, None] - pts), "symmetric")
    tried = []
    out, chosen = sweep_radius(inst, 2, lambda i, k, r: (
        tried.append(r) or SOLVERS["thm5-3eps"].solve(i, k, r)))
    assert chosen is None
    assert out.diagnostics["sweep_log"] == (
        (0.0, "not-resilient"), (1.0, "inconsistent"), (2.0, "not-resilient"),
        (3.0, "not-resilient"), (4.0, "not-resilient"), (5.0, "not-resilient"),
        (6.0, "not-resilient"))
    # the first candidate, a bisection for the start of the count-k range
    # (m = 7), the call at the first r covering the partition's cost (2.0,
    # past the range) and a bisection for the range's end
    assert len(tried) == len(set(tried)) <= 2 * math.ceil(math.log2(7)) + 3


def test_monotone_sweep_calls_logarithmically():
    planted = gen_planted_symmetric(60, 5, 1.0, 2.0, 3)
    candidates = np.unique(planted.instance.dist).tolist()
    bound = math.ceil(math.log2(len(candidates))) + 3
    for solver_id, eps in (("thm5-3eps", None), ("alg4-2eps-as", 0.05)):
        solve, tried = SOLVERS[solver_id].solve, []
        out, chosen = sweep_radius(planted.instance, 5, lambda i, k, r: (
            tried.append(r) or solve(i, k, r, eps)))
        assert out.ok and chosen in tried
        assert len(tried) == len(set(tried)) <= bound
    # a solver without the promise is called at the first candidate, then
    # at every candidate from the first whose 2r reaches the lower bound
    hs, tried = SOLVERS["hs"].solve, []
    out, chosen = sweep_radius(planted.instance, 5, lambda i, k, r: (
        tried.append(r) or hs(i, k, r, None)))
    start = bisect.bisect_left(
        candidates, solvers._opt_lower_bound(planted.instance.dist, 5),
        key=lambda r: r * 2.0)
    assert out.ok and start > 1
    assert tried == [candidates[0]] + candidates[
        start:candidates.index(chosen) + 1]


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


# --- differential checks against from-definition references ----------------

def _reference_linkage(d, k, verifier, revived=None):
    """Guarded linkage by definition: rescan every pair for each merge.

    revived, if given, gets each merged pair that an earlier scan of the
    same round passed over as ineligible: one of its ends went from
    f >= 0 to f < 0 through a merge in between.
    """
    n = d.shape[0]
    labels = np.arange(n)
    flat_index = np.arange(n * n).reshape(n, n)
    committed = []

    def stuck(reason):
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": reason, "committed_edges": tuple(committed)})

    while len(set(labels.tolist())) > k:
        scratch = labels.copy()
        comps = {g[0]: g for g in label_groups(scratch)}
        fval = {root: verifier(m) for root, m in comps.items()}
        passed = np.zeros((n, n), dtype=bool)  # passed over this round
        last_edge = None
        while any(v < 0 for v in fval.values()):
            if len(comps) == 1:
                return stuck("a single component still has f < 0")
            neg = np.array([fval[scratch[p]] < 0 for p in range(n)])
            diff = scratch[:, None] != scratch[None, :]
            eligible = diff & (neg[:, None] | neg[None, :])
            flat = int(np.where(eligible, d, np.inf).argmin())  # row-major
            p, q = divmod(flat, n)
            if revived is not None and (passed[p, q] or passed[q, p]):
                revived.append((p, q))
            passed |= diff & ~eligible & (
                (d < d[p, q]) | ((d == d[p, q]) & (flat_index < flat)))
            rp, rq = scratch[p], scratch[q]
            keep, drop = min(rp, rq), max(rp, rq)
            members = comps.pop(drop) + comps.pop(keep)
            scratch[scratch == drop] = keep
            comps[keep] = members
            fval.pop(drop)
            fval.pop(keep)
            fval[keep] = verifier(members)
            last_edge = (int(min(p, q)), int(max(p, q)))
        if last_edge is None:
            return stuck("all components verify but more than k remain")
        committed.append(last_edge)
        p, q = last_edge
        rp, rq = labels[p], labels[q]
        labels[labels == max(rp, rq)] = min(rp, rq)
    return SolveOutcome(status="exact-claim",
                        clustering=solvers._clustering_from_groups(
                            d, label_groups(labels)),
                        diagnostics={"committed_edges": tuple(committed)})


def _reference_symmetrized_set(d, r):
    """(A, nearest A-point of each other point) by the definition."""
    n = d.shape[0]
    a = [p for p in range(n)
         if all(d[p, q] <= r for q in range(n) if d[q, p] <= r)]
    nearest = {p: min(a, key=lambda q: (d[q, p], q))
               for p in range(n) if a and p not in a}
    return a, nearest


def _reference_2pr(d, k, r):
    """Ball pruning for asymmetric 2-PR on Python sets."""
    a, nearest = _reference_symmetrized_set(d, r)
    if not a:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set"})
    balls = {c: {q for q in a if d[c, q] <= r} for c in a}
    leak = [c for c in a
            if any(d[q, p] < d[c, p] for p in balls[c]
                   for q in a if q not in balls[c])]
    alive = [c for c in a if c not in leak]
    pruned = [p for p in alive
              if any(balls[p] < balls[q] or (balls[p] == balls[q] and q < p)
                     for q in alive if q != p)]
    survivors = [c for c in alive if c not in pruned]
    diagnostics = {
        "surviving": len(survivors),
        "pruned_leak": len(leak),
        "pruned_subset": len(pruned),
        "ball_sizes_restricted": {c: len(balls[c]) for c in survivors},
        "ball_sizes_unrestricted": {
            c: sum(1 for q in range(d.shape[0]) if d[c, q] <= r)
            for c in survivors},
    }
    if len(survivors) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    groups = [sorted(balls[c]) for c in survivors]
    if sorted(p for g in groups for p in g) != a:
        diagnostics["reason"] = "surviving balls do not partition A"
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    owner = {p: i for i, g in enumerate(groups) for p in g}
    for p, ap in nearest.items():
        groups[owner[ap]].append(p)
    groups = sorted(sorted(g) for g in groups)
    return SolveOutcome(status="exact-claim",
                        clustering=solvers._clustering_from_groups(d, groups),
                        diagnostics=diagnostics)


def _grid_table(n, seed, directed):
    """L1 distances between points of a 4 x 4 integer grid: many ties, and
    zeros where two points coincide.  Directed: steps up cost 2, down 3."""
    pts = np.random.default_rng(seed).integers(0, 4, size=(n, 2))
    step = pts[None, :, :] - pts[:, None, :]
    if directed:
        return (2 * np.clip(step, 0, None)
                + 3 * np.clip(-step, 0, None)).sum(axis=2).astype(float)
    return np.abs(step).sum(axis=2).astype(float)


def _outcome_key(out):
    cl = out.clustering
    return (out.status, repr(out.diagnostics),
            None if cl is None else (cl.k, cl.centers, cl.assignment,
                                     cl.radius))


SYM_TABLES = (
    [gen_planted_symmetric(n, 3, 1.0, 2.0, s).instance.dist
     for n in (9, 12) for s in (0, 1)]
    + [_grid_table(n, s, directed=False) for n in (7, 10) for s in (0, 1)]
    + [gen_random_metric(n, "symmetric", s).dist for n in (6, 9) for s in (0, 1)])
ASYM_TABLES = (
    [gen_planted_asymmetric(n, 3, 1.0, 2.0, 1.2, s).instance.dist
     for n in (9, 12) for s in (0, 1)]
    + [_grid_table(n, s, directed=True) for n in (7, 10) for s in (0, 1)]
    + [gen_random_metric(n, "asymmetric", s).dist for n in (6, 9) for s in (0, 1)])


def _tie_table(n, seed, symmetric):
    """Entries drawn from 1, 2, 3: ties everywhere, and no metric."""
    t = np.random.default_rng(seed).integers(1, 4, size=(n, n)).astype(float)
    if symmetric:
        t = np.minimum(t, t.T)
    np.fill_diagonal(t, 0.0)
    return t


def _kruskal_tree(d):
    """Reference: Kruskal over the entries in (d[p, q], p, q) order with a
    label array, each tree edge as the first entry of its pair."""
    n = d.shape[0]
    labels = np.arange(n)
    tree = []
    for flat in np.argsort(d, axis=None, kind="stable").tolist():
        if len(tree) == n - 1:
            break
        p, q = divmod(flat, n)
        lp, lq = labels[p], labels[q]
        if lp != lq:
            tree.append((p, q))
            labels[labels == max(lp, lq)] = min(lp, lq)
    return tree


def test_spanning_tree_matches_kruskal():
    rng = np.random.default_rng(5)
    with_nan = rng.random((9, 9))
    with_nan[rng.random((9, 9)) < 0.2] = np.nan
    tables = ([_tie_table(n, s, symmetric) for n in range(1, 16)
               for s in (0, 1) for symmetric in (True, False)]
              + [_grid_table(n, s, directed) for n in (1, 2, 7, 10, 16)
                 for s in (0, 1) for directed in (False, True)]
              + SYM_TABLES + ASYM_TABLES
              + [rng.random((n, n)) for n in (1, 2, 5, 12, 30)]
              + [with_nan, np.zeros((1, 1)), np.zeros((2, 2)),
                 np.array([[0.0, 2.0], [1.0, 0.0]])])
    for d in tables:
        tree = solvers._spanning_tree(d)
        assert tree == _kruskal_tree(d)
        assert len(tree) == d.shape[0] - 1
    assert any(np.isnan(d).any() for d in tables)


def _verifiers(d, n, k):
    off = np.sort(d[~np.eye(n, dtype=bool)])
    return [equal_size_verifier(n, k),
            target_cost_verifier(d, float(off[len(off) // 10])),
            target_cost_verifier(d, float(off[len(off) // 3])),
            lambda b: 0.0,
            lambda b: -1.0,
            lambda b: sum(b) % 3 - 1,
            lambda b: -(len(b) % 2),  # f < 0 on odd sizes
            # a merge of an f >= 0 component can give f < 0
            lambda b: -1.0 if 2 in b and len(b) < 4 else 1.0]


@pytest.mark.parametrize("asymmetric", [False, True], ids=["sym", "asym"])
def test_weak_proximity_linkage_matches_reference(asymmetric):
    # raw tables skip the symmetry check, so the tree's tie order is also
    # checked where d(p, q) != d(q, p)
    cases = [(d, (1, 2, 3)) for d in (ASYM_TABLES if asymmetric
                                     else SYM_TABLES)]
    cases += [(_tie_table(n, n, symmetric=not asymmetric),
               range(1, min(n, 5) + 1)) for n in range(3, 16)]
    calls = mismatches = 0
    revived = []
    for d, ks in cases:
        n = d.shape[0]
        for k in ks:
            for ver in _verifiers(d, n, k):
                seen = [[], []]
                recorders = [lambda b, s=s: (s.append(list(b)), ver(b))[1]
                             for s in seen]
                got = weak_proximity_linkage(d, k, recorders[0])
                want = _reference_linkage(d, k, recorders[1], revived)
                calls += 1
                mismatches += (_outcome_key(got) != _outcome_key(want)
                               or seen[0] != seen[1])
    assert calls == (12 * 3 + 3 + 4 + 11 * 5) * 8 and mismatches == 0
    # an edge passed over as ineligible was merged later in its round
    assert revived


@pytest.mark.parametrize("n", [60, 80])
def test_weak_proximity_linkage_matches_reference_at_benchmark_scale(n):
    d = gen_planted_symmetric(n, 5, 1.0, 2.0, 0).instance.dist
    ver = equal_size_verifier(n, 5)
    seen = [[], []]
    recorders = [lambda b, s=s: (s.append(list(b)), ver(b))[1] for s in seen]
    got = weak_proximity_linkage(d, 5, recorders[0])
    want = _reference_linkage(d, 5, recorders[1])
    assert got.status == "exact-claim"
    assert _outcome_key(got) == _outcome_key(want)
    assert seen[0] == seen[1]


@pytest.mark.parametrize("asymmetric", [False, True], ids=["sym", "asym"])
def test_asymmetric_2pr_matches_reference(asymmetric):
    calls = mismatches = 0
    for d in ASYM_TABLES if asymmetric else SYM_TABLES:
        n = d.shape[0]
        for r in sorted(set([0.0] + d[~np.eye(n, dtype=bool)].tolist())):
            a, nearest = _reference_symmetrized_set(d, r)
            got = symmetrized_set(d, r)
            if a:
                want = np.arange(n)
                want[list(nearest)] = list(nearest.values())
                mismatches += got is None or not np.array_equal(got, want)
            else:
                mismatches += got is not None
            for k in (1, 2, 3):
                calls += 1
                mismatches += (_outcome_key(asymmetric_2pr(d, k, r))
                               != _outcome_key(_reference_2pr(d, k, r)))
    assert calls > 1000 and mismatches == 0


def _reference_leaks(sub, inball):
    """The leak vector by two gathers per ball: the rows outside it, then
    its columns."""
    return np.array([(sub[~row][:, row] < sub[i, row]).any()
                     for i, row in enumerate(inball)], dtype=bool)


@pytest.mark.parametrize("asymmetric", [False, True], ids=["sym", "asym"])
def test_leaking_balls_match_reference_at_n_300(asymmetric):
    planted = (gen_planted_asymmetric(300, 8, 1.0, 2.0, 1.2, 1) if asymmetric
               else gen_planted_symmetric(300, 8, 1.0, 2.0, 1))
    d, leaked, kept = planted.instance.dist, 0, 0
    for r in (planted.truth.radius, 0.97 * planted.truth.radius):
        nearest = symmetrized_set(d, r)
        a = np.flatnonzero(nearest == np.arange(d.shape[0]))
        sub = d[np.ix_(a, a)]
        got = solvers._leaking_balls(sub, sub <= r)
        assert np.array_equal(got, _reference_leaks(sub, sub <= r))
        leaked, kept = leaked + got.sum(), kept + (~got).sum()
    assert leaked > 0 and kept > 0


class _CoverTooLarge(Exception):
    pass


def _reference_cover(d, r, k):
    """Greedy 2r cover that raises once it needs more than k centers."""
    unmarked = list(range(d.shape[0]))
    centers = []
    while unmarked:
        c = unmarked[0]
        centers.append(c)
        unmarked = [q for q in unmarked if not d[c, q] <= 2 * r]
        if len(centers) > k:
            raise _CoverTooLarge
    return tuple(centers)


def _reference_hops(d, a, r):
    """Hop distances between the points a of A (one hop = one r* edge)."""
    sub = d[np.ix_(a, a)]
    hops = np.where((sub <= r) & (sub.T <= r), 1.0, np.inf)  # r* edges
    np.fill_diagonal(hops, 0.0)
    for m in range(len(a)):  # Floyd-Warshall
        hops = np.minimum(hops, hops[:, [m]] + hops[[m], :])
    return hops


def _reference_3eps(d, k, r):
    """Cover-and-patch, trying the hop cover for each k' = k-6 ... k."""
    n = d.shape[0]
    a, _ = _reference_symmetrized_set(d, r)
    if not a:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set"})
    hops = _reference_hops(d, a, r)
    for k_prime in range(max(1, k - 6), k + 1):
        try:
            cover_local = _reference_cover(hops, 1.0, k_prime)
        except _CoverTooLarge:
            continue
        break
    else:
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": "no hop cover for any k' <= k"})
    c_set = tuple(a[i] for i in cover_local)
    patches = ((x, list(kept) + list(extra))
               for x in range(0, min(6, k) + 1)
               for kept in itertools.combinations(c_set, k - x)
               for extra in itertools.combinations(
                   [p for p in range(n) if p not in kept], x))
    chosen = x_used = None
    reason = "no 3r* cover with x <= 6"
    work = 0
    for x, cand in patches:
        if work == solvers.PATCH_BUDGET:
            reason = f"patch enumeration exceeded budget {solvers.PATCH_BUDGET}"
            break
        work += 1
        if d[cand].min(axis=0).max() <= 3 * r:
            chosen, x_used = tuple(sorted(cand)), x
            break
    diagnostics = {"k_prime": k_prime, "hop_cover": c_set, "x": x_used,
                   "patch_work": work}
    if chosen is None:
        return SolveOutcome(status="not-resilient",
                            diagnostics={**diagnostics, "reason": reason})
    return SolveOutcome(status="eps-close-claim",
                        clustering=voronoi_partition(d, chosen),
                        diagnostics=diagnostics)


@pytest.mark.parametrize("asymmetric", [False, True], ids=["sym", "asym"])
def test_asymmetric_3eps_matches_k_prime_loop(monkeypatch, asymmetric):
    monkeypatch.setattr(solvers, "PATCH_BUDGET", 100)  # bounds large k
    covers = []
    original = solvers._greedy_cover

    def counted(*args, **kwargs):
        covers.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "_greedy_cover", counted)
    cases = mismatches = searched = k_minus_6 = 0
    for d in ASYM_TABLES if asymmetric else SYM_TABLES:
        n = d.shape[0]
        for r in sorted(set([0.0] + d[~np.eye(n, dtype=bool)].tolist())):
            for k in range(1, min(n, 10) + 1):
                got = asymmetric_3eps(d, k, r)
                want = _reference_3eps(d, k, r)
                cases += 1
                mismatches += _outcome_key(got) != _outcome_key(want)
                searched += got.diagnostics.get("reason") != \
                    "empty symmetrized set"
                k_minus_6 += (got.diagnostics.get("k_prime") == k - 6
                              > len(got.diagnostics.get("hop_cover", ())))
    assert cases > 1000 and mismatches == 0
    assert len(covers) == searched  # one cover call per call past A
    assert k_minus_6 > 0  # the k - 6 bound, not the cover size, set k'


@pytest.mark.parametrize("asymmetric", [False, True], ids=["sym", "asym"])
def test_batched_hop_cover_matches_reference_cover(asymmetric):
    # every candidate radius, empty A included: the batched greedy cover
    # (64 radii at a time) equals the reference's 2-hop cover of A, and the
    # sweep's screen, in its own blocks, passes exactly the radii where A is
    # nonempty and that cover has at most k centers
    tables = list(ASYM_TABLES if asymmetric else SYM_TABLES)
    if asymmetric:
        tables += [gen_planted_asymmetric(n, 4, 1.0, 2.0, 1.2, n).instance.dist
                   for n in (20, 32, 44)]
    checked = empty = screened = 0
    for d in tables:
        n = d.shape[0]
        radii = sorted(set([0.0] + d[~np.eye(n, dtype=bool)].tolist()))
        covers = []
        for s in range(0, len(radii), 64):
            in_a, within = solvers._symmetrized_masks(d, radii[s:s + 64])
            covers += solvers._hop_covers(in_a, within, n)
            for r, row in zip(radii[s:s + 64], in_a):
                assert np.flatnonzero(row).tolist() == \
                    _reference_symmetrized_set(d, r)[0]
        screens = {k: solvers._hop_cover_screen(d, k, radii)
                   for k in range(1, 5)}
        for i, (r, cover) in enumerate(zip(radii, covers)):
            a, _ = _reference_symmetrized_set(d, r)
            want = tuple(a[c] for c in _reference_cover(_reference_hops(d, a, r),
                                                        1.0, len(a)))
            assert cover == want, (n, r)
            for k, fits in screens.items():
                assert fits(i) == (bool(a) and len(want) <= k), (n, r, k)
                screened += not fits(i)
            checked += 1
            empty += not a
    assert checked > (2000 if asymmetric else 300) and screened > checked
    assert (empty > 0) == asymmetric  # on a symmetric table A is every point


@pytest.mark.parametrize("n", [32, 44])
def test_asymmetric_sweeps_on_planted_tables_take_two_calls(n):
    # alg1-2pr: the first candidate, then OPT, found by the search before
    # the second call; alg2-3eps-asym: the first candidate, then the first
    # one that passes the hop-cover screen
    for seed in range(5):
        planted = gen_planted_asymmetric(n, 4, 1.0, 2.0, 1.2, seed)
        opt = optimal_radius(planted.instance.dist, 4, 10**5)
        for solver_id in ("alg1-2pr", "alg2-3eps-asym"):
            solve, tried = SOLVERS[solver_id].solve, []
            out, chosen = sweep_radius(planted.instance, 4, lambda i, k, r: (
                tried.append(r) or solve(i, k, r, None)))
            assert out.ok and chosen == tried[-1]
            assert len(tried) == 2, (seed, solver_id, tried)
            if solver_id == "alg1-2pr":
                assert tried == [0.0, opt], seed


def test_hop_covers_of_empty_symmetrized_sets_are_empty():
    # no row of the block picks a center: each row's cover is still there,
    # empty, and the screen fails a block of such radii
    for b, n in ((1, 3), (4, 5)):
        assert solvers._hop_covers(np.zeros((b, n), dtype=bool),
                                   np.ones((b, n, n), dtype=bool), 2) == [()] * b
    blocks = 0
    for d in ASYM_TABLES:
        empty = [r for r in np.unique(d).tolist()
                 if r > 0 and not _reference_symmetrized_set(d, r)[0]]
        if empty:
            fits = solvers._hop_cover_screen(d, 1, [0.0] + empty)
            assert not any(fits(i) for i in range(1, len(empty) + 1))
            blocks += 1
    assert blocks > 0


@pytest.mark.parametrize("solver_id", ["alg1-2pr", "alg2-3eps-asym"])
def test_sweep_of_a_nan_table_raises_as_its_solver_does(solver_id):
    # both solvers fail at every other candidate of these tables, so a call
    # at every candidate reaches the NaN one, last, and refuses r* = NaN:
    # neither the search nor the screen may skip it
    solve = SOLVERS[solver_id].solve
    for seed in range(3):
        d = gen_random_metric(7, "asymmetric", seed).dist.copy()
        d[1, 2] = np.nan
        with pytest.raises(ValueError, match="r_star must be >= 0, got nan"):
            sweep_radius(d, 3, lambda i, k, r: solve(i, k, r, None))


@pytest.mark.parametrize("n,k", [(32, 4), (44, 4), (60, 5), (120, 5), (300, 8)])
def test_exact_claim_radii_equal_optimal_radius(n, k):
    for seed in range(3):
        asym = gen_planted_asymmetric(n, k, 1.0, 2.0, 1.2, seed).instance
        sym = gen_planted_symmetric(n, k, 1.0, 2.0, seed).instance
        for inst, solver_id in ((asym, "alg1-2pr"), (sym, "alg1-2pr"),
                                (sym, "thm5-3eps")):
            solve = SOLVERS[solver_id].solve
            out, chosen = sweep_radius(inst, k, lambda i, kk, r:
                                       solve(i, kk, r, None))
            assert out.status == "exact-claim"
            assert chosen == optimal_radius(inst.dist, k, 10**5), \
                (seed, solver_id)


def test_weak_proximity_linkage_rescans_after_each_merge():
    # f < 0 on odd sizes: a merge can make a pair skipped earlier in the
    # round eligible again.  One pass per round over the sorted pairs gets
    # stuck here; one pass over the tree edges commits (6, 7) third.
    w = np.array([[0, 15, 22, 2, 4, 6, 10, 7],
                  [15, 0, 28, 8, 11, 21, 16, 13],
                  [22, 28, 0, 24, 25, 9, 1, 19],
                  [2, 8, 24, 0, 27, 3, 14, 17],
                  [4, 11, 25, 27, 0, 20, 23, 12],
                  [6, 21, 9, 3, 20, 0, 18, 26],
                  [10, 16, 1, 14, 23, 18, 0, 5],
                  [7, 13, 19, 17, 12, 26, 5, 0]])
    # distances 101..128: any table with entries in [a, 2a] is a metric
    inst = validate_instance(np.where(w > 0, 100.0 + w, 0.0), "symmetric")
    out = weak_proximity_linkage(inst, 2, lambda b: -(len(b) % 2))
    assert out.status == "exact-claim"
    assert out.diagnostics["committed_edges"] == \
        ((1, 3), (0, 7), (0, 4), (3, 5), (0, 3), (2, 6))


def _linear_sweep(instance, k, solver):
    """The sweep that calls the solver at every candidate in turn."""
    d = solvers._as_table(instance)
    log = []
    for r in sorted(set([0.0] + d[~np.eye(d.shape[0], dtype=bool)].tolist())):
        outcome = solver(instance, k, r)
        if not outcome.ok:
            log.append((r, outcome.status))
            continue
        factor = outcome.diagnostics.get("consistency_factor", 1.0)
        if all(solvers._one_center(d, g)[1] <= r * factor
               for g in outcome.clustering.clusters() if g):
            return outcome, r
        log.append((r, "inconsistent"))
    return SolveOutcome(status="not-resilient", diagnostics={
        "reason": "no candidate radius works", "sweep_log": tuple(log)}), None


def test_monotone_sweep_without_a_factor_matches_linear_sweep():
    # outcomes that declare no consistency factor: no candidate is skipped,
    # and both paths check self-consistency with factor 1
    def solve(instance, k, r):
        out = SOLVERS["thm5-3eps"].solve(instance, k, r)
        diagnostics = {key: value for key, value in out.diagnostics.items()
                       if key != "consistency_factor"}
        return SolveOutcome(out.status, out.clustering, diagnostics)

    cases = found = 0
    for d in SYM_TABLES:
        for k in range(1, d.shape[0] + 1):
            asked = []
            got, r_got = sweep_radius(d, k, lambda i, kk, r: (
                asked.append(r) or solve(i, kk, r)))
            assert len(asked) == len(set(asked)), (d.shape[0], k)
            want, r_want = _linear_sweep(d, k, solve)
            assert repr(r_got) == repr(r_want), (d.shape[0], k)
            assert _outcome_key(got) == _outcome_key(want), (d.shape[0], k)
            cases += 1
            found += r_want is not None
    assert cases == 106 and 0 < found < cases


MONOTONE_SWEEPS = [("thm5-3eps", None)] + [
    ("alg4-2eps-as", eps) for eps in (0.0, 0.05, 0.2, 1.0)]


def test_bisection_sweep_matches_linear_sweep():
    # every k on one table of each kind and size (n <= 12), and planted
    # n=60 tables at k=5 where the linear sweep stops early (at eps 0.2 and
    # 1 it fails after 1,765 calls, over a second each)
    cases = [(d, k, MONOTONE_SWEEPS) for d in SYM_TABLES[::2]
             for k in range(1, d.shape[0] + 1)]
    cases += [(gen_planted_symmetric(60, 5, 1.0, 2.0, s).instance, 5,
               MONOTONE_SWEEPS[:3]) for s in (0, 1, 2)]
    calls = mismatches = inconsistent = 0
    for inst, k, sweeps in cases:
        for solver_id, eps in sweeps:
            solve, asked = SOLVERS[solver_id].solve, []
            got, r_got = sweep_radius(inst, k, lambda i, kk, r: (
                asked.append(r) or solve(i, kk, r, eps)))
            assert len(asked) == len(set(asked)), (k, solver_id, eps)
            want, r_want = _linear_sweep(inst, k,
                                         lambda i, kk, r: solve(i, kk, r, eps))
            calls += 1
            mismatches += (repr(r_got) != repr(r_want)
                           or _outcome_key(got) != _outcome_key(want))
            inconsistent += "'inconsistent'" in repr(want.diagnostics)
    assert calls == 53 * 5 + 3 * 3 and mismatches == 0
    assert inconsistent > 0


def _scripted_monotone(d, k, factor, lo, hi, calls):
    """A monotone solver on d's candidates: count k + 1 below index lo, k
    on [lo, hi) and k - 1 from hi, ok iff k; the count-k partition is the
    Voronoi cells of the optimal centers, of cost OPT."""
    candidates = (np.unique(d) + 0.0).tolist()
    centers = brute_force_optimal(d, k).optimal_center_sets[0]
    partition = voronoi_partition(d, centers)

    def solve(instance, kk, r):
        i = candidates.index(r)
        calls.append(i)
        count = k + 1 if i < lo else k if i < hi else k - 1
        diagnostics = {"component_count": count, "consistency_factor": factor,
                       "monotone": True}
        if count != k:
            return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
        return SolveOutcome(status="exact-claim", clustering=partition,
                            diagnostics=diagnostics)
    return solve


@pytest.mark.parametrize("factor", [1.0, 2.0])
@pytest.mark.parametrize("case", [
    "k-at-start", "k-at-start-then-fails", "above-k-gallops",
    "above-k-everywhere", "below-k", "start-at-0"])
def test_monotone_sweep_branches_match_linear_sweep(case, factor):
    # s: the start (first candidate whose factor * r reaches the pair-cover
    # bound); j: the first whose factor * r covers the partition's cost
    d = gen_random_metric(10, "symmetric", 2).dist
    k = 10 if case == "start-at-0" else 3
    candidates = (np.unique(d) + 0.0).tolist()
    m = len(candidates)
    s = bisect.bisect_left(candidates, solvers._opt_lower_bound(d, k),
                           key=lambda r: r * factor)
    j = bisect.bisect_left(candidates, brute_force_optimal(d, k).optimal_radius,
                           key=lambda r: r * factor)
    assert (s, j) == ((0, 0) if case == "start-at-0" else
                      (12, 14) if factor == 1.0 else (4, 7))
    lo, hi = {"k-at-start": (s - 1, m), "k-at-start-then-fails": (s - 1, j),
              "above-k-gallops": (s + 6, m), "above-k-everywhere": (m, m),
              "below-k": (s - 2, s), "start-at-0": (0, m)}[case]
    calls, linear_calls = [], []
    got, r_got = sweep_radius(d, k, _scripted_monotone(d, k, factor, lo, hi,
                                                       calls))
    want, r_want = _linear_sweep(d, k, _scripted_monotone(d, k, factor, lo, hi,
                                                          linear_calls))
    assert repr(r_got) == repr(r_want)
    assert _outcome_key(got) == _outcome_key(want)
    assert len(calls) == len(set(calls))
    assert calls[0] == 0 and (s == 0 or calls[1] == s)  # then the start
    succeeded = case in ("k-at-start", "above-k-gallops", "start-at-0")
    assert (r_got is not None) == succeeded
    if case in ("k-at-start", "start-at-0"):
        assert r_got == candidates[j] and len(calls) <= 3


@pytest.mark.parametrize("n", [60, 80])
def test_threshold_sweep_on_planted_tables_takes_three_calls(n):
    # the count is k at the pair-cover start, so the first candidate, the
    # start and the first r covering the partition's cost are all it needs
    solve = SOLVERS["thm5-3eps"].solve
    for seed in range(5):
        planted = gen_planted_symmetric(n, 5, 1.0, 2.0, seed)
        tried = []
        out, chosen = sweep_radius(planted.instance, 5, lambda i, k, r: (
            tried.append(r) or solve(i, k, r, None)))
        assert out.clustering.canonical_partition() == \
            planted.truth.canonical_partition()
        assert chosen == tried[-1] and len(tried) <= 3, (seed, tried)


# the non-monotone r*-parameterized solvers and their consistency factors
BOUNDED_SWEEPS = {"alg1-2pr": 1.0, "alg2-3eps-asym": 3.0, "hs": 2.0}


def _random_table(n, seed):
    """A raw table with zero diagonal and entries in [0, 1): no symmetry,
    no triangle inequality."""
    d = np.random.default_rng(seed).random((n, n))
    np.fill_diagonal(d, 0.0)
    return d


def test_opt_lower_bound_never_exceeds_optimum():
    tables = [gen_random_metric(n, mode, s).dist for n in (3, 6, 8, 10)
              for mode in ("symmetric", "asymmetric") for s in (0, 1, 2)]
    tables += [_random_table(n, s) for n in (2, 5, 7, 10) for s in (0, 1)]
    tables += SYM_TABLES + ASYM_TABLES
    cases = positive = 0
    for d in tables:
        n = d.shape[0]
        for k in range(1, n + 1):
            bound = solvers._opt_lower_bound(d, k)
            assert bound <= brute_force_optimal(d, k).optimal_radius
            assert (bound == 0.0) if k == n else bound >= 0.0
            cases += 1
            positive += bound > 0
    assert cases > 400 and positive > cases // 2


def test_optimal_radius_matches_brute_force():
    tables = [gen_random_metric(n, mode, s).dist for n in (3, 6, 8, 10, 12)
              for mode in ("symmetric", "asymmetric") for s in (0, 1, 2)]
    tables += [_random_table(n, s) for n in (2, 5, 7, 10) for s in (0, 1)]
    tables += SYM_TABLES + ASYM_TABLES + [_negative_zero_table()]
    cases = 0
    for d in tables:
        for k in range(1, d.shape[0] + 1):
            got = optimal_radius(d, k, 10**6)
            assert got == brute_force_optimal(d, k).optimal_radius, (d, k)
            assert repr(got) != "-0.0"
            cases += 1
    assert cases == 500


def test_optimal_radius_budget_and_refusals():
    d = SYM_TABLES[0]
    assert optimal_radius(d, 3, 100) == brute_force_optimal(d, 3).optimal_radius
    with pytest.raises(BudgetExceeded, match="search passed 1 nodes"):
        optimal_radius(d, 3, 1)
    # brute_force_optimal's errors, word for word
    for table, k in ((d, 0), (d, d.shape[0] + 1), (d[:, :4], 2),
                     (np.zeros(4), 1)):
        with pytest.raises(ValueError) as want:
            brute_force_optimal(table, k)
        with pytest.raises(ValueError) as got:
            optimal_radius(table, k, 100)
        assert str(got.value) == str(want.value)
    nan = d.copy()
    nan[0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        optimal_radius(nan, 3, 100)


def test_solver_outcomes_share_one_consistency_factor():
    # the sweep reads the factor off the first outcome and applies it to
    # the rest: each swept record declares one, and solve writes it on all
    swept = {sid: record.promise for sid, record in SOLVERS.items()
             if record.needs_r}
    assert all("consistency_factor" in promise for promise in swept.values())
    assert BOUNDED_SWEEPS == {sid: promise["consistency_factor"]
                              for sid, promise in swept.items()
                              if not promise.get("monotone")}


PROMISE_KEYS = {"consistency_factor", "monotone", "needs_hop_cover"}


def test_layer_outcomes_hold_no_promise_keys():
    # a layer's outcome holds per-call facts only, on every family, k and
    # candidate r; the record's solve adds its promise and nothing else
    instances = [gen_random_metric(7, mode, seed)
                 for mode in ("symmetric", "asymmetric") for seed in (0, 1)]
    instances += [gen_planted_symmetric(9, 3, 1.0, 2.0, 2).instance,
                  gen_planted_asymmetric(9, 3, 1.0, 2.0, 1.2, 2).instance]
    for solver_id, record in sorted(SOLVERS.items()):
        statuses = set()
        for inst in instances:
            d = inst.dist
            radii = (sorted(set([0.0] + d[~np.eye(inst.n, dtype=bool)]
                                .tolist())) if record.needs_r else [None])
            for r in radii:
                for k in (1, 2, 3):
                    args = (r,) * record.needs_r + (0.1,) * record.needs_epsilon
                    try:
                        out = record.layer(inst, k, *args)
                    except AsymmetricInput:
                        continue
                    assert not PROMISE_KEYS & set(out.diagnostics), solver_id
                    got = record.solve(inst, k, r, 0.1)
                    assert _outcome_key(got) == _outcome_key(SolveOutcome(
                        out.status, out.clustering,
                        {**out.diagnostics, **record.promise}))
                    statuses.add(out.ok)
        assert statuses >= ({True, False} if record.needs_r else {True})


def test_record_arguments_match_layer_signature():
    # solve passes r* and epsilon only to a layer whose signature asks
    for solver_id, record in SOLVERS.items():
        required = [p.name for p in inspect.signature(
            record.layer).parameters.values() if p.default is p.empty]
        assert required == (["instance", "k"] + ["r_star"] * record.needs_r
                            + ["epsilon"] * record.needs_epsilon), solver_id


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_record_refuses_a_bad_k_before_its_layer(monkeypatch, solver_id):
    # at k = 0, ff2, thm3 and alg3-linkage raised while the other five
    # returned not-resilient, and hs answered approximation-only at n + 1
    record = SOLVERS[solver_id]
    monkeypatch.setattr(solvers, record.layer.__name__, None)  # never reached
    for mode in ("symmetric", "asymmetric"):
        inst = gen_random_metric(6, mode, 0)
        for k in (0, 7):
            with pytest.raises(ValueError,
                               match=f"need 1 <= k <= n, got k={k}, n=6"):
                record.solve(inst, k, 1.0, 0.1)
        with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
            record.solve(inst, 2.5, 1.0, 0.1)


@pytest.mark.parametrize("solver_id", sorted(
    sid for sid, record in SOLVERS.items() if record.needs_r))
def test_record_that_needs_r_refuses_a_missing_r_star(solver_id):
    # was TypeError: '>=' not supported between 'NoneType' and 'int';
    # sweep_radius is the one that finds an unknown r*
    record = SOLVERS[solver_id]
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 2)
    with pytest.raises(ValueError, match="must be a real number, got None"):
        record.solve(planted.instance, 3, None, 0.1)
    out, r = sweep_radius(planted.instance, 3,
                          lambda inst, k, r: record.solve(inst, k, r, 0.1))
    assert out.ok and r is not None


def test_approx_stability_2eps_matches_integer_counts():
    # the float64 product counts ball intersections exactly (counts <= n)
    checked = 0
    for d in SYM_TABLES:
        n = d.shape[0]
        off = np.unique(d[~np.eye(n, dtype=bool)])
        for r in off[::max(1, len(off) // 6)].tolist():
            within = (d <= 2 * r).astype(np.int64)
            for eps in (0.0, 0.1, 0.3):
                comps = components(within @ within.T > eps * n)
                out = approx_stability_2eps(d, len(comps), r, eps)
                assert out.status == "exact-claim"
                assert sorted(map(sorted, out.clustering.clusters())) == \
                    sorted(map(sorted, comps))
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "solver_id,search_budget",
    [(sid, None) for sid in sorted(BOUNDED_SWEEPS)] + [("alg1-2pr", 1)],
    ids=sorted(BOUNDED_SWEEPS) + ["alg1-2pr-search-budget-1"])
def test_bounded_sweep_matches_linear_sweep(monkeypatch, solver_id,
                                            search_budget):
    # every k on the small tables (the patch budget bounds alg2-3eps-asym
    # at large k), planted n=20-44, and a non-metric table accepted under
    # slack; a failed sweep logs below-bound where it skipped the solver.
    # alg1-2pr (factor 1) starts at the first candidate >= OPT once the
    # call at the pair-cover start fails; at search budget 1 it keeps the
    # pair-cover start
    monkeypatch.setattr(solvers, "PATCH_BUDGET", 100)
    if search_budget is not None:
        monkeypatch.setattr(solvers, "SEARCH_BUDGET", search_budget)
    factor = BOUNDED_SWEEPS[solver_id]
    rng = np.random.default_rng(5)
    loose = rng.uniform(1.0, 2.5, size=(12, 12))
    np.fill_diagonal(loose, 0.0)
    cases = [(validate_instance(d, "symmetric"), k)
             for d in SYM_TABLES for k in range(1, d.shape[0] + 1)]
    cases += [(validate_instance(d, "asymmetric"), k)
              for d in ASYM_TABLES for k in range(1, d.shape[0] + 1)]
    cases += [(gen_planted_asymmetric(n, 4, 1.0, 2.0, 1.2, n).instance, 4)
              for n in (20, 32, 44)]
    cases += [(gen_planted_symmetric(n, 4, 1.0, 2.0, n).instance, 4)
              for n in (20, 32)]
    cases += [(validate_instance(loose, "asymmetric", slack=0.5), k)
              for k in (2, 3, 4)]
    solve = SOLVERS[solver_id].solve
    found = skipped = skipped_failures = certified = fell_back = 0
    for inst, k in cases:
        asked = []
        got, r_got = sweep_radius(inst, k, lambda i, kk, r: (
            asked.append(r) or solve(i, kk, r, None)))
        assert len(asked) == len(set(asked)), (inst.n, k)
        want, r_want = _linear_sweep(inst, k,
                                     lambda i, kk, r: solve(i, kk, r, None))
        candidates = (np.unique(inst.dist) + 0.0).tolist()
        start = max(1, bisect.bisect_left(
            candidates, solvers._opt_lower_bound(inst.dist, k),
            key=lambda r: r * factor))
        if factor == 1.0 and r_want != candidates[start]:  # the call failed
            if search_budget is None:
                opt = brute_force_optimal(inst.dist, k).optimal_radius
                certified += bisect.bisect_left(candidates, opt) > start
                start = max(start, bisect.bisect_left(candidates, opt))
            else:
                with pytest.raises(BudgetExceeded):
                    optimal_radius(inst.dist, k, search_budget)
                fell_back += 1
        skipped += start > 1
        assert repr(r_got) == repr(r_want), (inst.n, k)
        if r_want is not None:
            assert _outcome_key(got) == _outcome_key(want)
            found += 1
            continue
        log, want_log = got.diagnostics["sweep_log"], want.diagnostics["sweep_log"]
        assert got.diagnostics["reason"] == want.diagnostics["reason"]
        assert log[0] == want_log[0] and log[start:] == want_log[start:]
        assert log[1:start] == tuple((r, "below-bound")
                                     for r in candidates[1:start])
        assert repr(log) == repr(want_log[:1] + log[1:start] + want_log[start:])
        skipped_failures += start > 1
    assert found > 0 and skipped > 0
    # hs and alg2-3eps-asym succeed at a large enough r on every table
    assert skipped_failures > 0 or solver_id != "alg1-2pr"
    # the search moved the start past the pair-cover bound, or fell back
    searched = solver_id == "alg1-2pr" and search_budget is None
    assert (certified > 0) == searched
    assert (fell_back > 0) == (search_budget is not None)


def _reference_farthest_first(d, k):
    """Farthest-first with its own loop, as before the shared traversal."""
    centers = [0]
    mind = d[0].copy()
    mind[0] = -1.0  # below every distance: a center is never picked again
    while len(centers) < k:
        nxt = int(mind.argmax())
        centers.append(nxt)
        mind[nxt] = -1.0
        mind = np.minimum(mind, d[nxt])
    return tuple(centers)


def _reference_opt_lower_bound(d, k):
    """The pair-cover bound with its own farthest-first loop."""
    n = d.shape[0]
    if k >= n:
        return 0.0
    gap = np.full(n, np.inf)  # c2 to the nearest pick so far
    pick, bound = 0, np.inf
    for _ in range(k):
        gap = np.minimum(gap, np.maximum(d[:, [pick]], d).min(axis=0))
        gap[pick] = -np.inf  # a pick is never picked again
        pick = int(gap.argmax())
        bound = min(bound, gap[pick])
    return float(bound)


def _reference_hochbaum_shmoys(d, r, k):
    """The 2r greedy cover with its own loop, as before the shared cover."""
    unmarked = np.ones(d.shape[0], dtype=bool)
    centers = []
    while unmarked.any() and len(centers) <= k:
        c = int(unmarked.argmax())  # smallest unmarked index
        centers.append(c)
        unmarked &= ~(d[c] <= 2 * r)
    return tuple(centers)


def _negative_zero_table():
    """Points 0, 1 and 2 coincide at distance -0.0."""
    d = gen_random_metric(6, "symmetric", 7).dist.copy()
    d[:3] = d[0]
    d[:, :3] = d[:, [0]]
    d[:3, :3] = -0.0
    np.fill_diagonal(d, 0.0)
    return d


def test_shared_greedy_loops_match_their_own_loops():
    # raw tables: no symmetry check, so farthest-first also runs on
    # asymmetric ones; HS at every candidate r, at k = 0 and the largest k
    tables = SYM_TABLES + ASYM_TABLES + [_negative_zero_table()]
    tables += [_random_table(n, s) for n in (2, 5, 7, 10) for s in (0, 1)]
    tables += [gen_planted_symmetric(n, k, 1.0, 2.0, 1).instance.dist
               for n, k in ((60, 5), (300, 8))]
    bounds = covers = 0
    for d in tables:
        n = d.shape[0]
        for k in range(0, min(n, 10) + 1):
            got = solvers._opt_lower_bound(d, k)
            assert repr(got) == repr(_reference_opt_lower_bound(d, k)), (n, k)
            bounds += 1
            if k:
                assert farthest_first(d, k) == _reference_farthest_first(d, k)
        for r in np.unique(np.append(d, 0.0)).tolist():
            for k in (0, min(n, 10)):
                assert hochbaum_shmoys_cover(d, r, k) == \
                    _reference_hochbaum_shmoys(d, r, k), (n, r, k)
                covers += 1
    assert bounds > 300 and covers > 40_000


def test_patch_budget_boundary(monkeypatch):
    # A = {0, 2} and one hop cover center suffice for k = 1, but 1 and 3
    # fail A and every single center leaves a point 10 > 3r* away: the 5
    # patches ([0], then each point alone) all fail
    d = np.array([[0, 10, 1, 1], [10, 0, 10, 10], [1, 1, 0, 10],
                  [10, 10, 10, 0]], dtype=float)
    monkeypatch.setattr(solvers, "PATCH_BUDGET", 5)
    out = asymmetric_3eps(d, 1, 1.0)
    assert out.diagnostics["hop_cover"] == (0,)
    assert out.diagnostics["reason"] == "no 3r* cover with x <= 6"
    assert out.diagnostics["patch_work"] == 5
    monkeypatch.setattr(solvers, "PATCH_BUDGET", 4)
    out = asymmetric_3eps(d, 1, 1.0)
    assert out.diagnostics["reason"] == \
        "patch enumeration exceeded budget 4"
    assert out.diagnostics["patch_work"] == 4
