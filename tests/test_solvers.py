"""Recovery algorithms against the oracle and the planted generators."""

import bisect
import itertools
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    AsymmetricInput,
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
        tried.append(r) or symmetric_3eps(i, k, r)))
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

def _reference_linkage(d, k, verifier):
    """Guarded linkage by definition: rescan every pair for each merge."""
    n = d.shape[0]
    labels = np.arange(n)
    committed = []

    def stuck(reason):
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": reason, "committed_edges": tuple(committed)})

    while len(set(labels.tolist())) > k:
        scratch = labels.copy()
        comps = {g[0]: g for g in label_groups(scratch)}
        fval = {root: verifier(m) for root, m in comps.items()}
        last_edge = None
        while any(v < 0 for v in fval.values()):
            if len(comps) == 1:
                return stuck("a single component still has f < 0")
            neg = np.array([fval[scratch[p]] < 0 for p in range(n)])
            diff = scratch[:, None] != scratch[None, :]
            eligible = diff & (neg[:, None] | neg[None, :])
            flat = int(np.where(eligible, d, np.inf).argmin())  # row-major
            p, q = divmod(flat, n)
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
                        diagnostics={"committed_edges": tuple(committed),
                                     "consistency_factor": np.inf})


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
                            diagnostics={"reason": "empty symmetrized set",
                                         "consistency_factor": 1.0})
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
        "consistency_factor": 1.0,
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


def _verifiers(d, n, k):
    off = np.sort(d[~np.eye(n, dtype=bool)])
    return [equal_size_verifier(n, k),
            target_cost_verifier(d, float(off[len(off) // 10])),
            target_cost_verifier(d, float(off[len(off) // 3])),
            lambda b: 0.0,
            lambda b: -1.0,
            lambda b: sum(b) % 3 - 1,
            lambda b: -(len(b) % 2)]  # f < 0 on odd sizes


@pytest.mark.parametrize("asymmetric", [False, True], ids=["sym", "asym"])
def test_weak_proximity_linkage_matches_reference(asymmetric):
    # raw tables skip the symmetry check, so the tree's tie order is also
    # checked where d(p, q) != d(q, p)
    calls = mismatches = 0
    for d in ASYM_TABLES if asymmetric else SYM_TABLES:
        n = d.shape[0]
        for k in (1, 2, 3):
            for ver in _verifiers(d, n, k):
                seen = [[], []]
                recorders = [lambda b, s=s: (s.append(list(b)), ver(b))[1]
                             for s in seen]
                got = weak_proximity_linkage(d, k, recorders[0])
                want = _reference_linkage(d, k, recorders[1])
                calls += 1
                mismatches += (_outcome_key(got) != _outcome_key(want)
                               or seen[0] != seen[1])
    assert calls == 12 * 3 * 7 and mismatches == 0


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


def _reference_3eps(d, k, r):
    """Cover-and-patch, trying the hop cover for each k' = k-6 ... k."""
    n = d.shape[0]
    a, _ = _reference_symmetrized_set(d, r)
    if not a:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set",
                                         "consistency_factor": 3.0})
    sub = d[np.ix_(a, a)]
    hops = np.where((sub <= r) & (sub.T <= r), 1.0, np.inf)  # r* edges
    np.fill_diagonal(hops, 0.0)
    for m in range(len(a)):  # Floyd-Warshall
        hops = np.minimum(hops, hops[:, [m]] + hops[[m], :])
    for k_prime in range(max(1, k - 6), k + 1):
        try:
            cover_local = _reference_cover(hops, 1.0, k_prime)
        except _CoverTooLarge:
            continue
        break
    else:
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": "no hop cover for any k' <= k", "consistency_factor": 3.0})
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
                   "patch_work": work, "consistency_factor": 3.0}
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
            solve = SOLVERS[solver_id].solve
            got, r_got = sweep_radius(inst, k,
                                      lambda i, kk, r: solve(i, kk, r, eps))
            want, r_want = _linear_sweep(inst, k,
                                         lambda i, kk, r: solve(i, kk, r, eps))
            calls += 1
            mismatches += (repr(r_got) != repr(r_want)
                           or _outcome_key(got) != _outcome_key(want))
            inconsistent += "'inconsistent'" in repr(want.diagnostics)
    assert calls == 53 * 5 + 3 * 3 and mismatches == 0
    assert inconsistent > 0


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


def test_solver_outcomes_share_one_consistency_factor():
    # every outcome at every candidate radius: the bounded sweep reads the
    # factor off the first outcome and applies it to the rest
    instances = [gen_random_metric(7, mode, seed)
                 for mode in ("symmetric", "asymmetric") for seed in (0, 1)]
    instances += [gen_planted_symmetric(9, 3, 1.0, 2.0, 2).instance,
                  gen_planted_asymmetric(9, 3, 1.0, 2.0, 1.2, 2).instance]
    swept = [sid for sid in sorted(SOLVERS) if SOLVERS[sid].needs_r]
    assert set(BOUNDED_SWEEPS) < set(swept)
    for solver_id in swept:
        solve, factors, statuses = SOLVERS[solver_id].solve, set(), set()
        for inst in instances:
            if not inst.is_symmetric and solver_id in ("thm5-3eps",
                                                       "alg4-2eps-as"):
                continue
            d = inst.dist
            for r in sorted(set([0.0] + d[~np.eye(inst.n, dtype=bool)]
                                .tolist())):
                for k in (1, 2, 3):
                    out = solve(inst, k, r, 0.1)
                    factors.add(out.diagnostics.get("consistency_factor"))
                    statuses.add(out.ok)
        assert len(factors) == 1 and None not in factors, (solver_id, factors)
        assert statuses == {True, False}
        if solver_id in BOUNDED_SWEEPS:
            assert factors == {BOUNDED_SWEEPS[solver_id]}


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


@pytest.mark.parametrize("solver_id", sorted(BOUNDED_SWEEPS))
def test_bounded_sweep_matches_linear_sweep(monkeypatch, solver_id):
    # every k on the small tables (the patch budget bounds alg2-3eps-asym
    # at large k), planted n=20-44, and a non-metric table accepted under
    # slack; a failed sweep logs below-bound where it skipped the solver
    monkeypatch.setattr(solvers, "PATCH_BUDGET", 100)
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
    found = skipped = skipped_failures = 0
    for inst, k in cases:
        got, r_got = sweep_radius(inst, k, lambda i, kk, r: solve(i, kk, r, None))
        want, r_want = _linear_sweep(inst, k,
                                     lambda i, kk, r: solve(i, kk, r, None))
        candidates = (np.unique(inst.dist) + 0.0).tolist()
        start = max(1, bisect.bisect_left(
            candidates, solvers._opt_lower_bound(inst.dist, k),
            key=lambda r: r * factor))
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
        skipped_failures += start > 1
    assert found > 0 and skipped > 0
    # hs and alg2-3eps-asym succeed at a large enough r on every table
    assert skipped_failures > 0 or solver_id != "alg1-2pr"


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
