"""Brute-force oracle, capped perturbations, and the resilience falsifier."""

import dataclasses
import itertools

import numpy as np
import pytest

from kcenter_resilience import (
    BudgetExceeded,
    CapTooTight,
    FalsifierResult,
    OracleResult,
    StabilityParams,
    brute_force_optimal,
    build_lemma1_perturbation,
    cost,
    epsilon_distance,
    falsify_resilience,
    farthest_first,
    sample_perturbation,
    snap_up,
    validate_instance,
    voronoi_partition,
)
from kcenter_resilience import oracle
from kcenter_resilience.generators import (
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
)


def test_oracle_k_equals_n():
    inst = gen_random_metric(5, "symmetric", 1)
    res = brute_force_optimal(inst.dist, 5)
    assert res.optimal_radius == 0.0
    assert res.optimal_center_sets == ((0, 1, 2, 3, 4),)
    assert res.partition_unique


def test_oracle_two_points_k1():
    res = brute_force_optimal(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert res.optimal_radius == 1.0
    assert res.optimal_center_sets == ((0,), (1,))
    assert res.partition_unique  # one cluster either way


def test_oracle_planted_matches_truth():
    planted = gen_planted_symmetric(12, 3, 1.0, 2.0, 7)
    res = brute_force_optimal(planted.instance.dist, 3)
    assert res.optimal_radius <= planted.truth.radius
    got = res.clustering(planted.instance.dist)
    assert got.canonical_partition() == planted.truth.canonical_partition()


def test_oracle_radius_lower_bounds_every_center_set():
    inst = gen_random_metric(9, "asymmetric", 3)
    res = brute_force_optimal(inst.dist, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pick = sorted(rng.choice(9, size=2, replace=False))
        assert res.optimal_radius <= cost(inst, pick)


def test_oracle_budget_exceeded():
    inst = gen_random_metric(30, "symmetric", 0)
    with pytest.raises(BudgetExceeded):
        brute_force_optimal(inst.dist, 10, budget=1000)


def _reference_oracle(d, k):
    """The per-subset loop the chunked scan replaced, one Voronoi partition
    per minimizer; each distinct partition names its first minimizer."""
    best = np.inf
    minimizers = []
    for subset in itertools.combinations(range(d.shape[0]), k):
        c = d[list(subset)].min(axis=0).max()
        if c < best:
            best = c
            minimizers = [subset]
        elif c == best:
            minimizers.append(subset)
    first = {}
    for i, s in enumerate(minimizers):
        first.setdefault(voronoi_partition(d, s).canonical_partition(), i)
    return OracleResult(optimal_radius=float(best),
                        optimal_center_sets=tuple(minimizers),
                        partitions=tuple(first.values()))


def _grid(n, seed, directed):
    """L1 distances on a 3 x 3 integer grid: ties everywhere, and zeros
    where two points coincide.  Directed: steps up cost 2, down 3."""
    pts = np.random.default_rng(seed).integers(0, 3, size=(n, 2))
    step = pts[None, :, :] - pts[:, None, :]
    if directed:
        step = 2 * np.clip(step, 0, None) + 3 * np.clip(-step, 0, None)
    return np.abs(step).sum(axis=2).astype(float)


def _oracle_cases():
    """(table, k): planted tables, their sampled and capped perturbations,
    tie-heavy grids and an all-zero table, at k = 1 and k = n among others."""
    planted = ([gen_planted_symmetric(n, 3, 1.0, 2.0, s) for n in (9, 12)
                for s in (0, 1)]
               + [gen_planted_asymmetric(n, 3, 1.0, 2.0, 1.2, s)
                  for n in (9, 12) for s in (0, 1)])
    cases = []
    for p in planted:
        d, n = p.instance.dist, p.instance.n
        cases += [(d, k) for k in (1, 2, 3, 4, n - 1, n)]
        pairs = [(q, t) for t in p.truth.clusters()[0] for q in range(n)
                 if q != t and d[q, t] <= 2.0 * p.truth.radius]
        perts = [sample_perturbation(p.instance, 2.0, s) for s in range(3)]
        perts.append(build_lemma1_perturbation(p.instance, p.truth.radius,
                                               2.0, pairs[:4]))
        cases += [(pert.dprime, k) for pert in perts for k in (2, 3)]
    tables = [_grid(n, s, directed) for n in (6, 8) for s in (0, 1)
              for directed in (False, True)]
    tables.append(np.zeros((6, 6)))
    # NaN scores neither win nor tie; all-NaN leaves no optimal set
    tables += [np.where(tables[0] == 1.0, np.nan, tables[0]),
               np.full((4, 4), np.nan)]
    cases += [(d, k) for d in tables for k in range(1, d.shape[0] + 1)]
    return cases


def test_oracle_matches_loop_reference(monkeypatch):
    def no_call(*args):
        raise AssertionError("brute_force_optimal called voronoi_partition")

    monkeypatch.setattr(oracle, "voronoi_partition", no_call)
    cases = _oracle_cases()
    mismatches = ties = 0
    for d, k in cases:
        want = _reference_oracle(d, k)
        # default chunks, one subset per chunk, five subsets per chunk
        for cap in (oracle.SCAN_CELLS, 1, 5 * k * d.shape[0]):
            with monkeypatch.context() as m:
                m.setattr(oracle, "SCAN_CELLS", cap)
                got = brute_force_optimal(d, k)
            mismatches += repr(got) != repr(want)
        ties += not want.partition_unique
    assert len(cases) > 150 and mismatches == 0
    assert ties > 20  # tie-heavy tables with more than one optimal partition


def test_capped_perturbation_alpha_one_is_identity():
    inst = gen_random_metric(6, "symmetric", 2)
    r = brute_force_optimal(inst.dist, 2).optimal_radius
    p, q = np.argwhere((inst.dist <= r) & (inst.dist > 0))[0]
    pert = build_lemma1_perturbation(inst, r, 1.0, [(int(p), int(q))])
    assert np.array_equal(pert.dprime, inst.dist)
    assert pert.bounds_ok()


def test_capped_perturbation_no_caps_is_uniform_scaling():
    inst = gen_random_metric(7, "symmetric", 5)
    r = brute_force_optimal(inst.dist, 2).optimal_radius
    pert = build_lemma1_perturbation(inst, r, 1.5, [])
    assert np.array_equal(pert.dprime, 1.5 * inst.dist)
    assert brute_force_optimal(pert.dprime, 2).optimal_radius == 1.5 * r


def test_capped_perturbation_rejects_overlong_pairs():
    d = np.array([[0.0, 5.0], [5.0, 0.0]])
    inst = validate_instance(d, "symmetric")
    with pytest.raises(CapTooTight):
        build_lemma1_perturbation(inst, 1.0, 2.0, [(0, 1)])  # 5 > 2*1


def test_capping_an_approximation_makes_it_optimal():
    # cap (c(p), p) for an approximation's centers: those centers become
    # optimal under dprime at cost exactly alpha * r*
    planted = gen_planted_symmetric(10, 2, 1.0, 2.0, 4)
    inst = planted.instance
    res = brute_force_optimal(inst.dist, 2)
    r = res.optimal_radius
    centers = farthest_first(inst, 2)
    cl = voronoi_partition(inst, centers)
    pairs = [(centers[cl.assignment[p]], p) for p in range(inst.n)]
    pert = build_lemma1_perturbation(inst, r, 2.0, pairs)
    res2 = brute_force_optimal(pert.dprime, 2)
    assert res2.optimal_radius == 2.0 * r
    assert tuple(sorted(centers)) in res2.optimal_center_sets


def test_sample_perturbation_deterministic_and_bounded():
    inst = gen_random_metric(12, "asymmetric", 8)
    a = sample_perturbation(inst, 1.7, seed=42)
    b = sample_perturbation(inst, 1.7, seed=42)
    assert np.array_equal(a.dprime, b.dprime)
    assert a.bounds_ok()
    assert np.all(a.dprime >= inst.dist)
    assert np.all(a.dprime <= 1.7 * inst.dist + 1e-12)
    assert np.array_equal(sample_perturbation(inst, 1.0, 0).dprime, inst.dist)


def _weakly_separated(gap):
    pts = np.array([0.0, 1.0, 1.0 + gap, 2.0 + gap])
    d = snap_up(np.abs(pts[:, None] - pts[None, :]))
    np.fill_diagonal(d, 0.0)
    return validate_instance(d, "symmetric")


def test_falsifier_epsilon_one_never_falsifies():
    inst = _weakly_separated(1.1)
    res = falsify_resilience(inst, 2, StabilityParams(2.0, 1.0), budget=50)
    assert res.status == "none-found"


def test_falsifier_finds_counterexample_on_weak_separation():
    inst = _weakly_separated(1.1)
    res = falsify_resilience(inst, 2, StabilityParams(2.0, 0.0), budget=100)
    assert res.status == "falsified"
    assert res.perturbation.bounds_ok()
    assert res.eps_dist > 0.0
    assert res.violating_clustering.canonical_partition() != \
        res.opt_clustering.canonical_partition()


def test_falsifier_none_found_on_planted():
    planted = gen_planted_symmetric(10, 2, 1.0, 2.0, 3)
    res = falsify_resilience(planted.instance, 2, StabilityParams(2.0, 0.0),
                             budget=40)
    assert res.status == "none-found"
    assert res.tried == 40


def test_falsifier_budget_exceeded_distinct():
    planted = gen_planted_symmetric(10, 2, 1.0, 2.0, 3)
    res = falsify_resilience(planted.instance, 2, StabilityParams(2.0, 0.0),
                             budget=3)
    assert res.status == "budget-exceeded"


def _capped_count(inst, k, alpha):
    """T: the targets (optimal cluster, point q) with a pair to cap."""
    d = inst.dist
    opt = brute_force_optimal(d, k)
    bound = alpha * opt.optimal_radius
    return sum(any(t != q and d[q, t] <= bound for t in ci)
               for ci in opt.clustering(d).clusters() for q in range(inst.n))


@pytest.mark.parametrize("make,k,alpha", [
    (lambda: gen_random_metric(9, "symmetric", 0), 3, 1.0),
    (lambda: gen_planted_symmetric(10, 2, 1.0, 2.0, 3).instance, 2, 2.0),
], ids=["last-targets-pairless", "last-target-has-pairs"])
def test_falsifier_budget_exceeded_only_with_capped_left(monkeypatch, make,
                                                         k, alpha):
    # the capped perturbations built must be the ones tried
    inst, build, built = make(), oracle.build_lemma1_perturbation, []

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "build_lemma1_perturbation", counted)
    T = _capped_count(inst, k, alpha)
    assert T > 1
    for budget, status in ((T - 1, "budget-exceeded"), (T, "none-found")):
        built.clear()
        res = falsify_resilience(inst, k, StabilityParams(alpha, 0.0),
                                 budget=budget)
        assert (res.status, res.tried, len(built)) == (status, budget, budget)


def _reference_check_perturbation(d, k, opt_part, epsilon, oracle_budget):
    """The per-set check: one Voronoi partition per d'-optimal set."""
    res = brute_force_optimal(d.dprime, k, budget=oracle_budget)
    for centers in res.optimal_center_sets:
        cl = voronoi_partition(d.dprime, centers)
        eps = epsilon_distance(cl, opt_part)
        if eps > epsilon:
            return cl, eps
    return None, None


def _reference_falsify(instance, k, params, budget=200, seed=0,
                       oracle_budget=oracle.DEFAULT_SUBSET_BUDGET):
    """The two-phase falsifier the single stream replaced: a targeted scan
    that reports budget-exceeded whenever it meets the budget before its
    last target, pair-less targets included, then a random phase."""
    inst = instance
    d = inst.dist
    n = d.shape[0]
    opt = brute_force_optimal(d, k, budget=oracle_budget)
    r_star = opt.optimal_radius
    opt_part = opt.clustering(d)
    alpha, epsilon = params.alpha, params.epsilon
    bound = alpha * r_star
    tried = 0

    def validated(pert, cl, eps):
        assert pert.bounds_ok()
        re_cl, re_eps = _reference_check_perturbation(pert, k, opt_part,
                                                      epsilon, oracle_budget)
        assert re_cl is not None and re_eps > epsilon
        return FalsifierResult(status="falsified", perturbation=pert,
                               violating_clustering=cl, opt_clustering=opt_part,
                               eps_dist=eps, tried=tried,
                               opt_unique=opt.partition_unique)

    for ci in opt_part.clusters():
        for q in range(n):
            if tried >= budget:
                return FalsifierResult(status="budget-exceeded", tried=tried,
                                       opt_clustering=opt_part,
                                       opt_unique=opt.partition_unique)
            pairs = [(q, t) for t in ci if t != q and d[q, t] <= bound]
            if not pairs:
                continue
            pert = build_lemma1_perturbation(inst, r_star, alpha, pairs)
            tried += 1
            cl, eps = _reference_check_perturbation(pert, k, opt_part, epsilon,
                                                    oracle_budget)
            if cl is not None:
                return validated(pert, cl, eps)
    i = 0
    while tried < budget:
        pert = sample_perturbation(inst, alpha, seed + i)
        i += 1
        tried += 1
        cl, eps = _reference_check_perturbation(pert, k, opt_part, epsilon,
                                                oracle_budget)
        if cl is not None:
            return validated(pert, cl, eps)
    return FalsifierResult(status="none-found", tried=tried,
                           opt_clustering=opt_part,
                           opt_unique=opt.partition_unique)


def _falsifier_fields(res):
    dprime = None if res.perturbation is None else res.perturbation.dprime
    return (res.status, None if dprime is None else dprime.tobytes(),
            res.violating_clustering, res.opt_clustering, res.eps_dist,
            res.tried, res.opt_unique)


def _falsifier_cases():
    """(instance, k, params, seed): random metrics of both modes and
    planted-sym tables; alpha 1.2 finds counterexamples in the random phase."""
    cases = [(gen_random_metric(9, mode, s), k, StabilityParams(a, e), s)
             for mode in ("symmetric", "asymmetric") for s in (0, 1)
             for k in (2, 3) for a in (1.0, 1.2, 1.5, 2.0) for e in (0.0, 0.2)]
    cases += [(gen_planted_symmetric(n, 3, 1.0, 2.0, 0).instance, 3,
               StabilityParams(a, 0.0), 0)
              for n in (12, 14, 16) for a in (1.5, 2.0)]
    return cases


def test_falsifier_matches_two_phase_reference():
    statuses, random_hits, relabelled = set(), 0, 0
    for inst, k, params, seed in _falsifier_cases():
        T = _capped_count(inst, k, params.alpha)
        for budget in sorted({T - 1, T, T + 1, 30, 200}):
            want = _reference_falsify(inst, k, params, budget, seed)
            got = falsify_resilience(inst, k, params, budget, seed)
            statuses.add(got.status)
            random_hits += got.status == "falsified" and got.tried > T
            if want.status != got.status:
                # the reference met its budget on a pair-less target after
                # trying every capped perturbation
                assert (want.status, got.status) == ("budget-exceeded",
                                                     "none-found")
                assert budget >= T
                want = dataclasses.replace(want, status="none-found")
                relabelled += 1
            assert _falsifier_fields(got) == _falsifier_fields(want)
    assert statuses == {"falsified", "none-found", "budget-exceeded"}
    assert random_hits > 0 and relabelled > 0


def test_falsifier_refuses_overflowing_alpha(monkeypatch):
    # 2 * 1e308 overflows: d' would hold inf entries, so no oracle call runs
    d = np.full((4, 4), 1e308)
    d[:2, :2] = d[2:, 2:] = 1e-10
    np.fill_diagonal(d, 0.0)
    calls = []
    monkeypatch.setattr(oracle, "brute_force_optimal",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="not a finite double"):
        falsify_resilience(d, 2, StabilityParams(alpha=2.0, epsilon=0.0))
    assert calls == []
    monkeypatch.undo()
    res = falsify_resilience(d, 2, StabilityParams(alpha=1.0, epsilon=0.0),
                             budget=3)
    assert res.status != "falsified"
