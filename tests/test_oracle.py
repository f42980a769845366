"""Brute-force oracle, capped perturbations, and the resilience falsifier."""

import dataclasses
import itertools
import re
import warnings
from math import comb

import numpy as np
import pytest

from kcenter_resilience import (
    BudgetExceeded,
    CapTooTight,
    FalsifierResult,
    OracleResult,
    Perturbation,
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
from kcenter_resilience.core import label_groups, set_costs, voronoi_labels
from kcenter_resilience.generators import (
    gen_bad_center_18,
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
    tie-heavy grids, all-zero tables (n = 6 and n = 1) and tables with NaN
    or +inf entries, at k = 1 and k = n among others."""
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
    tables += [np.zeros((6, 6)), np.zeros((1, 1))]
    # NaN scores neither win nor tie; all-NaN leaves no optimal set
    tables += [np.where(tables[0] == 1.0, np.nan, tables[0]),
               np.full((4, 4), np.nan)]
    # +inf scores tie like any other: all-inf makes every set optimal
    tables += [np.where(tables[1] == 2.0, np.inf, tables[1]),
               np.full((4, 4), np.inf)]
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


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (5,), (2, 2, 2)])
def test_oracle_refuses_non_square_table(shape):
    msg = f"table must be square, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        brute_force_optimal(np.zeros(shape), 1)
    with pytest.raises(ValueError, match=re.escape(msg)):
        falsify_resilience(np.zeros(shape), 1, StabilityParams(2.0, 0.0))


def test_scan_scores_each_set_once(monkeypatch):
    # the blocks cover every k-set exactly once, each scored as set_costs
    # scores it, and hold at most SCAN_CELLS cells (one head past that)
    rng = np.random.default_rng(0)
    # default cells, one set per block, a few tails per block
    cases = [(n, k, cap) for n in range(1, 13) for k in range(1, n + 1)
             for cap in (oracle.SCAN_CELLS, 1, 3 * n)]
    for n, k, cap in cases + [(30, 4, oracle.SCAN_CELLS)]:
        d = rng.random((n, n))
        monkeypatch.setattr(oracle, "SCAN_CELLS", cap)
        blocks = list(oracle._scored_blocks(d, k))
        assert sum(scores.size for _, _, scores in blocks) == comb(n, k)
        sets = np.concatenate([
            oracle._sets(heads, start, np.ones(scores.shape, dtype=bool))
            for heads, start, scores in blocks])
        assert (sorted(map(tuple, sets.tolist()))
                == list(itertools.combinations(range(n), k)))
        assert np.array_equal(
            np.concatenate([scores.ravel() for _, _, scores in blocks]),
            set_costs(d.T, sets))
        for heads, _, scores in blocks:
            width = max(scores.shape[1], k) + 1
            assert len(heads) == 1 or len(heads) * width * n <= cap
            assert scores.shape[1] <= max(1, cap // n)


def test_kept_sets_match_itertools_filter(monkeypatch):
    # lexicographic, whatever the blocks; at exactly KEPT_CELLS cells they
    # are kept, one cell fewer returns None
    tables = [gen_planted_symmetric(12, 3, 1.0, 2.0, 0).instance.dist,
              gen_random_metric(9, "asymmetric", 1).dist,
              _grid(8, 0, False), _grid(8, 1, True), 1.0 - np.eye(7)]
    runs = 0
    for d, k in itertools.product(tables, (1, 2, 3)):
        r_star = brute_force_optimal(d, k).optimal_radius
        for bound in (r_star, 1.5 * r_star, 2.0 * r_star):
            want = [list(s) for s in itertools.combinations(range(len(d)), k)
                    if cost(d, s) <= bound]
            for cap in (oracle.SCAN_CELLS, 1, 5 * k * len(d)):
                monkeypatch.setattr(oracle, "SCAN_CELLS", cap)
                monkeypatch.setattr(oracle, "KEPT_CELLS", k * len(want))
                assert oracle._kept_sets(d, k, bound).tolist() == want
                monkeypatch.setattr(oracle, "KEPT_CELLS", k * len(want) - 1)
                assert oracle._kept_sets(d, k, bound) is None
                runs += 1
    assert runs == 135


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


@pytest.mark.parametrize("planted", [
    lambda seed: gen_planted_symmetric(14, 3, 1.0, 2.0, seed),
    lambda seed: gen_planted_asymmetric(14, 3, 1.0, 2.0, 1.2, seed)],
    ids=["planted-sym", "planted-asym"])
def test_falsifier_random_stream_does_not_depend_on_grouping(planted):
    # random d' number i is the i-th n x n block of one generator's draws,
    # whether drawn 1, 2, 3 or 7 at a time; number 0 is sample_perturbation's
    for seed in range(50):
        d = planted(seed).instance.dist
        streams = []
        for group in (1, 2, 3, 7):
            rng = np.random.default_rng(seed)
            streams.append(np.concatenate(
                [oracle._random_tables(d, 2.0, rng, group)
                 for _ in range(42 // group)]))
        assert all(s.tobytes() == streams[0].tobytes() for s in streams)
        sampled = sample_perturbation(d, 2.0, seed).dprime
        assert streams[0][0].tobytes() == sampled.tobytes()
        assert streams[0].dtype == sampled.dtype
        assert all(Perturbation(base=d, alpha=2.0, dprime=t).bounds_ok()
                   for t in streams[0])
    raw = d + np.eye(len(d))  # a nonzero diagonal is kept, not scaled
    table, = oracle._random_tables(raw, 2.0, np.random.default_rng(0), 1)
    assert np.array_equal(np.diag(table), np.diag(raw))


def _huge_table():
    """Two pairs 1e-10 apart, 1e308 between them: 2 * d overflows."""
    d = np.full((4, 4), 1e308)
    d[:2, :2] = d[2:, 2:] = 1e-10
    np.fill_diagonal(d, 0.0)
    return d


def test_perturbation_builders_refuse_overflowing_alpha():
    d = _huge_table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before multiplying
        with pytest.raises(ValueError, match="not a finite double"):
            sample_perturbation(d, 2.0, 0)
        with pytest.raises(ValueError, match="not a finite double"):
            build_lemma1_perturbation(d, 1e-10, 2.0, [(0, 1)])
        # alpha = 1 keeps every entry finite
        assert np.array_equal(sample_perturbation(d, 1.0, 0).dprime, d)
        pert = build_lemma1_perturbation(d, 1e-10, 1.0, [(0, 1)])
        assert np.array_equal(pert.dprime, d) and pert.bounds_ok()

        with pytest.raises(ValueError, match="alpha must be >= 1"):
            build_lemma1_perturbation(d, 1e-10, 0.5, [])
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            sample_perturbation(d, 0.5, 0)


def test_one_voronoi_rule_labels_every_pair():
    # integer entries in {0, 1, 2}: exact ties everywhere, and distinct
    # points at distance 0, so two centers of a set can coincide
    rng = np.random.default_rng(3)
    tables = rng.integers(0, 3, size=(5, 7, 7)).astype(float)
    tables[:, np.arange(7), np.arange(7)] = 0.0
    tables = np.concatenate([tables, [1.0 - np.eye(7), np.zeros((7, 7))]])
    coincide = 0
    for k in (1, 2, 3, 4):
        subsets = np.array(list(itertools.combinations(range(7), k)))
        b = np.repeat(np.arange(len(tables)), len(subsets))
        sets = np.tile(subsets, (len(tables), 1))
        labels = voronoi_labels(tables[b[:, None], sets], sets)
        keys = oracle._partition_keys(tables[b[:, None], sets], sets)
        names = {}
        canon = []
        for i, (t, s) in enumerate(zip(b, sets)):
            cl = voronoi_partition(tables[t], s)
            assert labels[i].tolist() == list(cl.assignment)
            canon.append(names.setdefault(cl.canonical_partition(), len(names)))
            coincide += bool((tables[t][np.ix_(s, s)] == 0).sum() > k)
        canon = np.array(canon)
        same_key = (keys[:, None] == keys[None]).all(axis=2)
        assert np.array_equal(same_key, canon[:, None] == canon[None])
    assert coincide > 100


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


def _random_stream(d, alpha, seed):
    """The falsifier's random d', one at a time: d times one (n, n) block
    after another of one seeded generator's uniform [1, alpha] draws, each
    diagonal factor 1."""
    rng = np.random.default_rng(seed)
    while True:
        u = rng.uniform(1.0, alpha, size=d.shape)
        np.fill_diagonal(u, 1.0)
        yield Perturbation(base=d, alpha=alpha, dprime=d * u)


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
    draws = _random_stream(d, alpha, seed)
    while tried < budget:
        pert = next(draws)
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
    """(instance, k, params, seed): random metrics of both modes, and the
    shapes `verify` is run on: planted-sym and planted-asym tables and
    bad-center-18, which falsifies; alpha 1.2 finds counterexamples in the
    random phase."""
    cases = [(gen_random_metric(9, mode, s), k, StabilityParams(a, e), s)
             for mode in ("symmetric", "asymmetric") for s in (0, 1)
             for k in (2, 3) for a in (1.0, 1.2, 1.5, 2.0) for e in (0.0, 0.2)]
    cases += [(gen_planted_symmetric(n, 3, 1.0, 2.0, 0).instance, 3,
               StabilityParams(a, 0.0), 0)
              for n in (12, 14, 16) for a in (1.5, 2.0)]
    cases += [(gen_planted_asymmetric(14, 3, 1.0, 2.0, 1.2, 0).instance, 3,
               StabilityParams(2.0, 0.0), 0),
              (gen_bad_center_18(2.0).instance, 3,
               StabilityParams(2.0, 0.0555), 0)]
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


def _one_at_a_time_falsify(instance, k, params, budget=200, seed=0,
                           oracle_budget=oracle.DEFAULT_SUBSET_BUDGET):
    """The falsifier loop without batch screening: each d' in turn is
    scanned in full by the oracle, then one clustering per partition other
    than OPT's is checked."""
    d = getattr(instance, "dist", instance)
    n = d.shape[0]
    opt = brute_force_optimal(d, k, budget=oracle_budget)
    r_star = opt.optimal_radius
    opt_part = opt.clustering(d)
    alpha, epsilon = params.alpha, params.epsilon
    bound = alpha * r_star

    def check(pert):
        res = brute_force_optimal(pert.dprime, k, budget=oracle_budget)
        for i in res.partitions:
            cl = voronoi_partition(pert.dprime, res.optimal_center_sets[i])
            if cl.canonical_partition() == opt_part.canonical_partition():
                continue
            eps = epsilon_distance(cl, opt_part)
            if eps > epsilon:
                return cl, eps
        return None, None

    capped = filter(None, ([(q, t) for t in ci if t != q and d[q, t] <= bound]
                           for ci in opt_part.clusters() for q in range(n)))
    stream = itertools.chain(
        (build_lemma1_perturbation(d, r_star, alpha, pairs)
         for pairs in capped),
        _random_stream(d, alpha, seed))
    tried = 0
    for tried, pert in enumerate(itertools.islice(stream, budget), 1):
        cl, eps = check(pert)
        if cl is None:
            continue
        assert pert.bounds_ok()
        return FalsifierResult(status="falsified", perturbation=pert,
                               violating_clustering=cl, opt_clustering=opt_part,
                               eps_dist=eps, tried=tried,
                               opt_unique=opt.partition_unique)
    status = "none-found" if next(capped, None) is None else "budget-exceeded"
    return FalsifierResult(status=status, tried=tried, opt_clustering=opt_part,
                           opt_unique=opt.partition_unique)


def _counting(monkeypatch):
    """Count the perturbations the falsifier builds or draws, the batches
    it screens (their sizes and cells) and the d' it checks, flagged by the
    screen or scanned in full, that are not falsified there."""
    seen = {"built": 0, "batches": [], "passed": 0}
    build, draw = oracle.build_lemma1_perturbation, oracle._random_tables

    def built(*args):
        seen["built"] += 1
        return build(*args)

    def drawn(*args):
        tables = draw(*args)
        seen["built"] += len(tables)
        return tables

    monkeypatch.setattr(oracle, "build_lemma1_perturbation", built)
    monkeypatch.setattr(oracle, "_random_tables", drawn)
    screen, check = oracle._screen, oracle._check_perturbation

    def screened(batch, d, kept, bound, opt_key, chunk):
        n = d.shape[0]
        k = 0 if kept is None else kept.shape[1]
        seen["batches"].append((len(batch), len(batch) * (n * n + chunk * k * n)))
        return screen(batch, d, kept, bound, opt_key, chunk)

    def checked(*args):
        got = check(*args)
        seen["passed"] += got == (None, None)
        return got

    monkeypatch.setattr(oracle, "_screen", screened)
    monkeypatch.setattr(oracle, "_check_perturbation", checked)
    return seen


def test_batched_falsifier_matches_one_at_a_time(monkeypatch):
    cases = _falsifier_cases()
    # tie-heavy tables: distinct optimal partitions within epsilon of OPT's
    ties = [_grid(8, s, directed) for s in (0, 1) for directed in (False, True)]
    ties.append(1.0 - np.eye(7))
    cases += [(d, k, StabilityParams(a, e), 0) for d in ties for k in (2, 3)
              for a, e in ((2.0, 0.0), (2.0, 0.3), (1.5, 1.0))]
    budgets = (1, 2, 3, 4, 7, 8, 15, 16, 200)
    statuses, within_eps, runs = set(), 0, 0
    for case, (inst, k, params, seed) in enumerate(cases):
        n = len(getattr(inst, "dist", inst))
        for budget in budgets:
            want = _falsifier_fields(
                _one_at_a_time_falsify(inst, k, params, budget, seed))
            # default cells; one d' per batch, scored two kept sets at a
            # time; one d' per batch with no room for a set beside it, so
            # scored a chunk past the cells; no kept sets, so every d' is
            # scanned in full
            for name, cap in (("SCAN_CELLS", oracle.SCAN_CELLS),
                              ("SCAN_CELLS", n * n + 2 * k * n),
                              ("SCAN_CELLS", n * n - 1),
                              ("KEPT_CELLS", 0)):
                # the reruns take budget 200 on every fourth case
                if cap != oracle.SCAN_CELLS and (
                        budget in (3, 7, 15) or budget == 200 and case % 4):
                    continue
                with monkeypatch.context() as m:
                    m.setattr(oracle, name, cap)
                    seen = _counting(m)
                    got = falsify_resilience(inst, k, params, budget, seed)
                    cells = oracle.SCAN_CELLS
                assert _falsifier_fields(got) == want
                runs += 1
                statuses.add(got.status)
                within_eps += got.status != "falsified" and seen["passed"] > 0
                # a falsified run builds past its counterexample only
                # within that d''s batch; other runs build what they try
                if got.status == "falsified":
                    assert seen["built"] <= 2 * got.tried - 1
                else:
                    assert seen["built"] == got.tried
                # one table past the cells, and only a lone one
                assert all(held <= cells or size == 1 and held <= n * n + cells
                           for size, held in seen["batches"])
                if name == "SCAN_CELLS" and cap < oracle.SCAN_CELLS:
                    assert {size for size, _ in seen["batches"]} <= {1}
    assert statuses == {"falsified", "none-found", "budget-exceeded"}
    assert within_eps > 20 and runs > 1000


def test_falsifier_draws_no_random_table_past_the_budget(monkeypatch):
    # a budget of T + 3 draws exactly 3 random tables, at batch widths 1,
    # 2, 3, 5 and one batch holding the whole budget
    inst = gen_planted_symmetric(12, 3, 1.0, 2.0, 0).instance
    d, params = inst.dist, StabilityParams(2.0, 1.0)  # never falsified
    T = _capped_count(inst, 3, params.alpha)
    kept = oracle._kept_sets(d, 3, params.alpha * brute_force_optimal(
        d, 3).optimal_radius)
    cells = d.size + kept.size * len(d)  # one d' and its kept sets' scores
    draw, splits = oracle._random_tables, set()
    for width in (1, 2, 3, 5, T + 3):
        drawn = []

        def counted(*args):
            tables = draw(*args)
            drawn.append(len(tables))
            return tables

        with monkeypatch.context() as m:
            m.setattr(oracle, "SCAN_CELLS", width * cells)
            m.setattr(oracle, "_random_tables", counted)
            res = falsify_resilience(inst, 3, params, budget=T + 3)
        assert res.tried == T + 3 and sum(drawn) == 3
        splits.add(tuple(drawn))
    assert len(splits) > 1


def test_falsifier_refuses_bad_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "brute_force_optimal",
                        lambda *args, **kwargs: calls.append(args))
    d = gen_random_metric(6, "symmetric", 0).dist
    for budget in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="budget must be a non-negative "
                                             "integer, got"):
            falsify_resilience(d, 2, StabilityParams(2.0, 0.0), budget=budget)
    assert calls == []
    monkeypatch.undo()
    for budget in (0, np.int64(2)):
        res = falsify_resilience(d, 2, StabilityParams(2.0, 0.0), budget=budget)
        assert res.tried <= budget


def test_falsifier_refuses_bad_seed(monkeypatch):
    # -1 failed in numpy's default_rng only after every capped
    # perturbation was scanned, or passed unseen under a small budget; 1.5
    # was a TypeError from SeedSequence
    calls = []
    monkeypatch.setattr(oracle, "brute_force_optimal",
                        lambda *args, **kwargs: calls.append(args))
    d = gen_planted_symmetric(9, 3, 1.0, 2.0, 0).instance
    for seed in (-1, 1.5, "3", None):
        for budget in (5, 200):
            with pytest.raises(ValueError, match="seed must be a "
                                                 "non-negative integer, got"):
                falsify_resilience(d, 3, StabilityParams(2.0, 0.0),
                                   budget=budget, seed=seed)
    assert calls == []
    monkeypatch.undo()
    for seed in (0, np.int64(2)):
        res = falsify_resilience(d, 3, StabilityParams(2.0, 0.0), budget=30,
                                 seed=seed)
        assert res.tried <= 30


def test_falsifier_refuses_overflowing_alpha(monkeypatch):
    # 2 * 1e308 overflows: d' would hold inf entries, so no oracle call runs
    d = _huge_table()
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


def _refused_with_no_oracle_call(monkeypatch, d, message):
    """The falsifier and both builders refuse d with ``message`` before
    any oracle call."""
    calls = []
    monkeypatch.setattr(oracle, "brute_force_optimal",
                        lambda *args, **kwargs: calls.append(args))
    for refused in (
            lambda: falsify_resilience(d, 2, StabilityParams(2.0, 0.0),
                                       budget=20),
            lambda: sample_perturbation(d, 2.0, 0),
            lambda: build_lemma1_perturbation(d, 1.0, 2.0, [])):
        with pytest.raises(ValueError, match=message):
            refused()
    assert calls == []


@pytest.mark.parametrize("table", [
    [[0, .9, -.1, 2.2], [2.7, 0, 1.2, .8], [2.7, -.8, 0, 1.5],
     [-.9, 1.9, -.9, 0]],
    [[0, .7, 1.6, 1.1], [.7, 0, -.8, 2.9], [-.7, -.9, 0, -.5],
     [2.2, -.4, .4, 0]],
], ids=["bounds-assertion", "no-kept-set"])
def test_falsifier_and_builders_refuse_a_negative_entry(monkeypatch, table):
    # alpha * d < d at a negative entry, so no d' has d <= d' <= alpha * d:
    # the falsifier ended in its bounds assertion on the first table and in
    # numpy's concatenate error, from a screen with no kept set, on the
    # second; both builders returned a Perturbation failing bounds_ok()
    _refused_with_no_oracle_call(monkeypatch, np.array(table),
                                 "table entries must be >= 0")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_falsifier_and_builders_refuse_a_non_finite_entry(monkeypatch, bad):
    # a NaN passed the negative-entry test and, like inf, was refused as
    # "alpha = 2.0 times the largest distance is not a finite double"
    _refused_with_no_oracle_call(
        monkeypatch, np.array([[0, 1, 2], [1, 0, bad], [2, 1, 0]]),
        "^table entries must be finite$")


def _recording_oracle(monkeypatch):
    """Wrap the falsifier's oracle: each call's table and result are
    recorded."""
    full, calls = oracle.brute_force_optimal, []

    def recorded(table, k, budget=oracle.DEFAULT_SUBSET_BUDGET):
        got = full(table, k, budget)
        calls.append((table, got))
        return got

    monkeypatch.setattr(oracle, "brute_force_optimal", recorded)
    return calls


def _recording_screen(monkeypatch):
    """Wrap the falsifier's batch screen: each d' it sees is recorded with
    its decision ("cleared", "flagged" or "full"), its flagged sets (None
    unless flagged) and what the decision rests on (the base table, the
    kept sets, alpha r* and OPT's partition key)."""
    screen, decisions = oracle._screen, []

    def recorded(batch, d, kept, bound, opt_key, chunk):
        covered, flagged = screen(batch, d, kept, bound, opt_key, chunk)
        for i, dprime in enumerate(batch):
            kind = ("full" if not covered[i] else
                    "flagged" if i in flagged else "cleared")
            decisions.append((dprime, kind, flagged.get(i), d, kept, bound,
                              opt_key))
        return covered, flagged

    monkeypatch.setattr(oracle, "_screen", recorded)
    return decisions


def _full_scans(decisions):
    """Check each decision against the full scan, and return that scan's
    result for each d'.

    A covered d' (cleared or flagged) must be >= d with OPT(d') <= alpha
    r*.  A flagged d''s sets must be exactly the full scan's first optimal
    set of each partition that is not OPT's, in lexicographic order; a
    cleared d' must have no such partition; a d' scanned in full must not
    be covered."""
    results = []
    for dprime, kind, sets, d, kept, bound, opt_key in decisions:
        k = len(set(opt_key.tolist()))
        want = brute_force_optimal(dprime, k)
        covered = (kept is not None and bool(np.all(dprime >= d))
                   and want.optimal_radius <= bound)
        assert covered == (kind != "full")
        if covered:
            opt = tuple(map(tuple, label_groups(opt_key)))
            firsts = [want.optimal_center_sets[i] for i in want.partitions]
            far = [s for s in firsts
                   if voronoi_partition(dprime, s).canonical_partition()
                   != opt]
            assert (kind == "cleared") == (sets is None) == (not far)
            if sets is not None:
                assert list(map(tuple, sets.tolist())) == far
        results.append(want)
    return results


def _scanned(calls, base, decisions, counterexample=None):
    """Whether the oracle scanned exactly the base table, then each d' the
    screen left to it, in stream order, then the counterexample's
    re-validation, if one is given."""
    want = [base] + [dprime for dprime, kind, *_ in decisions
                     if kind == "full"]
    want += [] if counterexample is None else [counterexample.dprime]
    return len(calls) == len(want) and all(
        np.array_equal(table, table_want)
        for (table, _), table_want in zip(calls, want))


def test_screen_flagged_sets_match_full_scan(monkeypatch):
    # every decision of the falsifier stream, capped and random phases, on
    # tie-heavy tables (integer grids, 1 - eye) and planted ones
    tables = [_grid(8, s, directed) for s in (0, 1)
              for directed in (False, True)]
    tables.append(1.0 - np.eye(7))
    tables += [gen_planted_symmetric(12, 3, 1.0, 2.0, s).instance.dist
               for s in (0, 1)]
    tables += [gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, s).instance.dist
               for s in (0, 1)]
    params = StabilityParams(2.0, 1.0)  # never falsified: budget runs out
    calls = _recording_oracle(monkeypatch)
    decisions = _recording_screen(monkeypatch)
    runs = 0
    for d in tables:
        for k in (2, 3, 4):
            T = _capped_count(validate_instance(d, "asymmetric"), k, 2.0)
            falsify_resilience(d, k, params, budget=T + 3)
            runs += 1
    want = _full_scans(decisions)
    kinds = [kind for _, kind, *_ in decisions]
    # every perturbation here is covered, many with ties between sets and
    # between partitions; those with a partition other than OPT's are
    # checked on their flagged sets, which are the full scan's
    assert len(decisions) > 300 and "full" not in kinds
    assert sum(len(res.optimal_center_sets) > 1 for res in want) > 100
    assert sum(not res.partition_unique for res in want) > 20
    assert kinds.count("flagged") > 20 and kinds.count("cleared") > 100
    # the oracle saw only the base tables
    assert len(calls) == runs
    assert sum(len(kept) < comb(12, 3) // 2
               for *_, kept, _, _ in decisions) > 50


def test_covered_perturbations_never_reach_the_oracle(monkeypatch):
    # every d' of these tie-heavy streams is covered, and many are flagged;
    # at epsilon = 1 none falsifies, so the base table's call is the only one
    ties = [_grid(8, s, directed) for s in (0, 1) for directed in (False, True)]
    ties.append(1.0 - np.eye(7))
    calls = _recording_oracle(monkeypatch)
    decisions = _recording_screen(monkeypatch)
    for d in ties:
        for k in (2, 3):
            for alpha in (1.5, 2.0):
                calls.clear()
                res = falsify_resilience(d, k, StabilityParams(alpha, 1.0))
                assert res.status != "falsified" and res.tried == 200
                assert _scanned(calls, d, [])
    kinds = [kind for _, kind, *_ in decisions]
    assert "full" not in kinds and kinds.count("flagged") > 100


def _line(xs):
    return validate_instance(np.abs(np.subtract.outer(xs, xs)), "symmetric")


def test_falsifier_scans_in_full_when_dprime_dips_below_base(monkeypatch):
    # OPT {0,1} {10,11} {50}, r* = 1.  The set {0, 10, 11} covers all but
    # point 50, 39 away; a d' with d'(11, 50) = 0 makes it d'-optimal at
    # alpha r* = 2 although its base cost 39 is far above alpha r*
    inst = _line(np.array([0.0, 1.0, 10.0, 11.0, 50.0]))
    build = oracle.build_lemma1_perturbation

    def dipped(*args):
        pert = build(*args)
        dprime = pert.dprime.copy()
        dprime[3, 4] = 0.0
        return Perturbation(base=pert.base, alpha=pert.alpha, dprime=dprime)

    monkeypatch.setattr(oracle, "build_lemma1_perturbation", dipped)
    params = StabilityParams(2.0, 1.0)
    with monkeypatch.context() as m:
        m.setattr(oracle, "KEPT_CELLS", 0)  # every d' scans in full
        want = falsify_resilience(inst, 3, params, budget=8)
    calls = _recording_oracle(monkeypatch)
    decisions = _recording_screen(monkeypatch)
    got = falsify_resilience(inst, 3, params, budget=8)
    assert _falsifier_fields(got) == _falsifier_fields(want)
    full = _full_scans(decisions)
    T = _capped_count(inst, 3, 2.0)
    assert 0 < T < len(decisions) == 8
    kinds = [kind for _, kind, *_ in decisions]
    assert kinds[:T] == ["full"] * T  # dipped: full scan
    assert "full" not in kinds[T:]  # random: covered
    assert all((0, 2, 3) in res.optimal_center_sets for res in full[:T])
    # the oracle saw the base table and each dipped d', nothing else
    assert _scanned(calls, inst.dist, decisions)


def _kept_cells(inst, k, alpha):
    """Cells (sets times k) of the center sets with cost_d <= alpha r*."""
    d = inst.dist
    bound = alpha * brute_force_optimal(d, k).optimal_radius
    return k * sum(cost(d, s) <= bound
                   for s in itertools.combinations(range(inst.n), k))


@pytest.mark.parametrize("make,params", [
    (lambda: gen_planted_symmetric(12, 3, 1.0, 2.0, 0), StabilityParams(2.0, 0.0)),
    (lambda: gen_bad_center_18(2.0), StabilityParams(2.0, 0.0555)),
], ids=["none-found", "falsified"])
def test_falsifier_falls_back_past_kept_cap(monkeypatch, make, params):
    inst = make().instance
    want = falsify_resilience(inst, 3, params, budget=30)
    cells = _kept_cells(inst, 3, params.alpha)
    for cap, covered in ((cells, True), (cells - 1, False)):
        with monkeypatch.context() as m:
            m.setattr(oracle, "KEPT_CELLS", cap)
            calls = _recording_oracle(m)
            decisions = _recording_screen(m)
            got = falsify_resilience(inst, 3, params, budget=30)
        assert _falsifier_fields(got) == _falsifier_fields(want)
        _full_scans(decisions)
        tried = decisions[:got.tried]
        kinds = [kind for _, kind, *_ in tried]
        # past the cap every d' goes to the oracle; under it none does, and
        # only the counterexample's re-validation follows the base call
        if covered:
            assert "full" not in kinds
        else:
            assert kinds == ["full"] * got.tried
        assert _scanned(calls, inst.dist, tried, got.perturbation)


def test_falsifier_scans_in_full_when_dprime_passes_alpha_d(monkeypatch):
    # a random d' drawn up to 4 d under alpha = 2: UB = cost_d'(S0) passes
    # alpha r*, the kept sets' bound, and the 15th such d' has an optimal
    # set whose base cost is above alpha r*
    d = gen_random_metric(9, "symmetric", 0).dist
    draw = oracle._random_tables
    monkeypatch.setattr(oracle, "_random_tables",
                        lambda d, alpha, rng, m: draw(d, 4.0, rng, m))
    calls = _recording_oracle(monkeypatch)
    decisions = _recording_screen(monkeypatch)
    T = _capped_count(validate_instance(d, "symmetric"), 3, 2.0)
    res = falsify_resilience(d, 3, StabilityParams(2.0, 1.0), budget=T + 15)
    assert res.tried == T + 15
    full = _full_scans(decisions)
    # the d' with an optimal set above the kept sets' bound reached the
    # oracle, which scanned them in full
    bound = 2.0 * calls[0][1].optimal_radius
    beyond = [kind for (_, kind, *_), scan in zip(decisions, full)
              if max(cost(d, s) for s in scan.optimal_center_sets) > bound]
    assert beyond and set(beyond) == {"full"}
    assert _scanned(calls, d, decisions)
