"""Seeded generators: planted guarantees, explicit constructions, reductions."""

import dataclasses
import itertools
import json
import math
import types

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    BudgetExceeded,
    Clustering,
    StabilityParams,
    brute_force_optimal,
    check_structure,
    cost,
    emit_clustering,
    emit_instance,
    epsilon_distance,
    falsify_resilience,
    snap_up,
    validate_instance,
    voronoi_partition,
)
from kcenter_resilience import generators, kci
from kcenter_resilience.generators import (
    ConstructionCheckFailed,
    Guarantee,
    MAX_POINTS,
    InfeasibleParams,
    PlantedInstance,
    RejectionBudgetExceeded,
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


def test_bad_center_18_raises_when_a_construction_check_fails(monkeypatch):
    oracle = generators.brute_force_optimal
    monkeypatch.setattr(generators, "brute_force_optimal", lambda d, k: (
        dataclasses.replace(oracle(d, k), optimal_radius=2.0)))
    with pytest.raises(ConstructionCheckFailed,
                       match="^oracle radius must be 1$"):
        gen_bad_center_18(2.0)


def test_dominating_set_star_and_path():
    n, edges = named_graph("star5")
    inst = gen_from_dominating_set(n, edges)
    assert set(np.unique(inst.dist)) <= {0.0, 1.0, 2.0}
    assert brute_force_optimal(inst.dist, 1).optimal_radius == 1.0

    n, edges = named_graph("path4")
    inst = gen_from_dominating_set(n, edges)
    assert brute_force_optimal(inst.dist, 1).optimal_radius == 2.0
    assert brute_force_optimal(inst.dist, 2).optimal_radius == 1.0


def test_dominating_set_skips_self_loops():
    # a self-loop adds no edge: the diagonal stays 0
    looped = gen_from_dominating_set(4, [(0, 0), (0, 1), (2, 2)])
    assert np.array_equal(looped.dist, gen_from_dominating_set(4, [(0, 1)]).dist)


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
    assert named_graph(f"empty{MAX_POINTS}") == (MAX_POINTS, [])
    with pytest.raises(ValueError):
        named_graph("blob7")


# The planted generators as they were before their truths became Voronoi
# partitions: each truth built by hand from the planned blocks, and the
# asymmetric family built on the public symmetric one with its margin
# scaled by skew.  A differential reference for the emitted bytes.

def _ref_planted_coords(n, k, r, separation, rng):
    base, extra = divmod(n, k)
    sizes = [base + (1 if i < extra else 0) for i in range(k)]
    coords = []
    centers_idx = []
    idx = 0
    for i, size in enumerate(sizes):
        cx, cy = i * separation, 0.0
        centers_idx.append(idx)
        coords.append((cx, cy))
        idx += 1
        for _ in range(size - 1):
            rad = 0.9 * r * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            coords.append((cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
            idx += 1
    return np.asarray(coords), centers_idx, sizes


def _ref_truth_from_blocks(d, centers_idx, sizes):
    assignment = []
    for i, size in enumerate(sizes):
        assignment.extend([i] * size)
    return Clustering(k=len(sizes), centers=tuple(centers_idx),
                      assignment=tuple(assignment),
                      radius=cost(d, centers_idx))


def _ref_planted_symmetric(n, k, r, alpha, seed, sep_scale=1.0):
    if not (n >= k >= 1) or r <= 0 or alpha < 1:
        raise InfeasibleParams(f"bad params n={n} k={k} r={r} alpha={alpha}")
    rng = np.random.default_rng(seed)
    separation = (2 * alpha * r + 2 * r) * 1.25 * sep_scale
    coords, centers_idx, sizes = _ref_planted_coords(n, k, r, separation, rng)
    diff = coords[:, None, :] - coords[None, :, :]
    d = snap_up(np.sqrt((diff ** 2).sum(axis=-1)))
    np.fill_diagonal(d, 0.0)
    instance = validate_instance(d, "symmetric")
    truth = _ref_truth_from_blocks(d, centers_idx, sizes)
    min_cross = generators._min_cross_distance(d, truth.assignment)
    if truth.radius > r or (k > 1 and not min_cross > 2 * alpha * r * sep_scale):
        raise InfeasibleParams("separation guarantee failed at construction")
    return PlantedInstance(instance, truth,
                           Guarantee(family="planted-sym", seed=seed,
                                     alpha=alpha, r=r, separation=min_cross))


def _ref_planted_asymmetric(n, k, r, alpha, skew, seed):
    if skew < 1:
        raise InfeasibleParams(f"skew must be >= 1, got {skew}")
    base = _ref_planted_symmetric(n, k, r, alpha, seed, sep_scale=skew)
    if skew == 1:
        return base
    truth = base.truth
    rng = np.random.default_rng(seed)
    for _ in range(generators.SKEW_ATTEMPTS):
        u = rng.uniform(1.0, skew, size=(n, n))
        np.fill_diagonal(u, 1.0)
        skewed = snap_up(base.instance.dist * u)
        np.fill_diagonal(skewed, 0.0)
        d = floyd_warshall(skewed)
        try:
            instance = validate_instance(d, "asymmetric")
        except ValueError:
            continue
        new_truth = Clustering(k=k, centers=truth.centers,
                               assignment=truth.assignment,
                               radius=cost(d, truth.centers))
        report = check_structure(d, new_truth, r_star=new_truth.radius)
        vor = voronoi_partition(d, truth.centers)
        if (report.property1 and report.property1_full_scope
                and report.property2 and report.a_respects_opt
                and vor.assignment == new_truth.assignment):
            return PlantedInstance(instance, new_truth, Guarantee(
                family="planted-asym", seed=seed, alpha=alpha, skew=skew,
                r=r, separation=generators._min_cross_distance(
                    d, new_truth.assignment)))
    raise RejectionBudgetExceeded("no valid skewed instance")


def _ref_bad_center_18(alpha):
    """The table and inline truth; the build-time claims are unchanged."""
    if not alpha > 1:
        raise InfeasibleParams(f"alpha must be > 1, got {alpha}")
    xs, ys, zs = list(range(1, 6)), list(range(7, 12)), list(range(13, 18))
    d = np.full((18, 18), float(math.ceil(alpha)) + 1.0)
    np.fill_diagonal(d, 0.0)
    d[0, xs] = d[6, ys] = d[12, zs] = 1.0
    d[np.ix_(xs + zs, ys + [6])] = float(snap_up(1.0 / alpha))
    d = snap_up(floyd_warshall(d))
    np.fill_diagonal(d, 0.0)
    truth = Clustering(k=3, centers=(0, 6, 12),
                       assignment=tuple([0] * 6 + [1] * 6 + [2] * 6),
                       radius=cost(d, (0, 6, 12)))
    return PlantedInstance(validate_instance(d, "asymmetric"), truth,
                           Guarantee(family="bad-center-18", alpha=alpha,
                                     epsilon=1.0 / 18, r=1.0))


def _ref_eps_padding(base, k, alpha, epsilon):
    """Without the point cap, which raises before either version builds."""
    if not epsilon > 0:
        raise InfeasibleParams("epsilon must be > 0")
    n = base.n
    base_cl = brute_force_optimal(base.dist, k).clustering(base.dist)
    pad_dist = alpha * (float(base.dist.max()) + 1.0)
    n_pad = math.ceil(n / epsilon)
    total = n + n_pad
    d = np.full((total, total), pad_dist)
    d[:n, :n] = base.dist
    np.fill_diagonal(d, 0.0)
    k_prime = k + n_pad
    centers = tuple(base_cl.centers) + tuple(range(n, total))
    assignment = tuple(base_cl.assignment) + tuple(range(k, k_prime))
    truth = Clustering(k=k_prime, centers=centers, assignment=assignment,
                       radius=cost(d, centers))
    return PlantedInstance(validate_instance(d, "symmetric"), truth, Guarantee(
        family="eps-padding", alpha=alpha, epsilon=epsilon,
        extras={"k_prime": k_prime, "n_pad": n_pad, "base_n": n,
                "pad_distance": pad_dist}))


def _emitted(make, *args):
    """The three files `generate` writes and the labeled truth, or the
    exception type raised."""
    try:
        planted = make(*args)
    except Exception as e:
        return type(e)
    return (emit_instance(planted.instance), emit_clustering(planted.truth),
            json.dumps(kci.to_jsonable(planted.guarantee), indent=2),
            planted.truth)


_PLANTED_CASES = [
    (n, k, r, alpha, skew, seed)
    for seed in range(3)
    for n, k in ((4, 4), (12, 3), (20, 5), (30, 1))
    for r in (1.0, 0.3)
    for alpha in (1.0, 2.0)
    for skew in (1.0, 1.2, 1.5)
] + [
    (300, 8, 1.0, 2.0, 1.2, 1),
    (3, 5, 1.0, 2.0, 1.2, 0),  # the parameter check raises
    (6, 2, 0.0, 2.0, 1.2, 0),
    (6, 2, 1.0, 0.5, 1.2, 0),
    (6, 2, 1e-7, 2.0, 1.2, 0),  # the separation check raises
]


def test_planted_generators_emit_the_hand_built_truths_bytes():
    for n, k, r, alpha, skew, seed in _PLANTED_CASES:
        if skew == 1.0:
            assert (_emitted(gen_planted_symmetric, n, k, r, alpha, seed)
                    == _emitted(_ref_planted_symmetric, n, k, r, alpha, seed))
        assert (_emitted(gen_planted_asymmetric, n, k, r, alpha, skew, seed)
                == _emitted(_ref_planted_asymmetric, n, k, r, alpha, skew,
                            seed))
    assert _emitted(gen_planted_symmetric, 300, 8, 1.0, 2.0, 1) \
        == _emitted(_ref_planted_symmetric, 300, 8, 1.0, 2.0, 1)


def _ref_random_asymmetric(n, seed):
    """gen_random_metric's asymmetric table, snapped, zeroed and closed."""
    d = snap_up(np.random.default_rng(seed).uniform(0.5, 2.0, size=(n, n)))
    np.fill_diagonal(d, 0.0)
    return floyd_warshall(d)


def test_random_asymmetric_metric_keeps_its_bytes():
    for n, seed in itertools.product((1, 2, 5, 9, 30), range(3)):
        assert (gen_random_metric(n, "asymmetric", seed).dist.tobytes()
                == _ref_random_asymmetric(n, seed).tobytes())


def test_bad_center_18_and_eps_padding_emit_the_hand_built_truths_bytes():
    # the reference closes the table before it snaps it
    for alpha in (1.01, 1.1, 1.5, 2.0, 3.0, 3.7, 7.5, 100.0):
        assert (_emitted(gen_bad_center_18, alpha)
                == _emitted(_ref_bad_center_18, alpha))
    with pytest.raises(InfeasibleParams, match=r"alpha must be in \(1, inf\)"):
        gen_bad_center_18(1.0)
    for n, seed in itertools.product((2, 4, 6), range(2)):
        base = gen_random_metric(n, "symmetric", seed)
        for k, alpha, epsilon in itertools.product(
                range(1, n + 1), (1.0, 2.0), (0.5, 1.0, 0.0)):
            assert (_emitted(gen_eps_padding, base, k, alpha, epsilon)
                    == _emitted(_ref_eps_padding, base, k, alpha, epsilon))


def test_skewed_planted_asymmetric_validates_one_table_per_attempt(
        monkeypatch):
    calls = {"validate": 0, "closure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(generators, "validate_instance",
                        counted("validate", generators.validate_instance))
    monkeypatch.setattr(generators, "floyd_warshall",
                        counted("closure", generators.floyd_warshall))
    gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 3)
    assert calls == {"validate": 1, "closure": 1}
    # every attempt rejected: still one table validated per attempt
    monkeypatch.setattr(generators, "check_structure",
                        lambda *args, **kwargs: types.SimpleNamespace(
                            property1=False))
    with pytest.raises(RejectionBudgetExceeded):
        gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 3)
    attempts = 1 + generators.SKEW_ATTEMPTS
    assert calls == {"validate": attempts, "closure": attempts}


def test_skew_attempt_rejected_by_any_check_draws_again(monkeypatch):
    # the first attempt fails validation, keeps no planted Voronoi
    # partition, or fails the structure check: each time the next check
    # never sees it, and the second attempt's table is returned
    names = ("validate_instance", "voronoi_partition", "check_structure")
    real = {name: getattr(generators, name) for name in names}
    # the first call inside the attempt loop; _planted's Voronoi call is 1
    loop_call = {"validate_instance": 1, "voronoi_partition": 2,
                 "check_structure": 1}
    first = gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 3).instance.dist
    tables, counts = [], []
    for rejecter in names:
        calls = dict.fromkeys(names, 0)

        def spy(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = real[name](*args, **kwargs)
                if name != rejecter or calls[name] != loop_call[name]:
                    return out
                if name == "validate_instance":
                    raise ValueError("rejected")
                if name == "voronoi_partition":
                    return dataclasses.replace(
                        out, assignment=out.assignment[::-1])
                return types.SimpleNamespace(property1=False)
            return wrapper

        for name in names:
            monkeypatch.setattr(generators, name, spy(name))
        tables.append(gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, 3)
                      .instance.dist)
        counts.append(tuple(calls.values()))
    assert counts == [(2, 2, 1), (2, 3, 1), (2, 3, 2)]
    assert not np.array_equal(tables[0], first)
    assert all(np.array_equal(t, tables[0]) for t in tables)


_BASE3 = gen_random_metric(3, "symmetric", 0)
_ASYM3 = gen_random_metric(3, "asymmetric", 0)


@pytest.mark.parametrize("make, needle", [
    (lambda: gen_planted_symmetric(6, 2, math.inf, 2.0, 0), "r=inf"),
    (lambda: gen_planted_symmetric(6, 2, math.nan, 2.0, 0), "r=nan"),
    (lambda: gen_planted_symmetric(6, 2, 1.0, math.inf, 0), "alpha=inf"),
    (lambda: gen_planted_asymmetric(6, 2, 1.0, math.nan, 1.2, 0),
     "alpha=nan"),
    (lambda: gen_planted_asymmetric(6, 2, 1.0, 2.0, math.inf, 0), "skew"),
    (lambda: gen_planted_asymmetric(6, 2, 1.0, 2.0, math.nan, 0), "skew"),
    (lambda: gen_bad_center_18(math.inf), "alpha"),
    (lambda: gen_bad_center_18(math.nan), "alpha"),
    (lambda: gen_eps_padding(_BASE3, 1, math.inf, 0.5), "alpha"),
    (lambda: gen_eps_padding(_BASE3, 1, 0.5, 0.5), "alpha"),
    (lambda: gen_eps_padding(_BASE3, 1, 2.0, math.inf),
     r"epsilon must be in \(0, 1\], got inf"),
    (lambda: gen_eps_padding(_BASE3, 1, 2.0, 2.0),
     r"epsilon must be in \(0, 1\], got 2.0"),
    (lambda: gen_planted_symmetric(2001, 2, 1.0, 2.0, 0),
     "n=2001 exceeds 2000 points"),
    (lambda: gen_planted_asymmetric(2001, 2, 1.0, 2.0, 1.2, 0),
     "n=2001 exceeds 2000 points"),
    (lambda: gen_random_metric(2001, "symmetric", 0),
     "n=2001 exceeds 2000 points"),
    (lambda: gen_random_metric(2001, "asymmetric", 0),
     "n=2001 exceeds 2000 points"),
    (lambda: gen_from_dominating_set(2001, []), "n=2001 exceeds 2000 points"),
    (lambda: named_graph("complete10000000"),
     "n=10000000 exceeds 2000 points"),
    (lambda: gen_random_metric(0, "symmetric", 0), "n must be >= 1"),
    (lambda: gen_eps_padding(_ASYM3, 1, 2.0, 0.5), "base must be symmetric"),
    (lambda: named_graph("star0"), "unknown graph name 'star0'"),
], ids=["sym-r-inf", "sym-r-nan", "sym-alpha-inf", "asym-alpha-nan",
        "asym-skew-inf", "asym-skew-nan", "bc18-alpha-inf", "bc18-alpha-nan",
        "pad-alpha-inf", "pad-alpha-below-1", "pad-epsilon-inf",
        "pad-epsilon-2", "sym-over-cap", "asym-over-cap", "random-sym-over-cap",
        "random-asym-over-cap", "dom-set-over-cap", "named-graph-over-cap",
        "random-n-0", "pad-asymmetric-base", "named-graph-star0"])
def test_non_finite_generator_params_raise_before_any_table(
        monkeypatch, make, needle):
    def no_call(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(generators, "np", types.SimpleNamespace())  # no array
    monkeypatch.setattr(generators, "_planted_coords", no_call)
    monkeypatch.setattr(generators, "_euclidean", no_call)
    monkeypatch.setattr(generators, "floyd_warshall", no_call)
    monkeypatch.setattr(generators, "brute_force_optimal", no_call)
    with pytest.raises(InfeasibleParams, match=needle):
        make()

