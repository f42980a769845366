"""Structural-property checkers against handmade constructions and generators."""

import numpy as np
from scipy.sparse.csgraph import floyd_warshall

from kcenter_resilience import (
    CCCReport,
    Clustering,
    StructureReport,
    brute_force_optimal,
    check_structure,
    count_bad_centers_bound_check,
    find_cluster_capturing_centers,
    symmetrized_set,
    voronoi_partition,
)
from kcenter_resilience.generators import (
    gen_bad_center_18,
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
)
from test_solvers import _reference_symmetrized_set


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


# --- loop references: each predicate scanned straight from its definition --

def _ref_check_structure(d, clustering, r_star):
    clusters = clustering.clusters()
    centers = clustering.centers
    k = clustering.k
    witnesses = {}
    a, nearest = _reference_symmetrized_set(d, r_star)
    a_members = set(a)

    def prop1_over(groups):
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                for p in groups[i]:
                    dcp = d[centers[i], p]
                    for q in groups[j]:
                        if not dcp < d[q, p]:
                            return False, (p, i, q, j)
        return True, None

    restricted = [[p for p in cl if p in a_members] for cl in clusters]
    property1, w = prop1_over(restricted)
    if not property1:
        witnesses["property1"] = w
    property1_full, w = prop1_over(clusters)
    if not property1_full:
        witnesses["property1_full_scope"] = w

    hits = [(q, c) for i, c in enumerate(centers)
            for j, g in enumerate(clusters) if j != i
            for q in g if d[q, c] <= r_star]
    if hits:
        witnesses["property2"] = hits[0]
    weak = True
    for i in range(k):
        for p in clusters[i]:
            dcp = d[centers[i], p]
            for j in range(k):
                if j == i:
                    continue
                for q in clusters[j]:
                    if not dcp < d[p, q]:
                        weak = False
                        witnesses.setdefault("weak_center_proximity", (p, q))

    factor = np.inf
    for i in range(k):
        for p in clusters[i]:
            dcp = d[centers[i], p]
            if dcp == 0:
                continue
            for j in range(k):
                if j != i:
                    factor = min(factor, d[centers[j], p] / dcp)

    respects = bool(a)
    if a:
        for i in range(k):
            if centers[i] not in a_members:
                respects = False
                witnesses.setdefault("a_respects_opt", ("center", centers[i]))
        for p, ap in nearest.items():
            if clustering.assignment[p] != clustering.assignment[ap]:
                respects = False
                witnesses.setdefault("a_respects_opt", ("attachment", p, ap))

    return StructureReport(property1=property1,
                           property1_full_scope=property1_full,
                           property2=not hits,
                           weak_center_proximity=weak,
                           center_proximity_factor=float(factor),
                           bad_centers=tuple(sorted({c for _, c in hits})),
                           a_respects_opt=respects,
                           witnesses=witnesses)


def _ref_find_ccc(d, clustering, r_star):
    clusters = clustering.clusters()
    centers = clustering.centers
    k = clustering.k

    def majority_vs(i, j, excluded):
        half = len(clusters[j]) / 2
        for x in range(k):
            if x == j or x in excluded:
                continue
            good = sum(1 for p in clusters[j]
                       if d[centers[i], p] <= r_star
                       and d[centers[i], p] < d[centers[x], p])
            if not good > half:
                return False
        good = sum(1 for p in clusters[j] if d[centers[i], p] <= r_star)
        return good > half

    ccc = {}
    ccc2 = {}
    for j in range(k):
        for i in range(k):
            if i == j:
                continue
            if majority_vs(i, j, excluded={i}):
                ccc[j] = centers[i]
            excl = tuple(centers[l] for l in range(k)
                         if l != j and majority_vs(i, j, excluded={i, l}))
            if excl:
                ccc2.setdefault(j, {})[centers[i]] = excl
    return CCCReport(ccc=ccc, ccc2=ccc2)


# --- differential inputs -----------------------------------------------------

def _grid_l1(n, seed):
    """L1 distances between points of a 4x4 integer grid: ties everywhere
    and, for n > 16, coincident points."""
    pts = np.random.default_rng(seed).integers(0, 4, size=(n, 2))
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)


def _random_table(n, seed, symmetric):
    """Raw random table on a coarse grid (ties), not necessarily a metric."""
    d = np.random.default_rng(seed).integers(1, 6, size=(n, n)) / 2.0
    if symmetric:
        d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


def _directed_cycle(n):
    """d(p, p+1) = 1, every other pair 3: at r* = 1 the point before p
    reaches p but p does not reach it back, so A is empty."""
    d = np.full((n, n), 3.0)
    np.fill_diagonal(d, 0.0)
    d[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return d


def _radii(d):
    values = np.unique(d)
    return sorted({0.0, *np.quantile(values, [0.1, 0.3, 0.5, 0.8]).tolist(),
                   float(values[len(values) // 2]), float(values.max())})


def _differential_cases():
    """(table, clustering, r*) triples: planted truths, and Voronoi
    clusterings and random partitions around random centers, k = 1..6, at
    several radii."""
    cases = []
    for seed in range(3):
        for planted in (gen_planted_symmetric(12, 3, 1.0, 2.0, seed),
                        gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.2, seed),
                        gen_planted_symmetric(18, 4, 1.0, 2.0, seed)):
            d = planted.instance.dist
            for r in (planted.truth.radius, *_radii(d)):
                cases.append((d, planted.truth, r))
    planted = gen_bad_center_18(3.0)
    for r in (1.0, *_radii(planted.instance.dist)):
        cases.append((planted.instance.dist, planted.truth, r))
    tables = [_directed_cycle(7)]
    for seed in range(4):
        tables += [_grid_l1(12, seed), _grid_l1(20, seed),
                   _random_table(11, seed, True),
                   _random_table(11, seed, False),
                   gen_random_metric(10, "asymmetric", seed).dist]
    rng = np.random.default_rng(0)
    for d in tables:
        n = d.shape[0]
        for k in range(1, 7):
            centers = rng.choice(n, size=k, replace=False).tolist()
            labels = rng.integers(0, k, size=n)
            labels[centers] = np.arange(k)
            for cl in (voronoi_partition(d, centers),
                       Clustering(k=k, centers=tuple(centers),
                                  assignment=tuple(labels.tolist()),
                                  radius=1.0)):
                for r in _radii(d):
                    cases.append((d, cl, r))
    return cases


def _int_witnesses(witnesses):
    return all(type(v) in (int, str) for w in witnesses.values() for v in w)


def test_check_structure_matches_loop_reference():
    cases = _differential_cases()
    empty_a = 0
    for d, cl, r in cases:
        rep = check_structure(d, cl, r)
        ref = _ref_check_structure(d, cl, r)
        assert rep == ref, (cl, r)
        assert list(rep.witnesses) == list(ref.witnesses)
        assert type(rep.center_proximity_factor) is float
        assert _int_witnesses(rep.witnesses)
        assert all(type(c) is int for c in rep.bad_centers)
        assert count_bad_centers_bound_check(d, cl, r) == (
            len(ref.bad_centers) <= 6)
        empty_a += symmetrized_set(d, r) is None
    assert len(cases) > 1500
    assert empty_a > 0  # some radius leaves the symmetrized set empty


def test_ccc_matches_loop_reference():
    cases = _differential_cases()
    found = 0
    for d, cl, r in cases:
        rep = find_cluster_capturing_centers(d, cl, r)
        ref = _ref_find_ccc(d, cl, r)
        assert rep == ref, (cl, r)
        assert list(rep.ccc) == list(ref.ccc)
        assert [(j, list(inner.items())) for j, inner in rep.ccc2.items()] \
            == [(j, list(inner.items())) for j, inner in ref.ccc2.items()]
        assert all(type(c) is int for c in rep.ccc.values())
        found += bool(rep.ccc2)
    assert found > 0  # the inputs exercise capture, not only its absence
