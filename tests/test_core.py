"""Instance model, validation, costs, partitions, closeness, components."""

import itertools

import numpy as np
import pytest

from kcenter_resilience import (
    GRID,
    Clustering,
    InstanceViolation,
    MismatchedK,
    NegativeDistance,
    NonzeroDiagonal,
    SymmetryViolation,
    TriangleViolation,
    ball,
    components,
    cost,
    epsilon_distance,
    snap_up,
    symmetrized_set,
    threshold_components,
    validate_instance,
    voronoi_partition,
)
from kcenter_resilience import core
from kcenter_resilience.kci import clustering_to_dict
from kcenter_resilience.generators import (
    gen_bad_center_18,
    gen_from_dominating_set,
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
    named_graph,
)


def test_validate_two_point_symmetric():
    inst = validate_instance([[0, 1], [1, 0]], "symmetric")
    assert inst.n == 2
    assert inst.is_symmetric


def test_validate_triangle_violation_first_in_row_major_order():
    with pytest.raises(TriangleViolation) as exc:
        validate_instance([[0, 5, 10], [5, 0, 1], [10, 1, 0]], "symmetric")
    assert (exc.value.p, exc.value.s, exc.value.q) == (0, 1, 2)


def test_validate_asymmetric_three_point():
    d = [[0, 1, 2], [3, 0, 2], [2, 2, 0]]
    inst = validate_instance(d, "asymmetric")
    # brute-force all ordered triples to confirm the table really is valid
    for p, s, q in itertools.product(range(3), repeat=3):
        assert d[p][q] <= d[p][s] + d[s][q]
    assert not inst.is_symmetric


def test_validate_negative_and_diagonal_and_symmetry():
    with pytest.raises(NegativeDistance):
        validate_instance([[0, -1], [1, 0]], "symmetric")
    with pytest.raises(NonzeroDiagonal):
        validate_instance([[0.5, 1], [1, 0]], "symmetric")
    with pytest.raises(SymmetryViolation) as exc:
        validate_instance([[0, 1], [1.5, 0]], "symmetric")
    assert (exc.value.p, exc.value.q) == (0, 1)


@pytest.mark.parametrize("table,error,where", [
    # rows in order: row 0's negative entry beats row 1's diagonal
    ([[0, 1, -1], [1, 2, 1], [1, 1, 0]], NegativeDistance, (0, 2)),
    # within a row the diagonal comes first, even after a negative column
    ([[0, 1, 1], [-1, 2, 1], [1, 1, 0]], NonzeroDiagonal, (1,)),
    # a negative diagonal entry is a nonzero diagonal
    ([[0, 1, 1], [1, 0, 1], [1, 1, -1]], NonzeroDiagonal, (2,)),
], ids=["row-order", "diagonal-before-sign", "negative-diagonal"])
def test_validate_first_diagonal_or_sign_violation(table, error, where):
    with pytest.raises(error) as exc:
        validate_instance(table, "asymmetric")
    got = (exc.value.p,) if error is NonzeroDiagonal else (exc.value.p,
                                                           exc.value.q)
    assert got == where and all(type(v) is int for v in got)


def test_validate_slack_tolerates_small_violations():
    table = [[0, 5, 10], [5, 0, 1], [10, 1, 0]]
    inst = validate_instance(table, "symmetric", slack=4.0)
    assert inst.n == 3


def _reference_validate(raw_table, mode, slack=0.0):
    """The whole-cube validation the row-blocked scan replaced: one n^3
    sum and one n^3 mask, first violation by argwhere."""
    d = np.asarray(raw_table, dtype=float)
    diag = d.diagonal() != 0.0
    negative = d < 0.0
    bad = np.flatnonzero(diag | negative.any(axis=1))
    if bad.size:
        p = int(bad[0])
        if diag[p]:
            raise NonzeroDiagonal(p, d[p, p])
        q = int(negative[p].argmax())
        raise NegativeDistance(p, q, d[p, q])
    if mode == "symmetric":
        bad = np.argwhere(np.abs(d - d.T) > slack)
        if bad.size:
            p, q = bad[0]
            raise SymmetryViolation(int(p), int(q))
    viol = d[:, None, :] > (d[:, :, None] + d[None, :, :]) + slack
    bad = np.argwhere(viol)
    if bad.size:
        p, s, q = bad[0]
        raise TriangleViolation(int(p), int(s), int(q))


def _validation_key(validate, d, mode, slack):
    try:
        validate(d, mode, slack=slack)
        return ("ok",)
    except InstanceViolation as e:
        return (type(e).__name__, repr(vars(e)), str(e))


def _validation_cases():
    """(table, mode, slack): generator output, L1 grids with coincident
    points (zero off-diagonal distances), raw random tables, and each valid
    table again with one entry scaled or zeroed at a random (p, q)."""
    pts = [np.random.default_rng(s).integers(0, 4, size=(20, 2))
           for s in range(3)]
    grids = [np.abs(x[:, None] - x[None]).sum(axis=2).astype(float)
             for x in pts]
    valid = ([(gen_planted_symmetric(n, 3, 1.0, 2.0, s).instance.dist, "symmetric")
              for n in (9, 30) for s in (0, 1)]
             + [(gen_planted_asymmetric(n, 3, 1.0, 2.0, 1.2, s).instance.dist,
                 "asymmetric") for n in (9, 24) for s in (0, 1)]
             + [(gen_random_metric(n, mode, s).dist, mode)
                for n in (6, 20) for s in (0, 1)
                for mode in ("symmetric", "asymmetric")]
             + [(gen_bad_center_18(2.0).instance.dist, "asymmetric"),
                (gen_from_dominating_set(*named_graph("cycle6")).dist,
                 "symmetric")]
             + [(g, "symmetric") for g in grids])
    rng = np.random.default_rng(0)
    cases = []
    for d, mode in valid:
        cases += [(d, mode, 0.0), (d, "asymmetric", 0.0)]
        n = d.shape[0]
        for factor in (3.0, 0.25, 0.0) * 3:
            p, q = rng.choice(n, size=2, replace=False)
            bad = d.copy()
            bad[p, q] *= factor
            if mode == "symmetric":
                bad[q, p] = bad[p, q]
            for slack in (0.0, GRID, 0.1, 1.0):
                cases.append((bad, mode, slack))
    # d(0,2) = (d(0,1) + d(1,2)) + slack, which holds only when the check
    # adds the two legs first and the slack last
    abs_ = rng.uniform(0.0, 1.0, size=(200, 3))
    for a, b, slack in abs_[(abs_[:, 0] + abs_[:, 1]) + abs_[:, 2]
                            > abs_[:, 0] + (abs_[:, 1] + abs_[:, 2])][:5]:
        c = (a + b) + slack
        cases.append((np.array([[0, a, c], [a, 0, b], [c, b, 0]]),
                      "symmetric", slack))
    for s in range(6):
        raw = rng.integers(1, 6, size=(11, 11)) / 2.0
        np.fill_diagonal(raw, 0.0)
        cases += [(raw, "asymmetric", 0.0),
                  (np.minimum(raw, raw.T), "symmetric", 0.0)]
    return cases


def test_validate_matches_whole_cube_reference(monkeypatch):
    cases = _validation_cases()
    mismatches = triangles = offset_rows = 0
    for d, mode, slack in cases:
        want = _validation_key(_reference_validate, d, mode, slack)
        n = d.shape[0]
        # default blocks, one row per block, three rows per block
        for cap in (core.SCAN_CELLS, 1, 3 * n * n):
            monkeypatch.setattr(core, "SCAN_CELLS", cap)
            mismatches += _validation_key(validate_instance, d, mode,
                                          slack) != want
        monkeypatch.undo()
        triangles += want[0] == "TriangleViolation"
        offset_rows += want[0] == "TriangleViolation" and "'p': 0," not in want[1]
    assert len(cases) > 500 and mismatches == 0
    assert triangles > 100 and offset_rows > 50  # first hit past row 0


def test_cost_examples():
    inst = validate_instance([[0, 1], [1, 0]], "symmetric")
    assert cost(inst, [0]) == 1.0
    assert cost(inst, [0, 1]) == 0.0


def test_cost_matches_double_loop_and_is_monotone():
    rng = np.random.default_rng(4)
    coords = rng.uniform(0, 1, size=(8, 2))
    d = snap_up(np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1)))
    np.fill_diagonal(d, 0.0)
    inst = validate_instance(d, "symmetric")
    centers = [2, 5]
    expect = max(min(d[c, p] for c in centers) for p in range(8))
    assert cost(inst, centers) == expect
    assert cost(inst, [2, 5, 7]) <= cost(inst, centers)
    assert cost(inst, centers) <= cost(inst, [2])


def test_voronoi_singletons_and_tie_break():
    inst = validate_instance([[0, 1], [1, 0]], "symmetric")
    cl = voronoi_partition(inst, [0, 1])
    assert cl.canonical_partition() == (((0,), (1,)))
    # equidistant point goes to the smaller center index
    d = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=float)
    inst3 = validate_instance(d, "symmetric")
    cl3 = voronoi_partition(inst3, [1, 2])
    assert cl3.assignment[0] == 0  # point 0 ties between centers 1 and 2


def test_voronoi_radius_equals_cost():
    rng = np.random.default_rng(11)
    d = snap_up(rng.uniform(1, 2, size=(7, 7)))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    inst = validate_instance(d, "symmetric", slack=1.0)
    cl = voronoi_partition(inst, [1, 4])
    assert cl.radius == cost(inst, [1, 4])


def test_voronoi_center_in_own_cluster():
    # point 2's row dominates point 1's row, yet center 1 keeps itself
    d = np.array([[0.0, 2.0, 2.0],
                  [2.0, 0.0, 1.0],
                  [2.0, 1.0, 0.0]])
    inst = validate_instance(d, "asymmetric")
    cl = voronoi_partition(inst, [0, 1, 2])
    assert cl.assignment == (0, 1, 2)
    # points 0 and 1 coincide: the zero tie must not empty center 1's cluster
    same = validate_instance([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "symmetric")
    assert voronoi_partition(same, [2, 1, 0]).assignment == (2, 1, 0)
    d2 = np.array([[0.0, 3.0, 3.0],
                   [3.0, 0.0, 3.0],
                   [1.0, 3.0, 0.0]])
    inst2 = validate_instance(d2, "asymmetric", slack=3.0)
    cl2 = voronoi_partition(inst2, [1, 2])
    # center 2 grabs point 0, so cluster of center 1 keeps only itself
    assert cl2.assignment == (1, 0, 1)


def _cl(assignment, k, centers=None, radius=0.0):
    centers = centers or tuple(range(k))
    return Clustering(k=k, centers=tuple(centers),
                      assignment=tuple(assignment), radius=radius)


def test_epsilon_distance_basics():
    a = _cl([0, 0, 1, 1], 2)
    assert epsilon_distance(a, a) == 0.0
    b = _cl([1, 1, 0, 0], 2)
    assert epsilon_distance(a, b) == 0.0  # label permutation absorbed
    nine_a = _cl([0, 0, 0, 1, 1, 1, 2, 2, 2], 3)
    nine_b = _cl([0, 0, 1, 1, 1, 1, 2, 2, 2], 3)
    assert epsilon_distance(nine_a, nine_b) == pytest.approx(1 / 9)
    with pytest.raises(MismatchedK):
        epsilon_distance(a, _cl([0, 0, 1, 2], 3, centers=(0, 2, 3)))


def _epsilon_by_permutations(a, b):
    n = a.n
    clusters_a = a.clusters()
    clusters_b = b.clusters()
    best = n
    for perm in itertools.permutations(range(b.k)):
        moved = sum(len(set(clusters_a[i]) - set(clusters_b[perm[i]]))
                    for i in range(a.k))
        best = min(best, moved)
    return best / n


def test_epsilon_distance_matches_permutation_enumeration():
    rng = np.random.default_rng(0)
    for k in (2, 3, 4, 5):
        for trial in range(10):
            n = k + int(rng.integers(2, 9))
            a = _cl(list(rng.integers(0, k, size=n - k)) + list(range(k)), k,
                    centers=tuple(range(n - k, n)))
            b = _cl(list(rng.integers(0, k, size=n - k)) + list(range(k)), k,
                    centers=tuple(range(n - k, n)))
            got = epsilon_distance(a, b)
            assert got == pytest.approx(_epsilon_by_permutations(a, b))
            assert got == pytest.approx(epsilon_distance(b, a))
            assert 0.0 <= got <= 1.0


def test_ball():
    d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    inst = validate_instance(d, "symmetric")
    assert ball(inst, 0, 0.0) == (0,)
    assert ball(inst, 0, 2.0) == (0, 1, 2)
    assert ball(inst, 0, 1.0) == (0, 1)
    assert ball(inst, 0, 1.0, domain=[1, 2]) == (1,)


def test_threshold_components():
    d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    inst = validate_instance(d, "symmetric")
    assert threshold_components(inst, threshold=0.5) == [[0], [1], [2]]
    assert threshold_components(inst, threshold=2.0) == [[0, 1, 2]]
    assert threshold_components(inst, threshold=1.0) == [[0, 1, 2]]


def test_threshold_refinement():
    rng = np.random.default_rng(9)
    d = snap_up(rng.uniform(0.5, 2, size=(10, 10)))
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    inst = validate_instance(d, "symmetric", slack=2.0)
    fine = threshold_components(inst, threshold=0.9)
    coarse = threshold_components(inst, threshold=1.4)
    for comp in fine:
        assert any(set(comp) <= set(big) for big in coarse)


def test_threshold_components_asymmetric_needs_both_directions():
    d = np.array([[0, 1, 2], [2, 0, 2], [2, 2, 0]], dtype=float)
    inst = validate_instance(d, "asymmetric")
    # d(0,1)=1 but d(1,0)=2, so no pair is joined
    assert threshold_components(inst, threshold=1.0) == [[0], [1], [2]]


def _components_by_bfs(adj):
    """Reference: breadth-first search from each unseen point in index order."""
    n = len(adj)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, frontier = [start], [start]
        while frontier:
            p = frontier.pop()
            for q in range(n):
                if adj[p][q] and not seen[q]:
                    seen[q] = True
                    comp.append(q)
                    frontier.append(q)
        out.append(sorted(comp))
    return out


@pytest.mark.parametrize("n", [1, 2, 17, 60])
def test_components_matches_bfs_reference(n):
    rng = np.random.default_rng(n)
    for density in (0.0, 0.5 / n, 1.0 / n, 2.0 / n, 0.2, 1.0):
        for _ in range(5):
            upper = np.triu(rng.random((n, n)) < density, 1)
            adj = upper | upper.T
            assert components(adj) == _components_by_bfs(adj.tolist())
    assert components(np.ones((n, n), dtype=bool)) == [list(range(n))]
    assert components(np.zeros((n, n), dtype=bool)) == [[p] for p in range(n)]


def test_symmetrized_set_symmetric_is_everything():
    d = np.array([[0, 1], [1, 0]], dtype=float)
    inst = validate_instance(d, "symmetric")
    assert symmetrized_set(inst, 0.5).tolist() == [0, 1]


def test_symmetrized_set_excludes_one_way_point():
    # 2 is within r of 0 and 1 (incoming) but both are 2r away from it;
    # A(2) is the smaller index of the tie
    r = 1.0
    d = np.array([[0, r, r / 2], [r, 0, r / 2], [2 * r, 2 * r, 0]])
    nearest = symmetrized_set(d, r)
    assert nearest.dtype.kind == "i"
    assert nearest.tolist() == [0, 1, 0]
    assert np.flatnonzero(nearest == np.arange(3)).tolist() == [0, 1]


def test_symmetrized_set_empty_is_none():
    d = np.array([[0, 0.5, 9], [9, 0, 0.5], [0.5, 9, 0]])
    assert symmetrized_set(d, 1.0) is None


def test_snap_up_grid():
    grid = 2.0 ** -20
    v = float(snap_up(0.3))
    assert v >= 0.3
    assert v - 0.3 < grid
    assert (v / grid) == int(v / grid)
    assert float(snap_up(0.5)) == 0.5  # already on the grid


def _reference_canonical_partition(cl):
    """The label-free view before label_groups: nonempty clusters sorted."""
    return tuple(sorted(tuple(c) for c in cl.clusters() if c))


def _reference_clustering_to_dict(cl):
    """The clustering JSON dict before label_groups: (group, center) pairs
    sorted by the group's smallest member."""
    pairs = sorted(((sorted(g), cl.centers[i])
                    for i, g in enumerate(cl.clusters()) if g),
                   key=lambda t: t[0][0])
    return {"k": cl.k, "radius": cl.radius,
            "centers": [c for _, c in pairs], "clusters": [g for g, _ in pairs]}


def test_partition_order_matches_sorted_clusters():
    rng = np.random.default_rng(11)
    cases = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            for _ in range(4):
                # labels drawn from range(k) leave some clusters empty
                labels = rng.integers(0, k, size=n)
                if k == n:
                    labels = rng.permutation(n)
                centers = rng.choice(n, size=k, replace=False)
                # the same partition under permuted labels
                perm = rng.permutation(k)
                inverse = np.argsort(perm)
                for lab, cen in ((labels, centers),
                                 (perm[labels], centers[inverse])):
                    cases.append(Clustering(
                        k=k, centers=tuple(cen.tolist()),
                        assignment=tuple(lab.tolist()), radius=float(n)))
    empty = sum(len(set(cl.assignment)) < cl.k for cl in cases)
    assert empty and any(cl.k == cl.n for cl in cases)
    for cl in cases:
        assert cl.canonical_partition() == _reference_canonical_partition(cl)
        assert clustering_to_dict(cl) == _reference_clustering_to_dict(cl)
