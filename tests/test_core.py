"""Instance model, validation, costs, partitions, closeness, components."""

import ast
import collections
import itertools
import math
import re

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components, floyd_warshall

from kcenter_resilience import (
    GRID,
    Clustering,
    Instance,
    InstanceViolation,
    MismatchedK,
    NegativeDistance,
    NonzeroDiagonal,
    Perturbation,
    SymmetryViolation,
    TriangleViolation,
    ball,
    components,
    cost,
    epsilon_distance,
    hochbaum_shmoys_cover,
    snap_up,
    symmetrized_set,
    threshold_components,
    validate_instance,
    voronoi_partition,
)
import kcenter_resilience as pkg
from kcenter_resilience import core, oracle
from kcenter_resilience.kci import (clustering_to_dict, emit_instance,
                                    parse_instance)
from kcenter_resilience.generators import (
    gen_bad_center_18,
    gen_from_dominating_set,
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
    named_graph,
)
from test_solvers import ASYM_TABLES, SYM_TABLES


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
    with np.errstate(over="ignore"):  # inf exceeds every finite entry
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
    table again with one entry scaled or zeroed at a random (p, q).  A
    symmetric table scaled at (p, q) and (q, p) is also checked in
    asymmetric mode, and with one more entry raised by half the slack, so
    that it is symmetric only within the slack; and each valid symmetric
    table raised at (p, q) and (q, p), within slack 1, so that only row p
    violates, with q < p."""
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
                if mode == "symmetric":
                    cases.append((bad, "asymmetric", slack))
                    skew = bad.copy()
                    skew[tuple(rng.choice(n, size=2, replace=False))] += slack / 2
                    cases.append((skew, mode, slack))
    # symmetric within slack 1, violating at (p, q) with q < p while row q
    # holds: the mirror of a violation need not be one
    for d, mode in valid:
        if mode == "symmetric":
            q, p = sorted(rng.choice(d.shape[0], size=2, replace=False))
            two_hop = np.delete(d[p] + d[:, q], [p, q]).min()
            skew = d.copy()
            skew[q, p], skew[p, q] = two_hop + 0.5, two_hop + 1.25
            cases.append((skew, mode, 1.0))
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
    # for the closure certificate: random positive tables (mostly violating)
    # and their closures (valid), tables with entries near the largest
    # double, whose two-hop sums overflow to inf, and their closures; each
    # also as an F-ordered transposed view, and with slack
    for s in range(30):
        raw = rng.integers(1, 6, size=(11, 11)) / 2.0
        huge = rng.choice([1.0, 2.0, 0.9e308, 1.7e308], size=(8, 8))
        for table in (raw, huge):
            np.fill_diagonal(table, 0.0)
            for t in (table, floyd_warshall(table)):
                cases += [(t, "asymmetric", 0.0),
                          (np.ascontiguousarray(t.T).T, "asymmetric", 0.0),
                          (t, "asymmetric", 1.0)]
    return cases


def _counted_closure(monkeypatch, closures):
    """Patch core's floyd_warshall to count closures that certify the
    table (key True) and that send it on to the scan (key False)."""
    def counted(table):
        closure = floyd_warshall(table)
        closures[np.array_equal(closure, table)] += 1
        return closure
    monkeypatch.setattr(core, "floyd_warshall", counted)


def test_validate_matches_whole_cube_reference(monkeypatch):
    cases = _validation_cases()
    mismatches = 0
    kinds = collections.Counter()
    closures = collections.Counter()
    _counted_closure(monkeypatch, closures)
    default = core.SCAN_CELLS
    for d, mode, slack in cases:
        want = _validation_key(_reference_validate, d, mode, slack)
        n = d.shape[0]
        # default blocks, one row per block, three rows per block; only one
        # row per block opens the certificate's gate at these sizes
        for cap in (default, 1, 3 * n * n):
            monkeypatch.setattr(core, "SCAN_CELLS", cap)
            mismatches += _validation_key(validate_instance, d, mode,
                                          slack) != want
        monkeypatch.setattr(core, "SCAN_CELLS", default)
        if not np.array_equal(d, d.T):
            kinds.update(zero=int(slack == 0
                                  and np.count_nonzero(d) < n * n - n),
                         overflow=int(d.max() > 1e308),
                         f_ordered=int(not d.flags.c_contiguous))
        if want[0] == "TriangleViolation":
            hit = ast.literal_eval(want[1])
            mirrored = np.array_equal(d, d.T)
            kinds.update(triangles=1,
                         offset_rows=hit["p"] > 0,  # first hit past row 0
                         back_witness=hit["q"] < hit["p"],  # found by the rescan
                         # half the columns scanned outside symmetric mode
                         mirrored_asym=mirrored and mode == "asymmetric",
                         # every column scanned in symmetric mode
                         within_slack=not mirrored and mode == "symmetric")
    assert len(cases) > 500 and mismatches == 0
    assert kinds["triangles"] > 1000 and kinds["offset_rows"] > 500
    assert kinds["back_witness"] > 50
    assert kinds["mirrored_asym"] > 200 and kinds["within_slack"] > 200
    assert kinds["zero"] > 20 and kinds["overflow"] > 50
    assert kinds["f_ordered"] > 100
    assert closures[True] > 100 and closures[False] > 100


def test_validate_at_the_real_gate_matches_the_scan(monkeypatch):
    # n^2 > SCAN_CELLS at n = 260: the certificate's gate opens unpatched
    d = np.array(gen_planted_asymmetric(260, 8, 1.0, 2.0, 1.2, 0).instance.dist)
    raised, zeroed = d.copy(), d.copy()
    raised[130, 7] = 3 * d.max()  # above every two-hop path
    zeroed[40, 200] = 0.0
    closures = collections.Counter()
    _counted_closure(monkeypatch, closures)
    got = [_validation_key(validate_instance, t, "asymmetric", 0.0)
           for t in (d, raised, zeroed)]
    assert closures == {True: 1, False: 1}  # the zero closes the gate
    monkeypatch.setattr(core, "SCAN_CELLS", d.size)  # scan only
    want = [_validation_key(validate_instance, t, "asymmetric", 0.0)
            for t in (d, raised, zeroed)]
    assert closures == {True: 1, False: 1}
    assert got == want
    assert [key[0] for key in got] == ["ok", "TriangleViolation",
                                       "TriangleViolation"]


def test_symmetry_violation_is_first_in_row_major_order(monkeypatch):
    # four blocks of three rows; asymmetric pairs inside the first, a middle
    # and the last block, alone and together, beyond and within the slack
    n, rows = 12, 3
    monkeypatch.setattr(core, "SCAN_CELLS", rows * n * n)
    blocks = (0, 1, 3)
    rng = np.random.default_rng(0)
    first_blocks = collections.Counter()
    for picked in itertools.chain.from_iterable(
            itertools.combinations(blocks, r) for r in (1, 2, 3)):
        for _ in range(10):
            d = 1.0 - np.eye(n)
            for b in picked:
                p, q = rng.choice(np.arange(b * rows, (b + 1) * rows), 2,
                                  replace=False)
                d[p, q] += rng.choice((0.1, 0.5))
            # and one pair across two blocks, within every slack
            p, q = rng.choice(n, 2, replace=False)
            d[p, q] += 0.05
            for slack in (0.0, 0.25):
                bad = np.argwhere(np.abs(d - d.T) > slack)
                if not bad.size:
                    validate_instance(d, "symmetric", slack)
                    continue
                with pytest.raises(SymmetryViolation) as exc:
                    validate_instance(d, "symmetric", slack)
                assert (exc.value.p, exc.value.q) == tuple(bad[0].tolist())
                assert all(type(v) is int for v in (exc.value.p, exc.value.q))
                first_blocks[int(bad[0][0]) // rows] += 1
    assert {0, 1, 3} <= set(first_blocks)


def test_validate_refuses_negative_or_nan_slack():
    d = 1.0 - np.eye(3)
    for slack in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="slack must be >= 0"):
            validate_instance(d, "symmetric", slack)


@pytest.mark.parametrize("value", [-1.0, float("nan")])
@pytest.mark.parametrize("guarded, message", [
    (lambda d, r: hochbaum_shmoys_cover(d, r, 2), "r must be >= 0"),
    (threshold_components, "threshold must be >= 0"),
    (symmetrized_set, "r_star must be >= 0"),
    (lambda d, r: ball(d, 0, r), "radius must be >= 0"),
    # returned not-resilient with n singleton components
    (lambda d, r: pkg.approx_stability_2eps(d, 2, r, 0.0),
     "r_star must be >= 0"),
], ids=["hochbaum_shmoys_cover", "threshold_components", "symmetrized_set",
        "ball", "approx_stability_2eps"])
def test_radius_guards_refuse_negative_or_nan(guarded, message, value):
    # a NaN radius compares false everywhere: it would cover nothing
    with pytest.raises(ValueError, match=message):
        guarded(1.0 - np.eye(3), value)


@pytest.mark.parametrize("value", [None, "1.0"])
def test_radius_guards_refuse_a_value_that_is_not_real(value):
    # None was a TypeError from the comparison, and "1.0" compared as well
    d = 1.0 - np.eye(3)
    for guarded in (lambda r: hochbaum_shmoys_cover(d, r, 2),
                    lambda r: threshold_components(d, r),
                    lambda r: symmetrized_set(d, r),
                    lambda r: validate_instance(d, "symmetric", r)):
        with pytest.raises(ValueError,
                           match=re.escape(f"must be a real number, got "
                                           f"{value!r}")):
            guarded(value)


def test_integer_inputs_take_numpy_integers():
    d = gen_random_metric(6, "symmetric", 1).dist
    assert pkg.farthest_first(d, np.int64(3)) == pkg.farthest_first(d, 3)
    assert (pkg.brute_force_optimal(d, np.int32(2)).optimal_radius
            == pkg.brute_force_optimal(d, 2).optimal_radius)
    assert cost(d, np.array([0, 4])) == cost(d, [0, 4])
    assert (voronoi_partition(d, np.array([4, 0], dtype=np.int32))
            == voronoi_partition(d, [4, 0]))


@pytest.mark.parametrize("center", [-1, 3])
def test_centers_outside_the_table_are_refused(center):
    # numpy would read -1 as row n - 1 and raise IndexError on n
    d = 1.0 - np.eye(3)
    for call in (cost, voronoi_partition):
        with pytest.raises(ValueError, match=r"centers must be in 0\.\.2"):
            call(d, [center, 1])
    assert cost(d, [0, 2]) == 1.0
    assert voronoi_partition(d, [2, 0]).centers == (2, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: validate_instance([[0, np.nan], [np.nan, 0]], "symmetric"),
     "table entries must be finite"),
    (lambda: validate_instance(1.0 - np.eye(2), "x"), "unknown mode 'x'"),
    # its KCI text "n 0" would not parse back
    (lambda: validate_instance(np.zeros((0, 0)), "asymmetric"),
     "table must hold at least one point"),
    (lambda: cost(1.0 - np.eye(2), []), "centers must be nonempty"),
    (lambda: voronoi_partition(1.0 - np.eye(3), [1, 1]),
     "centers must be distinct"),
    (lambda: epsilon_distance(_cl([0, 1], 2), _cl([0, 1, 1], 2)),
     "point count mismatch: 2 vs 3"),
    (lambda: pkg.farthest_first(1.0 - np.eye(3), 0),
     re.escape("need 1 <= k <= n, got k=0, n=3")),
    (lambda: pkg.farthest_first(1.0 - np.eye(3), 4),
     re.escape("need 1 <= k <= n, got k=4, n=3")),
    (lambda: gen_random_metric(3, "x", 0), "unknown mode 'x'"),
    # returned 3 centers, a bare TypeError, a cost and a center at point 0
    (lambda: pkg.farthest_first(1.0 - np.eye(5), 2.5),
     "k must be an integer, got 2.5"),
    (lambda: pkg.brute_force_optimal(1.0 - np.eye(5), 2.5),
     "k must be an integer, got 2.5"),
    (lambda: cost(1.0 - np.eye(5), [0.7, 4]),
     re.escape("center ids must be integers, got [0.7, 4]")),
    (lambda: voronoi_partition(1.0 - np.eye(5), [0.7, 4]),
     re.escape("center ids must be integers, got [0.7, 4]")),
    # each returned not-resilient or ended in a TypeError traceback
    *[(lambda eps=eps: pkg.approx_stability_2eps(1.0 - np.eye(3), 2, 1.0,
                                                 eps),
       re.escape(f"epsilon must be in [0,1], got {eps}"))
      for eps in (None, float("nan"), -0.1, 1.5)],
    *[(lambda eps=eps: pkg.StabilityParams(2.0, eps),
       re.escape(f"epsilon must be in [0,1], got {eps}"))
      for eps in (None, "0.5")],
], ids=["validate-nan", "validate-mode", "validate-empty",
        "cost-no-centers",
        "voronoi-repeated-center", "epsilon-distance-point-counts",
        "farthest-first-k-0", "farthest-first-k-above-n", "random-mode",
        "farthest-first-k-float", "brute-force-k-float", "cost-float-center",
        "voronoi-float-center",
        "approx-stability-epsilon-none", "approx-stability-epsilon-nan",
        "approx-stability-epsilon-negative",
        "approx-stability-epsilon-above-1", "stability-params-epsilon-none",
        "stability-params-epsilon-string"])
def test_entry_guards_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_ONE_CLUSTER = Clustering(k=1, centers=(0,), assignment=(0, 0), radius=1.0)


@pytest.mark.parametrize("call", [
    lambda d: validate_instance(d, "symmetric"),
    lambda d: cost(d, [0]),
    lambda d: voronoi_partition(d, [0]),
    lambda d: ball(d, 0, 1.0),
    lambda d: threshold_components(d, 1.0),
    lambda d: symmetrized_set(d, 1.0),
    lambda d: pkg.farthest_first(d, 1),
    lambda d: hochbaum_shmoys_cover(d, 1.0, 1),
    lambda d: pkg.symmetric_3eps(d, 1, 1.0),
    lambda d: pkg.asymmetric_2pr(d, 1, 1.0),
    lambda d: pkg.asymmetric_3eps(d, 1, 1.0),
    lambda d: pkg.weak_proximity_linkage(d, 1, lambda members: 0.0),
    lambda d: pkg.approx_stability_2eps(d, 1, 1.0, 0.0),
    lambda d: pkg.sweep_radius(d, 1, pkg.symmetric_3eps),
    lambda d: pkg.target_cost_verifier(d, 1.0),
    lambda d: pkg.brute_force_optimal(d, 1),
    lambda d: pkg.falsify_resilience(d, 1, pkg.StabilityParams(2.0, 0.0)),
    lambda d: pkg.sample_perturbation(d, 2.0, 0),
    lambda d: pkg.build_lemma1_perturbation(d, 1.0, 2.0, []),
    lambda d: pkg.check_structure(d, _ONE_CLUSTER, 1.0),
    lambda d: pkg.find_cluster_capturing_centers(d, _ONE_CLUSTER, 1.0),
    lambda d: pkg.count_bad_centers_bound_check(d, _ONE_CLUSTER, 1.0),
], ids=["validate_instance", "cost", "voronoi_partition", "ball",
        "threshold_components", "symmetrized_set", "farthest_first",
        "hochbaum_shmoys_cover", "symmetric_3eps", "asymmetric_2pr",
        "asymmetric_3eps", "weak_proximity_linkage", "approx_stability_2eps",
        "sweep_radius", "target_cost_verifier", "brute_force_optimal",
        "falsify_resilience", "sample_perturbation",
        "build_lemma1_perturbation", "check_structure",
        "find_cluster_capturing_centers", "count_bad_centers_bound_check"])
def test_every_entry_refuses_a_non_square_raw_table(call):
    with pytest.raises(ValueError,
                       match=re.escape("table must be square, got shape "
                                       "(2, 3)")):
        call(np.zeros((2, 3)))


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


def _definition_cost(d, centers):
    """max over points p of min over centers c of d[c, p], NaN when an entry
    it reads is NaN (numpy's min and max propagate NaN)."""
    reads = [[float(d[c, p]) for c in centers] for p in range(len(d))]
    if any(math.isnan(x) for row in reads for x in row):
        return math.nan
    return max(min(row) for row in reads)


def _tie_tables(rng, n):
    """Raw tables with integer ties, with signed zeros and with NaN."""
    ties = rng.integers(0, 3, size=(n, n)).astype(float)
    signed = np.where(ties == 0, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0),
                      ties)
    holes = np.where(rng.random((n, n)) < 0.05, np.nan, ties)
    return [ties, signed, holes]


@pytest.mark.parametrize("batch", [1, 3])
def test_set_costs_matches_the_definition(batch):
    # set_costs reads tables by columns, cols[b, p, c] = d_b[c, p]; every
    # k-set of every table, scored at once and a few sets at a time
    rng = np.random.default_rng(batch)
    checked = 0
    for n in (1, 2, 5, 8):
        tables = _tie_tables(rng, n)
        stacks = ([np.stack(tables)] if batch == 3
                  else [t[None] for t in tables])
        for stack in stacks:
            cols = np.ascontiguousarray(stack.transpose(0, 2, 1))
            for k in range(1, n + 1):
                sets = np.array(list(itertools.combinations(range(n), k)),
                                dtype=np.intp)
                want = [[_definition_cost(d, s) for s in sets] for d in stack]
                for chunk in (len(sets), 1, 3):
                    got = np.concatenate(
                        [core.set_costs(cols, sets[i:i + chunk])
                         for i in range(0, len(sets), chunk)], axis=1)
                    assert np.array_equal(got, want, equal_nan=True)
                    checked += 1
    assert checked == 3 * (3 // batch) * (1 + 2 + 5 + 8)


def test_cost_keeps_the_bytes_of_the_one_set_stack():
    # the one-set stack cost once scored is the reference: same reductions
    # in the same order, so the same double, signed zero and NaN included
    rng = np.random.default_rng(6)
    for n in (1, 4, 7):
        for d in _tie_tables(rng, n) + [rng.random((n, n))]:
            for k in range(1, n + 1):
                for s in itertools.combinations(range(n), k):
                    want = d[..., np.array([s]), :].min(axis=-2).max(axis=-1)[0]
                    assert (np.float64(cost(d, s)).tobytes()
                            == np.float64(want).tobytes())


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
    clusters_a = list(map(set, a.clusters()))
    clusters_b = list(map(set, b.clusters()))
    best = n
    for perm in itertools.permutations(range(b.k)):
        moved = sum(len(clusters_a[i] - clusters_b[perm[i]])
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


def _epsilon_by_assignment(a, b):
    """Reference: scipy's optimal assignment on the overlap matrix."""
    from scipy.optimize import linear_sum_assignment
    k = a.k
    overlap = np.zeros((k, k), dtype=int)
    np.add.at(overlap, (list(a.assignment), list(b.assignment)), 1)
    rows, cols = linear_sum_assignment(-overlap)
    return (a.n - int(overlap[rows, cols].sum())) / a.n


def _epsilon_cases(rng):
    """(a, b) pairs at k = 1..40: random clusterings, many with empty
    clusters, and each one against itself and a relabelling of itself."""
    cases = [(_cl([0, 0, 1, 1, 0], 3), _cl([2, 0, 1, 1, 0], 3))]  # empty
    for k in range(1, 41):
        for _ in range(8 if k <= 7 else 2):
            n = int(rng.integers(1, 4 * k + 3))
            a, b = (_cl(rng.integers(0, k, size=n).tolist(), k)
                    for _ in range(2))
            relabel = rng.permutation(k)
            moved = _cl(relabel[list(a.assignment)].tolist(), k)
            cases += [(a, b), (b, a), (a, a), (a, moved)]
    return cases


def test_epsilon_distance_matches_bijections_and_assignment(monkeypatch):
    calls = []
    match = core.min_weight_full_bipartite_matching

    def counted(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr(core, "min_weight_full_bipartite_matching", counted)
    cases = _epsilon_cases(np.random.default_rng(3))
    for a, b in cases:
        calls.clear()
        got = epsilon_distance(a, b)
        assert len(calls) == 1  # one matching at every k
        assert got == _epsilon_by_assignment(a, b)
        if a.k <= 7:
            assert got == _epsilon_by_permutations(a, b)
        if a.canonical_partition() == b.canonical_partition():
            assert got == 0.0
    assert cases[0][0].clusters()[2] == []


def test_tables_are_copied_only_from_writeable_caller_arrays():
    d = 1.0 - np.eye(3)
    inst = validate_instance(d, "symmetric")
    d[0, 1] = 2  # the caller's array stays writeable
    assert inst.dist[0, 1] == 1.0 and not inst.dist.flags.writeable
    rows = np.concatenate([1.0 - np.eye(3)] * 2)
    view = validate_instance(rows[:3], "symmetric")  # a view of the caller's
    rows[0, 1] = 2
    assert view.dist[0, 1] == 1.0
    direct = Instance("symmetric", d)
    d[0, 1] = 3
    assert direct.dist[0, 1] == 2.0
    dprime = 2.0 * inst.dist
    pert = Perturbation(base=inst.dist, alpha=2.0, dprime=dprime)
    dprime[0, 1] = 1.5
    assert pert.dprime[0, 1] == 2.0 and not pert.dprime.flags.writeable
    # a read-only table is held as it is, and a fresh conversion is frozen
    assert validate_instance(inst, "symmetric").dist is inst.dist
    assert Instance("symmetric", inst.dist).dist is inst.dist
    assert Perturbation(inst.dist, 2.0, pert.dprime).dprime is pert.dprime
    listed = validate_instance([[0, 1], [1, 0]], "symmetric").dist
    assert listed.flags.owndata and not listed.flags.writeable


def test_fresh_package_tables_are_handed_over_read_only(monkeypatch):
    # parse_instance, the perturbation builders and the generators own the
    # array they hand over, so _frozen_table holds it as it is, uncopied
    text = emit_instance(gen_planted_symmetric(12, 3, 1.0, 2.0, 7).instance)
    inst = parse_instance(text)
    diameter = float(inst.dist.max())
    seen = []
    frozen = core._frozen_table

    def spy(table, source):
        held = frozen(table, source)
        seen.append(isinstance(source, np.ndarray) and held is source
                    and not source.flags.writeable)
        return held

    monkeypatch.setattr(core, "_frozen_table", spy)
    monkeypatch.setattr(oracle, "_frozen_table", spy)
    for build in (lambda: parse_instance(text),
                  lambda: pkg.sample_perturbation(inst, 2.0, 0),
                  lambda: pkg.build_lemma1_perturbation(inst, diameter, 2.0,
                                                        [(0, 1), (1, 0)]),
                  lambda: gen_planted_symmetric(12, 3, 1.0, 2.0, 7),
                  lambda: gen_planted_asymmetric(12, 3, 1.0, 2.0, 1.5, 7),
                  lambda: gen_bad_center_18(2.0),
                  lambda: gen_from_dominating_set(*named_graph("cycle6")),
                  lambda: pkg.gen_eps_padding(inst, 3, 2.0, 1.0),
                  lambda: gen_random_metric(9, "symmetric", 7),
                  lambda: gen_random_metric(9, "asymmetric", 7)):
        seen.clear()
        build()
        assert seen and all(seen)


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


def _components_dense(adj):
    """Reference: scipy's connected components of the dense mask, read as
    undirected, the call components made before it built its CSR graph."""
    _, labels = connected_components(adj, directed=False)
    return core.label_groups(labels)


def test_components_matches_the_dense_scipy_call():
    rng = np.random.default_rng(11)
    masks = []
    for n in range(1, 41):
        for density in (0.0, 1.0 / n, 3.0 / n, 0.3):
            one_way = rng.random((n, n)) < density
            masks += [one_way, one_way | one_way.T]
    # the threshold graphs of the solver tests' tables at each distance,
    # both ways and (asymmetric) one way
    for d in SYM_TABLES + ASYM_TABLES:
        for t in np.unique(d):
            masks += [(d <= t) & (d.T <= t), d <= t]
    assert sum(not np.array_equal(m, m.T) for m in masks) > 200
    for adj in masks:
        assert components(adj) == _components_dense(adj)


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
