"""Seeded instance factories with planted ground truth and explicit constructions.

Planted guarantees are enforced constructively and re-checked at build
time; a generator never returns an instance whose guarantee it could not
verify.  All distances land on the coarse grid (multiples of 2^-20) so
downstream comparisons are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import floyd_warshall

from .core import (ASYMMETRIC, SYMMETRIC, Clustering, Instance, snap_up,
                   validate_instance, voronoi_partition)
from .analysis import check_structure
from .oracle import brute_force_optimal


SKEW_ATTEMPTS = 50  # gen_planted_asymmetric's draws before giving up
MAX_POINTS = 2_000  # the largest table any generator builds (32 MB)


class InfeasibleParams(ValueError):
    pass


class RejectionBudgetExceeded(RuntimeError):
    pass


class ConstructionCheckFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Guarantee:
    family: str
    seed: int = None
    alpha: float = None
    epsilon: float = None
    skew: float = None
    r: float = None
    separation: float = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PlantedInstance:
    instance: Instance
    truth: Clustering
    guarantee: Guarantee


def _planted_coords(n, k, r, separation, rng):
    """Cluster-block coordinates: centers on a line, members in 0.9r disks;
    the first n % k blocks hold one point more."""
    coords = []
    centers_idx = []
    base, extra = divmod(n, k)
    for i in range(k):
        cx, cy = i * separation, 0.0
        centers_idx.append(len(coords))
        coords.append((cx, cy))
        for _ in range(base + (1 if i < extra else 0) - 1):
            rad = 0.9 * r * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            coords.append((cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
    return np.asarray(coords), centers_idx


def _require_points(n):
    """Refuse a table of more than MAX_POINTS points before it is built."""
    if n > MAX_POINTS:
        raise InfeasibleParams(f"n={n} exceeds {MAX_POINTS} points")


def _euclidean(coords):
    """Grid-snapped Euclidean distance table of 2-d points.  Coordinates too
    far apart give inf or nan entries silently; callers refuse those."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = coords[:, None, :] - coords[None, :, :]
        d = snap_up(np.sqrt((diff ** 2).sum(axis=-1)))
    np.fill_diagonal(d, 0.0)
    return d


def _min_cross_distance(d, assignment):
    a = np.asarray(assignment)
    mask = a[:, None] != a[None, :]
    return float(d[mask].min()) if mask.any() else math.inf


def _planted(n, k, r, alpha, seed, scale):
    """Unvalidated planted table, its truth and the truth's smallest cross
    distance.  The truth is the Voronoi partition of the block centers: a
    member nearer another block's center would leave a cross pair within
    0.9r + GRID, which the separation check below rejects."""
    if not (n >= k >= 1 and 0 < r < math.inf and 1 <= alpha < math.inf):
        raise InfeasibleParams(f"bad params n={n} k={k} r={r} alpha={alpha}")
    _require_points(n)
    rng = np.random.default_rng(seed)
    separation = (2 * alpha * r + 2 * r) * 1.25 * scale
    coords, centers_idx = _planted_coords(n, k, r, separation, rng)
    d = _euclidean(coords)
    truth = voronoi_partition(d, centers_idx)
    min_cross = _min_cross_distance(d, truth.assignment)
    if truth.radius > r or (k > 1 and not min_cross > 2 * alpha * r * scale):
        raise InfeasibleParams("separation guarantee failed at construction")
    return d, truth, min_cross


def gen_planted_symmetric(n, k, r, alpha, seed) -> PlantedInstance:
    """Planted Euclidean clusters with cross separation > 2*alpha*r.

    Mixing two planted clusters then costs more than alpha*r while the
    planted centers cost at most r, so the planted partition is the unique
    optimum under every alpha-perturbation: the instance is alpha-PR by
    construction.  The guarantee is re-checked before returning.
    """
    d, truth, min_cross = _planted(n, k, r, alpha, seed, 1.0)
    return PlantedInstance(instance=validate_instance(d, SYMMETRIC),
                           truth=truth,
                           guarantee=Guarantee(family="planted-sym", seed=seed,
                                               alpha=alpha, r=r,
                                               separation=min_cross))


def gen_planted_asymmetric(n, k, r, alpha, skew, seed) -> PlantedInstance:
    """Directionally skewed planted instance satisfying the ball-pruning
    algorithm's structural conditions.

    Starts from a symmetric planted table with the margin inflated by
    ``skew``, multiplies each ordered pair by an independent factor in
    [1, skew], restores the directed triangle inequality by shortest-path
    closure, then re-checks validity, that the Voronoi partition of the
    planted centers is still the planted one, and the structural
    conditions.  Up to SKEW_ATTEMPTS fresh factor draws are tried until
    all checks pass.  With skew 1 this is gen_planted_symmetric.
    """
    if not 1 <= skew < math.inf:
        raise InfeasibleParams(f"skew must be in [1, inf), got {skew}")
    if skew == 1:
        return gen_planted_symmetric(n, k, r, alpha, seed)
    table, planted, _ = _planted(n, k, r, alpha, seed, skew)
    rng = np.random.default_rng(seed)
    for _ in range(SKEW_ATTEMPTS):
        u = rng.uniform(1.0, skew, size=(n, n))
        np.fill_diagonal(u, 1.0)
        # snap before the closure: grid values are closed under addition,
        # so the closed table satisfies the triangle inequality exactly
        skewed = snap_up(table * u)
        np.fill_diagonal(skewed, 0.0)
        d = floyd_warshall(skewed)
        try:
            instance = validate_instance(d, ASYMMETRIC)
        except ValueError:
            continue
        truth = voronoi_partition(d, planted.centers)
        if truth.assignment != planted.assignment:
            continue
        report = check_structure(d, truth, r_star=truth.radius)
        if (report.property1 and report.property1_full_scope
                and report.property2 and report.a_respects_opt):
            return PlantedInstance(
                instance=instance, truth=truth,
                guarantee=Guarantee(family="planted-asym", seed=seed,
                                    alpha=alpha, skew=skew, r=r,
                                    separation=_min_cross_distance(
                                        d, truth.assignment)))
    raise RejectionBudgetExceeded(
        f"no valid skewed instance in {SKEW_ATTEMPTS} attempts (seed {seed})")


def gen_bad_center_18(alpha) -> PlantedInstance:
    """18-point asymmetric instance with exactly one bad center.

    Three planted clusters of six; the middle cluster's center can be
    undercut by any point of the two outer clusters, which sit within
    1/alpha of the whole middle cluster.  Every structural claim the
    construction relies on is asserted at build time against the checkers
    and the brute-force oracle.
    """
    if not 1 < alpha < math.inf:
        raise InfeasibleParams(f"alpha must be in (1, inf), got {alpha}")
    n, k = 18, 3
    c_x, c_y, c_z = 0, 6, 12
    xs = list(range(1, 6))
    ys = list(range(7, 12))
    zs = list(range(13, 18))
    g = float(snap_up(1.0 / alpha))
    far = float(math.ceil(alpha)) + 1.0

    d = np.full((n, n), far)
    np.fill_diagonal(d, 0.0)
    d[c_x, xs] = d[c_y, ys] = d[c_z, zs] = 1.0
    d[np.ix_(xs + zs, ys + [c_y])] = g
    d = floyd_warshall(d)
    d = snap_up(d)
    np.fill_diagonal(d, 0.0)
    instance = validate_instance(d, ASYMMETRIC)

    centers = (c_x, c_y, c_z)
    truth = voronoi_partition(d, centers)

    def require(check, msg):
        if not check:
            raise ConstructionCheckFailed(msg)

    require(truth.radius == 1.0, "planted radius must be 1")
    oracle = brute_force_optimal(d, k)
    require(oracle.optimal_radius == 1.0, "oracle radius must be 1")
    require(tuple(sorted(centers)) in oracle.optimal_center_sets,
            "planted centers must be oracle-optimal")
    require(truth.assignment == tuple([0] * 6 + [1] * 6 + [2] * 6),
            "planted partition must be the Voronoi tiling of its centers")
    report = check_structure(d, truth, r_star=1.0)
    require(report.bad_centers == (c_y,), "exactly c_y must be bad")
    # the two outer centers are forced: nothing else comes close to their clusters
    for c, members, name in ((c_x, xs, "c_x"), (c_z, zs, "c_z")):
        require(np.all(np.delete(d[:, members].max(axis=1), c) > alpha),
                f"{name} must be forced")
    # no middle point can serve its own cluster-mates (the zero diagonal
    # cannot lift a row maximum above alpha > 1)
    require(np.all(d[np.ix_(ys, ys)].max(axis=1) > alpha),
            "no y point may cover the middle cluster")
    # outer points undercut the outer centers on the middle cluster even
    # after any alpha-scaling of their own distances
    undercut = alpha * d[np.ix_(xs + zs, ys)]
    require(np.all(undercut < d[c_x, ys]), "undercut vs c_x failed")
    require(np.all(undercut < d[c_z, ys]), "undercut vs c_z failed")
    return PlantedInstance(instance=instance, truth=truth,
                           guarantee=Guarantee(family="bad-center-18",
                                               alpha=alpha, epsilon=1.0 / 18,
                                               r=1.0))


def gen_from_dominating_set(n_vertices, edges) -> Instance:
    """Graph metric with d = 1 on edges and 2 otherwise.

    The optimal k-center cost is 1 iff the graph has a dominating set of
    size k; with only distances 1 and 2 the triangle inequality is
    automatic.
    """
    _require_points(n_vertices)
    d = np.full((n_vertices, n_vertices), 2.0)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        if u == v:
            continue
        d[u, v] = d[v, u] = 1.0
    return validate_instance(d, SYMMETRIC)


def gen_eps_padding(base: Instance, k, alpha, epsilon) -> PlantedInstance:
    """Pad a symmetric instance with ceil(n/epsilon) isolated points.

    Each pad point sits at distance alpha*(D+1) from everything (D = base
    diameter), so every good solution keeps the pads as singletons and the
    base keeps a radius-r k-solution iff the padded instance keeps a
    radius-r (k + N)-solution for r < D.  The planted truth is the Voronoi
    partition of the base oracle optimum's centers plus the pads: the base
    optimum plus pad singletons, as alpha >= 1 puts every pad farther from
    each base point than the diameter.

    epsilon must lie in (0, 1], so there are at least n pads.  The padded
    table holds at most MAX_POINTS points: a larger n + ceil(n/epsilon)
    raises InfeasibleParams before anything is allocated, and the base
    oracle runs before the table is built.
    """
    if not base.is_symmetric:
        raise InfeasibleParams("base must be symmetric")
    if not 0 < epsilon <= 1:
        raise InfeasibleParams(f"epsilon must be in (0, 1], got {epsilon}")
    if not 1 <= alpha < math.inf:
        raise InfeasibleParams(f"alpha must be in [1, inf), got {alpha}")
    n = base.n
    if n / epsilon > MAX_POINTS - n:  # n + ceil(n/epsilon) too large
        raise InfeasibleParams(f"n + ceil(n/epsilon) exceeds {MAX_POINTS}"
                               f" points (n={n}, epsilon={epsilon})")
    opt = brute_force_optimal(base.dist, k)
    base_cl = opt.clustering(base.dist)
    diameter = float(base.dist.max())
    pad_dist = alpha * (diameter + 1.0)
    n_pad = math.ceil(n / epsilon)
    total = n + n_pad
    d = np.full((total, total), pad_dist)
    d[:n, :n] = base.dist
    np.fill_diagonal(d, 0.0)
    instance = validate_instance(d, SYMMETRIC)
    k_prime = k + n_pad
    truth = voronoi_partition(d, tuple(base_cl.centers)
                              + tuple(range(n, total)))
    return PlantedInstance(instance=instance, truth=truth,
                           guarantee=Guarantee(family="eps-padding",
                                               alpha=alpha, epsilon=epsilon,
                                               extras={"k_prime": k_prime,
                                                       "n_pad": n_pad,
                                                       "base_n": n,
                                                       "pad_distance": pad_dist}))


def gen_random_metric(n, mode, seed) -> Instance:
    """Background test material: seeded random valid instances.

    Symmetric: uniform points in the unit square, grid-snapped Euclidean
    distances.  Asymmetric: random ordered weights repaired into a directed
    metric by shortest-path closure.
    """
    if n < 1:
        raise InfeasibleParams("n must be >= 1")
    _require_points(n)
    rng = np.random.default_rng(seed)
    if mode == SYMMETRIC:
        return validate_instance(
            _euclidean(rng.uniform(0.0, 1.0, size=(n, 2))), SYMMETRIC)
    if mode == ASYMMETRIC:
        d = snap_up(rng.uniform(0.5, 2.0, size=(n, n)))
        np.fill_diagonal(d, 0.0)
        d = floyd_warshall(d)
        return validate_instance(d, ASYMMETRIC)
    raise InfeasibleParams(f"unknown mode {mode!r}")


# Small named graphs for the dominating-set generator's CLI surface.
def named_graph(name):
    """star5, path4, cycle6, complete4, empty3 style names -> (n, edges)."""
    for prefix in ("star", "path", "cycle", "complete", "empty"):
        if name.startswith(prefix):
            n = int(name[len(prefix):])
            if n < 1:
                break
            _require_points(n)  # before the edge list
            if prefix == "star":
                return n, [(0, i) for i in range(1, n)]
            if prefix == "path":
                return n, [(i, i + 1) for i in range(n - 1)]
            if prefix == "cycle":
                return n, [(i, (i + 1) % n) for i in range(n)]
            if prefix == "complete":
                return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
            if prefix == "empty":
                return n, []
    raise InfeasibleParams(f"unknown graph name {name!r}")
