"""Core data model: instances, clusterings, balls, components, closeness.

Distances are stored as dense n x n tables where ``dist[p][q]`` is the
distance *from* p *to* q.  All operations are pure and deterministic; every
tie is broken toward the smallest point index.
"""

from __future__ import annotations

import bisect
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import (connected_components, floyd_warshall,
                                  min_weight_full_bipartite_matching)

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"

# Generators emit distances on this grid so exact float comparison is safe.
GRID = 2.0 ** -20

# Most cells one vectorised scan holds at once: validate_instance's triangle
# blocks and brute_force_optimal's subset chunks stay under it.
SCAN_CELLS = 1 << 16


def snap_up(values):
    """Round distances up to the next multiple of the coarse grid.

    Rounding up preserves the (directed) triangle inequality: if a <= b + c
    then ceil(a) <= ceil(b) + ceil(c) because the grid is closed under
    addition.
    """
    return np.ceil(np.asarray(values, dtype=float) / GRID) * GRID


class InstanceViolation(ValueError):
    """A distance table failed validation; carries the first violation found."""


class NegativeDistance(InstanceViolation):
    def __init__(self, p, q, value):
        self.p, self.q, self.value = p, q, value
        super().__init__(f"dist[{p}][{q}] = {value} is negative")


class NonzeroDiagonal(InstanceViolation):
    def __init__(self, p, value):
        self.p, self.value = p, value
        super().__init__(f"dist[{p}][{p}] = {value} must be 0")


class SymmetryViolation(InstanceViolation):
    def __init__(self, p, q):
        self.p, self.q = p, q
        super().__init__(f"dist[{p}][{q}] != dist[{q}][{p}]")


class TriangleViolation(InstanceViolation):
    def __init__(self, p, s, q):
        self.p, self.s, self.q = p, s, q
        super().__init__(f"dist[{p}][{q}] > dist[{p}][{s}] + dist[{s}][{q}]")


class MismatchedK(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Instance:
    mode: str
    dist: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", _frozen_table(d, self.dist))

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return self.mode == SYMMETRIC


@dataclass(frozen=True)
class StabilityParams:
    alpha: float
    epsilon: float

    def __post_init__(self):
        if not 1 <= self.alpha < np.inf:  # alpha * 0 must stay 0
            raise ValueError(f"alpha must be finite and >= 1, got {self.alpha}")
        _require_epsilon(self.epsilon)


@dataclass(frozen=True)
class Clustering:
    """A partition into k labeled clusters, one designated center each.

    ``assignment[p]`` is the cluster index of point p, ``centers[i]`` the
    center of cluster i.
    """

    k: int
    centers: tuple
    assignment: tuple
    radius: float

    @property
    def n(self) -> int:
        return len(self.assignment)

    def clusters(self):
        """Members of each cluster, index-sorted, in label order."""
        out = [[] for _ in range(self.k)]
        for p, i in enumerate(self.assignment):
            out[i].append(p)
        return out

    def canonical_partition(self):
        """Label-free view: ``label_groups`` of the assignment, as tuples."""
        return tuple(map(tuple, label_groups(np.asarray(self.assignment))))


def _as_table(instance) -> np.ndarray:
    """An Instance's table, or a raw table as floats; refuses non-square."""
    if isinstance(instance, Instance):
        return instance.dist
    d = np.asarray(instance, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"table must be square, got shape {d.shape}")
    return d


def _frozen_table(table, source):
    """``table``, a conversion of the caller's ``source``, made read-only.

    When it is still a writeable ``source`` array's own memory it is
    copied first, so the caller may go on writing its array and the
    holder never sees it; a fresh conversion or a read-only array is
    frozen as it is.
    """
    if (isinstance(source, np.ndarray) and source.flags.writeable
            and np.may_share_memory(table, source)):
        table = table.copy()
    table.flags.writeable = False
    return table


def _require_k(k, n):
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _require_epsilon(epsilon):
    if not (isinstance(epsilon, numbers.Real) and 0 <= epsilon <= 1):  # NaN too
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")


def _require_non_negative(name, value):
    if not isinstance(value, numbers.Real):  # None too
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not value >= 0:  # NaN fails too
        raise ValueError(f"{name} must be >= 0, got {value}")


def _center_ids(centers):
    """Center ids as Python ints by operator.index: numpy integers pass,
    and an id such as 0.7, which int() would truncate, is refused."""
    try:
        return tuple(map(operator.index, centers))
    except TypeError:
        raise ValueError(f"center ids must be integers, got {centers!r}")


def validate_instance(raw_table, mode: str, slack: float = 0.0) -> Instance:
    """Check the four table invariants and build an Instance.

    Raises the subclass of InstanceViolation naming the first violating
    pair/triple in row-major scan order.  ``slack`` loosens symmetry and
    triangle comparisons for externally supplied data (default exact).
    Symmetry is compared in the triangle scan's row blocks, and not at all
    when the table equals its transpose exactly.  The C-contiguous float
    table that the Instance keeps is made once, at entry, and scanned.
    When that is the caller's own writeable array, it is copied after the
    scan, so the caller may go on writing it.

    The triangle scan takes O(n^3) time in blocks of p rows, each at most
    ``SCAN_CELLS`` cells (one row when n^2 is larger), so memory stays
    O(n^2) beside the table: any n that fits in memory can be read.  Each
    block compares d(p,q) with the shortest two-hop path
    min_s (d(p,s) + d(s,q)) + slack, which is exact: rounding x + slack is
    monotone in x, so some s violates exactly when the minimum does.  When
    the table equals its transpose exactly, a violation (p,s,q) mirrors to
    (q,s,p), so the first violating row holds one with q >= p, and a block
    scans only the columns from its first row on, reading d(s,q) as the
    contiguous row d(q,s).  The first violating row is then rescanned
    whole for its first (s, q).

    Any other table at slack 0 with n^2 over ``SCAN_CELLS`` passes
    without a scan when its Floyd-Warshall closure equals it (Floyd 1962).
    That is exact: the closure changes an entry only when
    fl(d(i,k) + d(k,j)) < d(i,j), the scan's predicate, first on original
    values, and a sum that overflows changes nothing.  On a mismatch the
    scan runs and names the violation.  The scan also takes smaller
    tables, where scipy's input conversion costs more than it, tables
    with an off-diagonal zero, which scipy reads as "no edge", so that
    their closure never matches, and slack > 0, which a failed closure
    does not decide.
    """
    d = np.ascontiguousarray(_as_table(raw_table))
    if not d.size:
        raise ValueError("table must hold at least one point")
    if not np.all(np.isfinite(d)):
        raise ValueError("table entries must be finite")
    if mode not in (SYMMETRIC, ASYMMETRIC):
        raise ValueError(f"unknown mode {mode!r}")
    # slack >= 0: an exactly symmetric table then needs no compare
    _require_non_negative("slack", slack)
    # rows in order; within a row the diagonal is checked before the signs
    diag = d.diagonal() != 0.0
    negative = d < 0.0
    bad = np.flatnonzero(diag | negative.any(axis=1))
    if bad.size:
        p = int(bad[0])
        if diag[p]:
            raise NonzeroDiagonal(p, d[p, p])
        q = int(negative[p].argmax())
        raise NegativeDistance(p, q, d[p, q])
    n = d.shape[0]
    rows = max(1, SCAN_CELLS // (n * n))
    mirrored = np.array_equal(d, d.T)
    if mode == SYMMETRIC and not mirrored:
        for start in range(0, n, rows):
            blk = d[start:start + rows] - d[:, start:start + rows].T
            bad = np.argwhere(np.abs(blk) > slack)
            if bad.size:
                p, q = bad[0]
                raise SymmetryViolation(start + int(p), int(q))
    if (not mirrored and slack == 0 and n * n > SCAN_CELLS
            and np.count_nonzero(d) == n * (n - 1)
            and np.array_equal(floyd_warshall(d), d)):
        return Instance(mode=mode, dist=_frozen_table(d, raw_table))
    # a sum that overflows to +inf exceeds every finite d(p,q): exact
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            blk = d[start:start + rows]
            lo = start if mirrored else 0
            if mirrored:  # d(s,q) = d(q,s): reduce along contiguous rows
                two_hop = (blk[:, None, :] + d[None, lo:]).min(axis=2)
            else:
                two_hop = (blk[:, :, None] + d[None]).min(axis=1)
            hit = (blk[:, lo:] > two_hop + slack).any(axis=1)
            if hit.any():
                p = start + int(hit.argmax())
                # viol[s, q] <=> d(p,q) > d(p,s) + d(s,q), scanned row-major
                viol = d[p] > (d[p][:, None] + d) + slack
                s, q = np.argwhere(viol)[0]
                raise TriangleViolation(p, int(s), int(q))
    return Instance(mode=mode, dist=_frozen_table(d, raw_table))


def cost(instance, centers: Iterable[int]) -> float:
    """k-center objective: max over points of distance from nearest center."""
    centers = sorted(set(_center_ids(centers)))
    if not centers:
        raise ValueError("centers must be nonempty")
    d = _as_table(instance)
    if centers[0] < 0 or centers[-1] >= len(d):
        raise ValueError(f"centers must be in 0..{len(d) - 1}, "
                         f"got {centers[0]}..{centers[-1]}")
    return float(d[centers].min(axis=0).max())


def set_costs(cols, subsets):
    """k-center cost under each row of ``subsets`` (center sets) on tables
    given by columns, ``cols[..., p, c] = d[..., c, p]``: the largest
    distance from a point's closest center to the point, one row of costs
    per table of a stack.  One take per center slot folds into a running
    minimum: both reductions run across rows, in two (B, n, m) arrays."""
    best = np.take(cols, subsets[:, 0], axis=-1)
    for slot in subsets.T[1:]:
        np.minimum(best, np.take(cols, slot, axis=-1), out=best)
    return best.max(axis=-2)


def voronoi_labels(rows, subsets):
    """Voronoi labels of each row of ``subsets`` (ascending center sets) from
    its center rows ``rows[i]`` (``d[subsets]`` for one table d): the position
    of each point's closest center (distance center -> point), the smallest
    center index on ties, except that a center always gets its own position,
    also when two centers coincide.  The package's one Voronoi tie rule."""
    lab = rows.argmin(axis=1)  # first occurrence = smallest
    lab[np.arange(len(subsets))[:, None], subsets] = np.arange(subsets.shape[1])
    return lab


def voronoi_partition(instance, centers: Sequence[int]) -> Clustering:
    """Assign each point to its closest center under ``voronoi_labels``'
    tie rule, so no cluster is empty."""
    d = _as_table(instance)
    centers = _center_ids(centers)
    if len(set(centers)) != len(centers):
        raise ValueError("centers must be distinct")
    radius = cost(d, centers)  # refuses centers outside 0..n-1
    order = np.argsort(centers, kind="stable")  # smallest center index first
    ascending = np.asarray(centers)[order][None]
    pos = voronoi_labels(d[ascending], ascending)[0]
    return Clustering(k=len(centers), centers=centers,
                      assignment=tuple(order[pos].tolist()), radius=radius)


def epsilon_distance(a: Clustering, b: Clustering) -> float:
    """Fraction of points clustered differently under the best label matching.

    Equals (1/n) min over bijections sigma of sum_i |A_i \\ B_sigma(i)|,
    that is 1 - (1/n) max_sigma sum_i overlap[i, sigma(i)] on the k x k
    overlap matrix, found as a minimum-weight full bipartite matching
    (scipy's csgraph) of the costs n + 1 - overlap.  That is exact: every
    cost is at least 1, so none is read as "no edge", and the costs and
    their sums are integers below 2^53, which floating point adds exactly.
    """
    if a.k != b.k:
        raise MismatchedK(f"k mismatch: {a.k} vs {b.k}")
    if a.n != b.n:
        raise ValueError(f"point count mismatch: {a.n} vs {b.n}")
    n, k = a.n, a.k
    overlap = np.bincount(np.asarray(a.assignment) * k + b.assignment,
                          minlength=k * k)
    # every row holds all k columns; built from its parts, the CSR array
    # skips scipy's conversion of a dense input
    indices = np.tile(np.arange(k, dtype=np.int32), k)
    indptr = np.arange(0, k * k + 1, k, dtype=np.int32)
    rows, cols = min_weight_full_bipartite_matching(
        csr_array((n + 1.0 - overlap, indices, indptr), shape=(k, k)))
    matched = overlap[rows * k + cols].sum()
    return (n - int(matched)) / n


def ball(instance, center: int, radius: float, domain=None):
    """Points of ``domain`` within ``radius`` of ``center`` (outgoing)."""
    _require_non_negative("radius", radius)
    d = _as_table(instance)
    if domain is None:
        domain = range(d.shape[0])
    return tuple(q for q in sorted(domain) if d[center, q] <= radius)


def label_groups(labels):
    """Points grouped by label: index-sorted lists, ordered by smallest member."""
    groups = {}
    for p, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, []).append(p)
    return sorted(groups.values())


def components(adj):
    """Connected components of a boolean adjacency matrix, an entry either
    way joining its pair (its weak components).

    Returned as index-sorted lists ordered by smallest member; the diagonal
    is ignored.  The graph goes to scipy as CSR built from the mask's
    nonzeros, which skips scipy's conversion of a dense input.
    """
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(adj, axis=1), out=indptr[1:])
    cols = np.nonzero(adj)[1].astype(np.int32)
    graph = csr_array((np.ones(cols.size), cols, indptr), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="weak")
    return label_groups(labels)


def threshold_components(instance, threshold: float = 0.0):
    """Connected components of the threshold graph, sorted by smallest member.

    Two points are joined when they are within ``threshold`` of each other
    in both directions.
    """
    _require_non_negative("threshold", threshold)
    d = _as_table(instance)
    return components((d <= threshold) & (d.T <= threshold))


def symmetrized_set(instance, r_star: float):
    """A = {p | for all q: d(q,p) <= r* implies d(p,q) <= r*}, as an
    attachment array; None when A is empty.

    ``nearest[p]`` is p for p in A, so A is ``nearest == arange(n)``; for p
    outside A it is A(p), its closest A-point under ``voronoi_labels``' tie
    rule (incoming distance, smallest index on ties).
    """
    _require_non_negative("r_star", r_star)
    d = _as_table(instance)
    a_idx = np.flatnonzero(_symmetrized_masks(d, [r_star])[0][0])
    if not a_idx.size:
        return None
    return a_idx[voronoi_labels(d[a_idx][None], a_idx[None])[0]]


def _symmetrized_masks(d, radii):
    """Membership masks of A at each of ``radii``, shape (B, n), and the
    (B, n, n) masks d <= r they come from: p leaves A at r iff some q has
    d(q,p) <= r but d(p,q) > r."""
    r = np.asarray(radii, dtype=float)[:, None, None]
    within = d <= r
    return ~(within.transpose(0, 2, 1) & (d > r)).any(axis=2), within


def _traverse(row, count):
    """Farthest-first from point 0 under row(p), p's value to each point:
    count picks, each farthest from the picks so far (smallest index on
    ties), and each pick's gap, that least value (inf for point 0)."""
    picks, gaps, gap = [0], [np.inf], np.inf
    while len(picks) < count:
        gap = np.minimum(gap, row(picks[-1]))
        gap[picks[-1]] = -np.inf  # a pick is never picked again
        picks.append(int(gap.argmax()))
        gaps.append(float(gap[picks[-1]]))
    return picks, gaps


def _gallop(pred, lo, hi):
    """The first i in [lo, hi) with pred(i), else hi, for a pred that is
    False and then True: probes lo, lo + 1, lo + 3, lo + 7, ... and
    bisects the last step."""
    below, step = lo - 1, 1
    while lo < hi and not pred(lo):
        below, lo, step = lo, min(lo + step, hi), 2 * step
    return bisect.bisect_left(range(hi), True, lo=below + 1, hi=lo, key=pred)
