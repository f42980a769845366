"""Core data model: instances, clusterings, balls, components, closeness.

Distances are stored as dense n x n tables where ``dist[p][q]`` is the
distance *from* p *to* q.  All operations are pure and deterministic; every
tie is broken toward the smallest point index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

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
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)

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
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0,1], got {self.epsilon}")


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
    if isinstance(instance, Instance):
        return instance.dist
    return np.asarray(instance, dtype=float)


def validate_instance(raw_table, mode: str, slack: float = 0.0) -> Instance:
    """Check the four table invariants and build an Instance.

    Raises the subclass of InstanceViolation naming the first violating
    pair/triple in row-major scan order.  ``slack`` loosens symmetry and
    triangle comparisons for externally supplied data (default exact).

    The triangle check takes O(n^3) time in blocks of p rows, each at most
    ``SCAN_CELLS`` cells (one row when n^2 is larger), so memory stays
    O(n^2) beside the table: any n that fits in memory can be read.
    """
    d = np.asarray(raw_table, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"table must be square, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("table entries must be finite")
    if mode not in (SYMMETRIC, ASYMMETRIC):
        raise ValueError(f"unknown mode {mode!r}")
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
    if mode == SYMMETRIC:
        bad = np.argwhere(np.abs(d - d.T) > slack)
        if bad.size:
            p, q = bad[0]
            raise SymmetryViolation(int(p), int(q))
    n = d.shape[0]
    rows = max(1, SCAN_CELLS // max(1, n * n))
    for start in range(0, n, rows):
        blk = d[start:start + rows]
        # viol[p, s, q] <=> d(p,q) > d(p,s) + d(s,q); argwhere scans row-major;
        # a sum that overflows to +inf exceeds every finite d(p,q): exact
        with np.errstate(over="ignore"):
            viol = blk[:, None, :] > (blk[:, :, None] + d[None, :, :]) + slack
        if viol.any():
            p, s, q = np.argwhere(viol)[0]
            raise TriangleViolation(start + int(p), int(s), int(q))
    return Instance(mode=mode, dist=d)


def cost(instance, centers: Iterable[int]) -> float:
    """k-center objective: max over points of distance from nearest center."""
    centers = sorted(set(int(c) for c in centers))
    if not centers:
        raise ValueError("centers must be nonempty")
    return float(set_costs(_as_table(instance), np.array([centers]))[0])


def set_costs(d, subsets):
    """k-center cost under each row of ``subsets`` (center sets): the
    largest distance from a point's closest center to the point."""
    return d[subsets].min(axis=1).max(axis=1)


def voronoi_labels(d, subsets):
    """Voronoi labels under each row of ``subsets`` (ascending center sets):
    the position of each point's closest center (distance center -> point),
    the smallest center index on ties, except that a center always gets its
    own position, also when two centers coincide."""
    lab = d[subsets].argmin(axis=1)  # first occurrence = smallest index
    lab[np.arange(len(subsets))[:, None], subsets] = np.arange(subsets.shape[1])
    return lab


def voronoi_partition(instance, centers: Sequence[int]) -> Clustering:
    """Assign each point to its closest center under ``voronoi_labels``'
    tie rule, so no cluster is empty."""
    d = _as_table(instance)
    centers = tuple(int(c) for c in centers)
    if len(set(centers)) != len(centers):
        raise ValueError("centers must be distinct")
    order = np.argsort(centers, kind="stable")  # smallest center index first
    pos = voronoi_labels(d, np.asarray(centers)[order][None])[0]
    return Clustering(k=len(centers), centers=centers,
                      assignment=tuple(order[pos].tolist()),
                      radius=cost(d, centers))


def epsilon_distance(a: Clustering, b: Clustering) -> float:
    """Fraction of points clustered differently under the best label matching.

    Computed as an optimal assignment on the k x k overlap matrix; equals
    (1/n) min over bijections sigma of sum_i |A_i \\ B_sigma(i)|.
    """
    if a.k != b.k:
        raise MismatchedK(f"k mismatch: {a.k} vs {b.k}")
    if a.n != b.n:
        raise ValueError(f"point count mismatch: {a.n} vs {b.n}")
    n, k = a.n, a.k
    overlap = np.bincount(np.asarray(a.assignment) * k + b.assignment,
                          minlength=k * k).reshape(k, k)
    rows, cols = linear_sum_assignment(-overlap)
    matched = int(overlap[rows, cols].sum())
    return (n - matched) / n


def ball(instance, center: int, radius: float, domain=None):
    """Points of ``domain`` within ``radius`` of ``center`` (outgoing)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = _as_table(instance)
    if domain is None:
        domain = range(d.shape[0])
    return tuple(q for q in sorted(domain) if d[center, q] <= radius)


def mutual_within(d, threshold: float) -> np.ndarray:
    """Pairs within ``threshold`` of each other in both directions."""
    return (d <= threshold) & (d.T <= threshold)


def label_groups(labels):
    """Points grouped by label: index-sorted lists, ordered by smallest member."""
    groups = {}
    for p, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, []).append(p)
    return sorted(groups.values())


def components(adj):
    """Connected components of a symmetric boolean adjacency matrix.

    Returned as index-sorted lists ordered by smallest member; the diagonal
    is ignored.
    """
    _, labels = connected_components(adj, directed=False)
    return label_groups(labels)


def threshold_components(instance, threshold: float = 0.0):
    """Connected components of the threshold graph, sorted by smallest member.

    Two points are joined when they are within ``threshold`` of each other
    in both directions.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return components(mutual_within(_as_table(instance), threshold))


def symmetrized_set(instance, r_star: float):
    """A = {p | for all q: d(q,p) <= r* implies d(p,q) <= r*}, as an
    attachment array; None when A is empty.

    ``nearest[p]`` is p for p in A, so A is ``nearest == arange(n)``; for p
    outside A it is A(p), its closest A-point under ``voronoi_labels``' tie
    rule (incoming distance, smallest index on ties).
    """
    if r_star < 0:
        raise ValueError("r_star must be >= 0")
    d = _as_table(instance)
    # p fails iff some q has d(q,p) <= r* but d(p,q) > r*
    fails = np.any((d.T <= r_star) & (d > r_star), axis=1)
    a_idx = np.flatnonzero(~fails)
    if not a_idx.size:
        return None
    return a_idx[voronoi_labels(d, a_idx[None])[0]]
