"""Checkers for the structural conditions a reference clustering may satisfy.

Every flag is computed by exhaustive scan straight from its definition and
every false flag carries a witness tuple that violates the corresponding
inequality, so reports are independently re-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Clustering, _as_table, symmetrized_set, EmptyA


@dataclass(frozen=True)
class StructureReport:
    property1: bool            # over the A-restricted clusters C_i'
    property1_full_scope: bool  # same inequality over the full clusters
    property2: bool
    weak_center_proximity: bool
    center_proximity_factor: float
    bad_centers: tuple
    a_respects_opt: bool
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CCCReport:
    ccc: dict   # cluster index -> capturing center index (at most one)
    ccc2: dict  # cluster index -> {center index: tuple of excluded centers}


def _bad_center_hits(d, clusters, centers, r_star):
    """(q, c_i) for every q outside C_i with d(q, c_i) <= r*, in (i, j, q)
    order: property 2's violations, and c_i is then a bad center."""
    return [(q, c) for i, c in enumerate(centers)
            for j, g in enumerate(clusters) if j != i
            for q in g if d[q, c] <= r_star]


def check_structure(instance, clustering: Clustering,
                    r_star: float) -> StructureReport:
    """Evaluate every structural predicate by direct scan.

    property1: each point of C_i' is strictly closer to its center than to
    any point of another C_j' (C_i' = C_i restricted to the symmetrized
    set); also reported over the unrestricted clusters.
    property2: no point of another cluster is within r* of a center.
    weak_center_proximity: each point strictly closer to its center than to
    any point of another cluster.
    center_proximity_factor: infimum over cross pairs of
    d(c_j, p) / d(c_i, p); pairs with d(c_i, p) = 0 are skipped.
    bad_centers: centers with a foreign point within r* (incoming).
    a_respects_opt: all centers lie in A and every point outside A attaches
    to a same-cluster A-point.
    """
    d = _as_table(instance)
    clusters = clustering.clusters()
    centers = clustering.centers
    k = clustering.k
    witnesses = {}

    try:
        sym = symmetrized_set(d, r_star)
        a_members = set(sym.members)
    except EmptyA:
        sym = None
        a_members = set()

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

    hits = _bad_center_hits(d, clusters, centers, r_star)
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
                continue  # ratio is infinite for this pair
            for j in range(k):
                if j != i:
                    factor = min(factor, d[centers[j], p] / dcp)

    respects = sym is not None
    if sym is not None:
        for i in range(k):
            if centers[i] not in a_members:
                respects = False
                witnesses.setdefault("a_respects_opt", ("center", centers[i]))
        for p, ap in sym.nearest_in_A.items():
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


def find_cluster_capturing_centers(instance, clustering: Clustering,
                                   r_star: float) -> CCCReport:
    """Detect first- and second-order cluster-capturing centers.

    c_i captures C_j (first order) when, against every competitor center
    c_x (x outside {i, j}), more than half of C_j is both within r* of c_i
    and strictly closer to c_i than to c_x.  Second order allows one
    competitor c_l to be excluded; the excluded centers are recorded per
    entry (l = i yields the first-order condition, so every CCC is a CCC2).
    """
    d = _as_table(instance)
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
        # with no competitors left, the within-r* majority must still hold
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


def count_bad_centers_bound_check(instance, clustering: Clustering,
                                  r_star: float) -> bool:
    """True iff at most 6 centers have a foreign point within r* (incoming).

    A necessary condition for (3,eps)-perturbation resilience when all
    optimal clusters have more than 2*eps*n points.
    """
    hits = _bad_center_hits(_as_table(instance), clustering.clusters(),
                            clustering.centers, r_star)
    return len({c for _, c in hits}) <= 6
