"""Checkers for the structural conditions a reference clustering may satisfy.

Each predicate is one boolean mask over the table, straight from its
definition, and each false flag carries a witness: the first violation in
the scan order below, with i = lab(p) and j = lab(q) != i.

- property1: each p of C_i' is strictly closer to c_i than to any q of
  another C_j' (C_i' is C_i restricted to the symmetrized set A); witness
  (p, i, q, j), first in (i, j, p, q).  property1_full_scope: the same over
  the full clusters.
- property2: no q outside C_i has d(q, c_i) <= r*, else c_i is a bad
  center; witness (q, c_i), first in (i, j, q).
- weak_center_proximity: d(c_i, p) < d(p, q) for every p, q in distinct
  clusters; witness (p, q), first in (i, p, j, q).
- center_proximity_factor: the minimum of d(c_j, p) / d(c_i, p) over the
  other centers c_j, skipping points with d(c_i, p) = 0.
- a_respects_opt: every center lies in A and every point outside A
  attaches to a same-cluster A-point; witness ("center", c_i), first in i,
  else ("attachment", p, A(p)), first in p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Clustering, _as_table, symmetrized_set


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


def _first(mask, order):
    """(row, col) of the first true entry of ``mask`` when entries are
    visited in lexicographic order of ``order(row, col)``; None if none."""
    rows, cols = np.nonzero(mask)
    if not rows.size:
        return None
    at = np.lexsort(order(rows, cols)[::-1])[0]
    return int(rows[at]), int(cols[at])


def _bad_center_hits(d, clustering, r_star):
    """hits[i, q]: q lies outside C_i with d(q, c_i) <= r*.  These are
    property 2's violations, and c_i is then a bad center."""
    lab = np.asarray(clustering.assignment)
    return ((d[:, list(clustering.centers)] <= r_star).T
            & (lab != np.arange(clustering.k)[:, None]))


def check_structure(instance, clustering: Clustering,
                    r_star: float) -> StructureReport:
    """Evaluate every predicate of the module docstring at r*."""
    d = _as_table(instance)
    n, k = d.shape[0], clustering.k
    cen = np.asarray(clustering.centers)
    lab = np.asarray(clustering.assignment)
    dc = d[cen[lab], np.arange(n)]  # d(c_lab(p), p)
    cross = lab[:, None] != lab[None, :]  # [p, q]: p, q in distinct clusters
    witnesses = {}

    nearest = symmetrized_set(d, r_star)  # None when A is empty
    in_a = np.arange(n) == (-1 if nearest is None else nearest)

    p1 = cross & ~(dc[:, None] < d.T)  # [p, q]: not d(c_i, p) < d(q, p)
    holds = {}
    for key, mask in (("property1", p1 & in_a[:, None] & in_a[None, :]),
                      ("property1_full_scope", p1)):
        hit = _first(mask, lambda p, q: (lab[p], lab[q], p, q))
        holds[key] = hit is None
        if hit is not None:
            p, q = hit
            witnesses[key] = (p, int(lab[p]), q, int(lab[q]))

    hits = _bad_center_hits(d, clustering, r_star)
    hit = _first(hits, lambda i, q: (i, lab[q], q))
    if hit is not None:
        witnesses["property2"] = (hit[1], clustering.centers[hit[0]])

    # [p, q]: not d(c_i, p) < d(p, q)
    weak_hit = _first(cross & ~(dc[:, None] < d),
                      lambda p, q: (lab[p], p, lab[q], q))
    if weak_hit is not None:
        witnesses["weak_center_proximity"] = weak_hit

    nz = np.flatnonzero(dc != 0)  # the ratio is infinite where d(c_i, p) = 0
    ratio = d[np.ix_(cen, nz)] / dc[nz]  # [j, p]: d(c_j, p) / d(c_i, p)
    factor = ratio[np.arange(k)[:, None] != lab[nz]].min(initial=np.inf)

    respects = nearest is not None
    if respects:
        outside = cen[~in_a[cen]]
        split = np.flatnonzero(lab != lab[nearest])  # only points outside A
        respects = not (outside.size or split.size)
        if outside.size:
            witnesses["a_respects_opt"] = ("center", int(outside[0]))
        elif split.size:
            p = int(split[0])
            witnesses["a_respects_opt"] = ("attachment", p, int(nearest[p]))

    bad = np.sort(cen[hits.any(axis=1)])
    return StructureReport(property1=holds["property1"],
                           property1_full_scope=holds["property1_full_scope"],
                           property2=not hits.any(),
                           weak_center_proximity=weak_hit is None,
                           center_proximity_factor=float(factor),
                           bad_centers=tuple(bad.tolist()),
                           a_respects_opt=respects,
                           witnesses=witnesses)


def find_cluster_capturing_centers(instance, clustering: Clustering,
                                   r_star: float) -> CCCReport:
    """Detect first- and second-order cluster-capturing centers.

    c_i captures C_j (first order) when, against every competitor center
    c_x (x outside {i, j}), more than half of C_j is both within r* of c_i
    and strictly closer to c_i than to c_x; with no competitor left, more
    than half of C_j must still lie within r* of c_i.  Second order allows
    one competitor c_l to be excluded; the excluded centers are recorded per
    entry (l = i yields the first-order condition, so every CCC is a CCC2).
    """
    d = _as_table(instance)
    centers, k = clustering.centers, clustering.k
    lab = np.asarray(clustering.assignment)
    ccc = {}
    ccc2 = {}
    for j in range(k):
        dj = d[np.ix_(centers, np.flatnonzero(lab == j))]  # [i, p]: d(c_i, p)
        half = dj.shape[1] / 2
        near = dj <= r_star
        # good[i, x] = #{p in C_j : d(c_i,p) <= r* and d(c_i,p) < d(c_x,p)}
        good = (near[:, None] & (dj[:, None] < dj[None])).sum(axis=2)
        lost = ~(good > half)  # [i, x]: c_x keeps c_i from a majority
        np.fill_diagonal(lost, False)
        lost[:, j] = False
        # captures[i, l]: c_i captures C_j once c_l is excluded
        captures = ((near.sum(axis=1) > half)[:, None]
                    & (lost.sum(axis=1)[:, None] - lost == 0))
        captures[:, j] = False
        for i in range(k):
            if i == j:
                continue
            if captures[i, i]:
                ccc[j] = centers[i]
            excl = tuple(centers[l] for l in np.flatnonzero(captures[i]))
            if excl:
                ccc2.setdefault(j, {})[centers[i]] = excl
    return CCCReport(ccc=ccc, ccc2=ccc2)


def count_bad_centers_bound_check(instance, clustering: Clustering,
                                  r_star: float) -> bool:
    """True iff at most 6 centers have a foreign point within r* (incoming).

    A necessary condition for (3,eps)-perturbation resilience when all
    optimal clusters have more than 2*eps*n points.
    """
    hits = _bad_center_hits(_as_table(instance), clustering, r_star)
    return int(hits.any(axis=1).sum()) <= 6
