"""Recovery algorithms: approximation, 2-PR exact, (3,eps)-PR, linkage, sweep.

Every solver returns a SolveOutcome.  Statuses:

  exact-claim         optimal under the solver's resilience promise
  eps-close-claim     epsilon-close to optimal under the promise
  approximation-only  the usual worst-case guarantee, nothing more
  not-resilient       the promise visibly failed (no clustering returned;
                      diagnostics["reason"] says why when a step can)

A claim is only as good as the promise; the oracle and the structure
checkers are the way to confirm it on concrete instances.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (Clustering, Instance, _as_table, components, cost,
                   label_groups, mutual_within, symmetrized_set,
                   threshold_components, voronoi_partition)


PATCH_BUDGET = 5_000_000  # asymmetric_3eps's patch enumeration limit


class AsymmetricInput(ValueError):
    pass


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    clustering: Clustering = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("exact-claim", "eps-close-claim",
                               "approximation-only")


def _require_symmetric(instance):
    if isinstance(instance, Instance) and not instance.is_symmetric:
        raise AsymmetricInput("this solver requires a symmetric instance")


def _one_center(d, members):
    """(center, cost) of a point set: the member minimizing its max distance
    to the set (smallest index on ties) and that max distance."""
    members = sorted(members)
    ecc = d[np.ix_(members, members)].max(axis=1)
    best = int(ecc.argmin())
    return members[best], float(ecc[best])


def _clustering_from_groups(d, groups):
    """Build a Clustering from disjoint covering groups, ordered as given."""
    assignment = [None] * d.shape[0]
    centers, costs = zip(*(_one_center(d, g) for g in groups))
    for i, g in enumerate(groups):
        for p in g:
            assignment[p] = i
    return Clustering(k=len(groups), centers=centers,
                      assignment=tuple(assignment), radius=max(costs))


def _components_outcome(d, comps, k, factor):
    """Exact when the components number k, else not-resilient.  The one
    writer of "monotone": the sweep's ok iff component_count == k."""
    diagnostics = {"component_count": len(comps), "consistency_factor": factor,
                   "monotone": True}
    if len(comps) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(d, comps),
                        diagnostics=diagnostics)


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


def farthest_first(instance, k: int):
    """Gonzalez farthest-first traversal; 2-approximation on symmetric metrics.

    Seeds at point 0 for reproducibility; each next center is the point
    farthest from the chosen set (smallest index on ties).
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    if not 1 <= k <= d.shape[0]:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    return tuple(_traverse(lambda p: d[p], k)[0])


def _greedy_cover(n, covered_by, k):
    """Pick the smallest uncovered point c, then mark covered_by(c), a mask
    over the n points; stop when all are covered or at the (k+1)-th pick."""
    uncovered = np.ones(n, dtype=bool)
    centers = []
    while uncovered.any() and len(centers) <= k:
        c = int(uncovered.argmax())  # smallest uncovered index
        centers.append(c)
        uncovered &= ~covered_by(c)
    return tuple(centers)


def hochbaum_shmoys_cover(instance, r: float, k: int):
    """Greedy cover: pick the smallest-index unmarked point, mark within 2r.

    Returns the chosen centers in pick order, stopping at the (k+1)-th: at
    most k centers cover every point within 2r; k + 1 mean r is too small.
    The picks do not depend on k, which only decides where they stop.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    d = _as_table(instance)
    return _greedy_cover(d.shape[0], lambda c: d[c] <= 2 * r, k)


def exact_via_approximation(instance, k: int, alpha: float) -> SolveOutcome:
    """Voronoi partition of the farthest-first centers.

    Under alpha-perturbation resilience this partition is the optimal
    clustering; farthest-first is a 2-approximation on symmetric inputs.
    """
    cl = voronoi_partition(instance, farthest_first(instance, k))
    return SolveOutcome(status="exact-claim", clustering=cl,
                        diagnostics={"alpha": alpha, "approx_cost": cl.radius})


def asymmetric_2pr(instance, k: int, r_star: float) -> SolveOutcome:
    """Ball-pruning algorithm for asymmetric k-center under 2-PR.

    Builds the symmetrized set A, forms the r*-ball around every point of A
    (restricted to A), prunes balls that leak (some member closer to an
    outside point than to the ball's center) or that are subsets of other
    balls, then attaches each point outside A to the surviving ball of its
    nearest A-point.  Under 2-PR the survivors are exactly the optimal
    clusters.
    """
    d = _as_table(instance)
    nearest = symmetrized_set(instance, r_star)
    if nearest is None:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set",
                                         "consistency_factor": 1.0})
    a = np.flatnonzero(nearest == np.arange(d.shape[0]))
    sub = d[np.ix_(a, a)]
    inball = sub <= r_star  # inball[i]: ball of a[i] restricted to A

    # a ball leaks when a member is closer to some A-point outside it
    leaks = np.array([(sub[~row][:, row] < sub[i, row]).any()
                      for i, row in enumerate(inball)], dtype=bool)
    alive = np.flatnonzero(~leaks)  # positions in A, ascending
    m = inball[alive].astype(float)  # einsum: see approx_stability_2eps
    inside = np.einsum("ij,kj->ik", m, 1.0 - m) == 0  # ball i within ball j
    # a ball inside another survivor goes, and so does the later of equals
    inside &= ~inside.T | np.tri(len(alive), k=-1, dtype=bool)
    survivors = alive[~inside.any(axis=1)]

    centers = a[survivors].tolist()
    restricted = inball[survivors].sum(axis=1).tolist()
    unrestricted = (d[centers] <= r_star).sum(axis=1).tolist()
    diagnostics = {
        "surviving": len(survivors),
        "pruned_leak": int(leaks.sum()),
        "pruned_subset": len(alive) - len(survivors),
        "ball_sizes_restricted": dict(zip(centers, restricted)),
        "ball_sizes_unrestricted": dict(zip(centers, unrestricted)),
        "consistency_factor": 1.0,
    }
    if len(survivors) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)

    cover = inball[survivors]
    if not (cover.sum(axis=0) == 1).all():
        diagnostics["reason"] = "surviving balls do not partition A"
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    owner = np.empty(d.shape[0], dtype=np.intp)  # surviving ball per point
    owner[a] = cover.argmax(axis=0)
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(
                            d, label_groups(owner[nearest])),
                        diagnostics=diagnostics)


def symmetric_3eps(instance, k: int, r_star: float) -> SolveOutcome:
    """Connected components of the threshold graph at r*.

    Exact under (3,eps)-perturbation resilience with optimal clusters
    larger than max(2*eps*n, 3).
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    return _components_outcome(d, threshold_components(d, threshold=r_star),
                               k, 1.0)


def asymmetric_3eps(instance, k: int, r_star: float) -> SolveOutcome:
    """Cover-and-patch algorithm for asymmetric k-center under (3,eps)-PR.

    Covers the symmetrized set A in the hop metric of its threshold graph
    (one hop = one r* edge) with k' <= k greedy centers, k' the first of
    k-6 ... k that the cover fits, then brute forces up to 6 replacement
    centers so that k centers cover all of S within 3r* under the original
    distances.  The Voronoi partition of the patched centers is
    epsilon-close to optimal under the promise.
    """
    d = _as_table(instance)
    n = d.shape[0]
    nearest = symmetrized_set(instance, r_star)
    if nearest is None:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set",
                                         "consistency_factor": 3.0})
    a = np.flatnonzero(nearest == np.arange(n)).tolist()
    sub = d[np.ix_(a, a)]
    # one hop = one r* edge; a center covers the points within 2 hops
    step = mutual_within(sub, r_star) | np.eye(len(a), dtype=bool)
    cover_local = _greedy_cover(
        len(a), lambda c: step[step[c]].any(axis=0), k)
    if len(cover_local) > k:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "no hop cover for any k' <= k",
                                         "consistency_factor": 3.0})
    c_set = tuple(a[i] for i in cover_local)
    # (x, centers): k - x kept from c_set, x others added
    patches = ((x, list(kept) + list(extra))
               for x in range(0, min(6, k) + 1)
               for kept in itertools.combinations(c_set, k - x)
               for extra in itertools.combinations(
                   [p for p in range(n) if p not in kept], x))
    chosen = x_used = None
    work = 0
    for work, (x, cand) in enumerate(itertools.islice(patches, PATCH_BUDGET),
                                     1):
        if cost(d, cand) <= 3 * r_star:
            chosen, x_used = tuple(sorted(cand)), x
            break
    else:  # islice stops without pulling past the budget
        reason = ("no 3r* cover with x <= 6" if next(patches, None) is None
                  else f"patch enumeration exceeded budget {PATCH_BUDGET}")
    # the greedy's picks do not depend on k, so k' is the first that fits
    diagnostics = {"k_prime": max(len(c_set), k - 6, 1), "hop_cover": c_set,
                   "x": x_used, "patch_work": work,
                   "consistency_factor": 3.0}
    if chosen is None:
        return SolveOutcome(status="not-resilient",
                            diagnostics={**diagnostics, "reason": reason})
    cl = voronoi_partition(d, chosen)
    return SolveOutcome(status="eps-close-claim", clustering=cl,
                        diagnostics=diagnostics)


def equal_size_verifier(n: int, k: int):
    """All optimal clusters have n/k points: f(B) = |B| - n/k."""
    return lambda b: len(b) - n / k


def target_cost_verifier(instance, target: float):
    """All optimal clusters share a 1-center cost: f(B) = cost(B) - target."""
    d = _as_table(instance)
    return lambda b: _one_center(d, b)[1] - target


def _spanning_tree(d):
    """Minimum spanning tree of the table as edge arrays (p, q), by rank.

    A pair ranks by its first entry in the table's entries sorted by
    (d[p, q], p, q), the order of a row-major argmin; the order is strict,
    so the tree is unique.  Kruskal with a label array.
    """
    n = d.shape[0]
    labels = np.arange(n)
    tree = []
    for flat in np.argsort(d, axis=None, kind="stable").tolist():
        if len(tree) == n - 1:
            break
        p, q = divmod(flat, n)
        lp, lq = labels[p], labels[q]
        if lp != lq:
            tree.append((p, q))
            labels[labels == max(lp, lq)] = min(lp, lq)
    return np.array(tree, dtype=np.intp).reshape(-1, 2).T


def weak_proximity_linkage(instance, k: int,
                           verifier: Callable[[list], float]) -> SolveOutcome:
    """Guarded single linkage for any center-based objective.

    ``verifier`` is any callable f(members) -> float on a list of point
    indices: f < 0 strictly inside an optimal cluster, f >= 0 on supersets
    of one (see equal_size_verifier and target_cost_verifier).

    Repeatedly runs single linkage on the current components, refusing to
    merge two components that both verify (f >= 0), until every component
    verifies; then keeps only the very last linkage edge and starts over.
    Under weak center proximity plus cluster verifiability the components
    at k are exactly the optimal clusters.

    Each merge joins the cheapest pair leaving some f < 0 component, and
    every pair leaving that component is eligible, so by the cut property
    it is an edge of the minimum spanning tree: each step scans only the
    n - 1 tree edges, in the same (d, p, q) order as a scan of the table.
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    n = d.shape[0]
    tree_p, tree_q = _spanning_tree(d)
    labels = np.arange(n)  # a component's label is its smallest member
    committed = []

    def stuck(reason):
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": reason, "committed_edges": tuple(committed)})

    while n - len(committed) > k:
        scratch = labels.copy()
        comps = {g[0]: g for g in label_groups(scratch)}
        neg = np.zeros(n, dtype=bool)  # neg[root]: that component has f < 0
        for root, members in comps.items():
            neg[root] = verifier(members) < 0
        last_edge = None
        while neg.any():
            if len(comps) == 1:
                return stuck("a single component still has f < 0")
            # two or more components, one with f < 0: a tree edge leaves it
            lp, lq = scratch[tree_p], scratch[tree_q]
            i = int(((lp != lq) & (neg[lp] | neg[lq])).argmax())
            p, q = int(tree_p[i]), int(tree_q[i])
            keep, drop = min(lp[i], lq[i]), max(lp[i], lq[i])
            members = comps.pop(drop) + comps.pop(keep)
            scratch[scratch == drop] = keep
            comps[keep] = members
            neg[drop], neg[keep] = False, verifier(members) < 0
            last_edge = (min(p, q), max(p, q))
        if last_edge is None:
            return stuck("all components verify but more than k remain")
        committed.append(last_edge)
        p, q = last_edge
        rp, rq = labels[p], labels[q]
        keep, drop = min(rp, rq), max(rp, rq)
        labels[labels == drop] = keep
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(
                            d, label_groups(labels)),
                        diagnostics={"committed_edges": tuple(committed),
                                     "consistency_factor": np.inf})


def approx_stability_2eps(instance, k: int, r_star: float,
                          epsilon: float) -> SolveOutcome:
    """Ball-intersection components for (2,eps)-approximation stability.

    Joins p and q when their 2r* balls share more than eps*n points;
    components of that graph are the optimal clusters when all optimal
    clusters have more than eps*n points.
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    n = d.shape[0]
    # within[p] = membership mask of B_{2r*}(p); einsum's float64 loop
    # counts exactly (counts <= n) and, unlike a BLAS product, wakes no
    # threads: on a busy 2-vCPU host that wake-up took ~8 ms at n = 80
    within = (d <= 2 * r_star).astype(float)
    counts = np.einsum("ij,kj->ik", within, within)
    return _components_outcome(d, components(counts > epsilon * n), k, 2.0)


def sweep_radius(instance, k: int, solver):
    """Guess-and-check wrapper for r*-parameterized solvers.

    Returns the solver's outcome at the first candidate radius (0 and the
    distinct off-diagonal distances, ascending) where it succeeds and is
    self-consistent (each cluster has a member within factor * r of all
    its members), with that radius.  factor is read once, from the first
    outcome's diagnostics["consistency_factor"], for every check below.
    r* is a candidate: some center-point pair attains it.  When none works
    it returns a not-resilient outcome and None, whose
    diagnostics["sweep_log"] holds one (r, status) per candidate: the
    solver's status (not-resilient) where it failed, inconsistent where it
    succeeded without self-consistency.

    Outcomes with diagnostics["monotone"] promise that ok means
    diagnostics["component_count"] == k and that the count never rises
    with r.  While it is k no merge happens, so the partition is fixed and
    self-consistency is monotone in r: the sweep bisects for the first
    candidate with count <= k, then for the first whose factor * r covers
    that partition's cost, and checks the solver's outcome there.  Its
    failure log is what a call at every candidate gives: not-resilient
    below and above the candidates with count k, inconsistent among them.

    Any other solver is called at the first candidate and then in turn
    from the first r with r * factor >= _opt_lower_bound(d, k): an ok
    self-consistent outcome is a k-center solution of cost <= r * factor,
    so OPT <= r * factor and no skipped candidate could be returned.
    Skipped candidates are logged below-bound.  This needs all of a
    solver's outcomes to carry one factor; when the first carries none,
    no candidate is skipped and the checks use factor 1.
    """
    d = _as_table(instance)
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)]
    # + 0.0 turns -0.0 into 0.0; tolist keeps each r a Python float
    candidates = (np.unique(np.append(off, 0.0)) + 0.0).tolist()
    first = solver(instance, k, candidates[0])
    factor = first.diagnostics.get("consistency_factor")
    if first.diagnostics.get("monotone"):
        return _bisection_sweep(instance, d, k, solver, candidates, first,
                                factor)
    start = 1 if factor is None else max(1, bisect.bisect_left(
        candidates, _opt_lower_bound(d, k), key=lambda r: r * factor))
    factor = 1.0 if factor is None else factor
    log = []
    for i, r in enumerate(candidates):
        if 0 < i < start:
            log.append((r, "below-bound"))
            continue
        outcome = solver(instance, k, r) if i else first
        if not outcome.ok:
            log.append((r, outcome.status))
        elif _consistency_cost(d, outcome.clustering) <= r * factor:
            return outcome, r
        else:
            log.append((r, "inconsistent"))
    return _no_radius(log)


def _bisection_sweep(instance, d, k, solver, candidates, first, factor):
    """sweep_radius for a monotone solver: O(log m) calls on m candidates."""
    m = len(candidates)
    seen = {0: first}  # candidate index -> outcome; no index is solved twice

    def at(i):
        if i not in seen:
            seen[i] = solver(instance, k, candidates[i])
        return seen[i]

    def first_index(lo, pred):  # first i in [lo, m) with pred(i), else m
        return bisect.bisect_left(range(m), True, lo=lo, key=pred)

    lo = first_index(0, lambda i: at(i).diagnostics["component_count"] <= k)
    hi = lo
    if lo < m and at(lo).ok:
        j = bisect.bisect_left(candidates,
                               _consistency_cost(d, at(lo).clustering),
                               lo=lo, key=lambda r: r * factor)
        if j < m and at(j).ok and (_consistency_cost(d, at(j).clustering)
                                   <= candidates[j] * factor):
            return at(j), candidates[j]
        hi = first_index(lo, lambda i: at(i).diagnostics["component_count"] < k)
    return _no_radius([(r, "inconsistent" if lo <= i < hi else "not-resilient")
                       for i, r in enumerate(candidates)])


def _opt_lower_bound(d, k):
    """A lower bound on the optimal k-center radius of any square table.

    Farthest-first from point 0 under the pair-cover value
    c2(p, q) = min_c max(d[c, p], d[c, q]), k + 1 picks; returns the
    smallest c2 between two picks (inf for k = 0), 0.0 when k >= n.  Two
    of any k + 1 points share an optimal center c, and c2 of that pair is
    at most max(d[c, p], d[c, q]) <= OPT: neither symmetry nor the
    triangle inequality is used.
    """
    if k >= d.shape[0]:
        return 0.0
    return min(_traverse(lambda p: np.maximum(d[:, [p]], d).min(axis=0),
                         k + 1)[1])


def _no_radius(log):
    return SolveOutcome(status="not-resilient", diagnostics={
        "reason": "no candidate radius works", "sweep_log": tuple(log)}), None


def _consistency_cost(d, clustering):
    """The largest 1-center cost over the nonempty clusters."""
    return max(_one_center(d, g)[1] for g in clustering.clusters() if g)


def _approximation(instance, centers):
    """Voronoi partition of 2-approximate centers, claiming nothing more."""
    return SolveOutcome(status="approximation-only",
                        clustering=voronoi_partition(instance, centers),
                        diagnostics={"consistency_factor": 2.0})


def _hs(instance, k, r_star, epsilon):
    centers = hochbaum_shmoys_cover(instance, r_star, k)
    if len(centers) > k:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"needed": len(centers),
                                         "consistency_factor": 2.0})
    return _approximation(instance, centers)


@dataclass(frozen=True)
class Solver:
    """solve(instance, k, r_star, epsilon) -> SolveOutcome for one solver id.

    needs_r: takes r*, so it is swept when r is absent; needs_epsilon:
    epsilon must be given.  Symmetric-only solvers raise AsymmetricInput
    before any work.  solve looks its layer function up by name at call
    time, so patching that name reaches it.
    """

    solve: Callable[..., SolveOutcome]
    needs_r: bool = False
    needs_epsilon: bool = False


# Stable solver identifiers for the CLI and bench harness.
SOLVERS = {
    "ff2": Solver(lambda inst, k, r, eps:
                  _approximation(inst, farthest_first(inst, k))),
    "hs": Solver(_hs, needs_r=True),
    "thm3": Solver(lambda inst, k, r, eps:
                   exact_via_approximation(inst, k, alpha=2.0)),
    "alg1-2pr": Solver(lambda inst, k, r, eps: asymmetric_2pr(inst, k, r),
                       needs_r=True),
    "thm5-3eps": Solver(lambda inst, k, r, eps: symmetric_3eps(inst, k, r),
                        needs_r=True),
    "alg2-3eps-asym": Solver(lambda inst, k, r, eps:
                             asymmetric_3eps(inst, k, r), needs_r=True),
    "alg3-linkage": Solver(lambda inst, k, r, eps: weak_proximity_linkage(
        inst, k, equal_size_verifier(_as_table(inst).shape[0], k))),
    "alg4-2eps-as": Solver(lambda inst, k, r, eps:
                           approx_stability_2eps(inst, k, r, eps),
                           needs_r=True, needs_epsilon=True),
}
