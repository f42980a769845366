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
import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import minimum_spanning_tree

from .core import (SCAN_CELLS, Clustering, Instance, _as_table, _gallop,
                   _require_epsilon, _require_k, _require_non_negative,
                   _symmetrized_masks, _traverse, components, cost,
                   label_groups, symmetrized_set, threshold_components,
                   voronoi_partition)
from .oracle import BudgetExceeded, _opt_lower_bound, optimal_radius


PATCH_BUDGET = 5_000_000  # asymmetric_3eps's patch enumeration limit
SEARCH_BUDGET = 2_000  # sweep_radius's node limit for optimal_radius


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


def _symmetric_table(instance):
    if isinstance(instance, Instance) and not instance.is_symmetric:
        raise AsymmetricInput("this solver requires a symmetric instance")
    return _as_table(instance)


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


def _components_outcome(d, comps, k):
    """Exact when the components number k, else not-resilient."""
    diagnostics = {"component_count": len(comps)}
    if len(comps) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(d, comps),
                        diagnostics=diagnostics)


def farthest_first(instance, k: int):
    """Gonzalez farthest-first traversal; 2-approximation on symmetric metrics.

    Seeds at point 0 for reproducibility; each next center is the point
    farthest from the chosen set (smallest index on ties).
    """
    d = _symmetric_table(instance)
    _require_k(k, d.shape[0])
    return tuple(_traverse(lambda p: d[p], k)[0])


def _greedy_cover(uncovered, covered_by, k):
    """Per row of the (B, n) mask ``uncovered``: pick the smallest uncovered
    point c, then clear covered_by(c), (B,) picks -> (B, n) masks; stop when
    a row is covered or at its (k+1)-th pick.  Returns each row's picks."""
    uncovered = uncovered.copy()
    picks = []  # one list per pick, -1 in the rows already covered
    while len(picks) <= k and uncovered.any():
        c = uncovered.argmax(axis=1)  # smallest uncovered index
        picks.append(np.where(uncovered.any(axis=1), c, -1).tolist())
        uncovered &= ~covered_by(c)  # a covered row picks 0 and clears nothing
    if not picks:
        return [()] * len(uncovered)
    return [tuple(c for c in row if c >= 0) for row in zip(*picks)]


def hochbaum_shmoys_cover(instance, r: float, k: int):
    """Greedy cover: pick the smallest-index unmarked point, mark within 2r.

    Returns the chosen centers in pick order, stopping at the (k+1)-th: at
    most k centers cover every point within 2r; k + 1 mean r is too small.
    The picks do not depend on k, which only decides where they stop.
    """
    _require_non_negative("r", r)
    d = _as_table(instance)
    return _greedy_cover(np.ones((1, d.shape[0]), dtype=bool),
                         lambda c: d[c] <= 2 * r, k)[0]


def exact_via_approximation(instance, k: int, alpha=2.0) -> SolveOutcome:
    """Voronoi partition of the farthest-first centers.

    Under alpha-perturbation resilience this partition is the optimal
    clustering; farthest-first is a 2-approximation on symmetric inputs.
    """
    cl = voronoi_partition(instance, farthest_first(instance, k))
    return SolveOutcome(status="exact-claim", clustering=cl,
                        diagnostics={"alpha": alpha, "approx_cost": cl.radius})


def _leaking_balls(sub, inball):
    """Per ball of asymmetric_2pr: does a member lie closer to some A-point
    outside the ball than to its center?  One column gather per ball."""
    return np.array([((sub[:, row] < sub[i, row]).any(axis=1) & ~row).any()
                     for i, row in enumerate(inball)], dtype=bool)


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
                            diagnostics={"reason": "empty symmetrized set"})
    a = np.flatnonzero(nearest == np.arange(d.shape[0]))
    sub = d[np.ix_(a, a)]
    inball = sub <= r_star  # inball[i]: ball of a[i] restricted to A

    leaks = _leaking_balls(sub, inball)
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
    d = _symmetric_table(instance)
    return _components_outcome(d, threshold_components(d, threshold=r_star), k)


def _hop_covers(in_a, within, k):
    """asymmetric_3eps's greedy cover of A in its hop metric, per row of
    _symmetrized_masks' masks (one per radius r), as global indices: one
    hop is one mutual r edge inside A, and a center covers the A points
    within 2 hops.  A's points ascend, so picking the smallest uncovered
    index is picking the smallest uncovered position in A."""
    step = ((within & within.transpose(0, 2, 1))
            | np.eye(in_a.shape[1], dtype=bool)) & in_a[:, None, :]
    rows = np.arange(len(in_a))
    return _greedy_cover(
        in_a, lambda c: (step[rows, c][:, :, None] & step).any(axis=1), k)


def asymmetric_3eps(instance, k: int, r_star: float) -> SolveOutcome:
    """Cover-and-patch algorithm for asymmetric k-center under (3,eps)-PR.

    Covers the symmetrized set A in the hop metric of its threshold graph
    (one hop = one r* edge) with k' <= k greedy centers, k' the first of
    k-6 ... k that the cover fits, then brute forces up to 6 replacement
    centers so that k centers cover all of S within 3r* under the original
    distances.  The Voronoi partition of the patched centers is
    epsilon-close to optimal under the promise.
    """
    _require_non_negative("r_star", r_star)
    d = _as_table(instance)
    n = d.shape[0]
    in_a, within = _symmetrized_masks(d, [r_star])
    if not in_a.any():
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set"})
    c_set = _hop_covers(in_a, within, k)[0]
    if len(c_set) > k:
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": "no hop cover for any k' <= k"})
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
                   "x": x_used, "patch_work": work}
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
    """Minimum spanning tree of the table as a list of edges (p, q), by rank.

    Entries rank 1, 2, ... in the order (d[p, q], p, q) of a row-major
    argmin, and a pair by its first entry; the order is strict, so the
    tree is unique.  scipy's minimum_spanning_tree takes each pair's rank
    on the upper triangle (no rank is 0, scipy's "no edge"), and each tree
    edge is listed as its pair's first entry.
    """
    n = d.shape[0]
    order = np.argsort(d, axis=None, kind="stable")
    rank = np.empty(d.size)
    rank[order] = np.arange(1, d.size + 1)
    rank = rank.reshape(n, n)
    p, q = np.triu_indices(n, 1)  # built as CSR: no dense conversion
    tree = minimum_spanning_tree(csr_array(
        (np.minimum(rank, rank.T)[p, q], (p, q)), shape=(n, n)))
    first = order[np.sort(tree.data).astype(np.intp) - 1]
    return [divmod(flat, n) for flat in first.tolist()]


def weak_proximity_linkage(instance, k: int, verifier=None) -> SolveOutcome:
    """Guarded single linkage for any center-based objective.

    ``verifier`` is any callable f(members) -> float on a list of point
    indices: f < 0 strictly inside an optimal cluster, f >= 0 on supersets
    of one (see equal_size_verifier and target_cost_verifier).  None means
    equal_size_verifier(n, k), whose promise of n/k-point clusters cannot
    hold when k does not divide n: then nothing is merged.

    Repeatedly runs single linkage on the current components, refusing to
    merge two components that both verify (f >= 0), until every component
    verifies; then keeps only the very last linkage edge and starts over.
    Under weak center proximity plus cluster verifiability the components
    at k are exactly the optimal clusters.

    Each merge joins the cheapest pair leaving some f < 0 component, and
    every pair leaving that component is eligible, so by the cut property
    it is an edge of the minimum spanning tree, first in the same (d, p, q)
    order as a scan of the table.  Each round puts the ranks of all n - 1
    tree edges on a heap and pops the smallest: an edge inside one
    component is dropped (within a round components only grow), an edge
    with an f < 0 end is merged, and any other is parked under both end
    components.  A merge pools the two components' parked ranks and puts
    them back on the heap when the merged component has f < 0.  An edge
    turns eligible only through such a merge, so every eligible edge is on
    the heap and every rank popped before it was ineligible when popped:
    the edge merged is the first eligible one in rank order, the argmax of
    the eligibility mask over the tree.
    """
    d = _symmetric_table(instance)
    n = d.shape[0]
    _require_k(k, n)
    committed = []

    def stuck(reason):
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": reason, "committed_edges": tuple(committed)})

    if verifier is None:
        if n % k:
            return stuck("the equal-size promise needs k to divide n")
        verifier = equal_size_verifier(n, k)
    tree = _spanning_tree(d)
    labels = list(range(n))  # a component's label is its smallest member
    groups = {p: [p] for p in range(n)}  # label -> members, both ascending
    while len(groups) > k:
        scratch, comps = labels.copy(), dict(groups)
        neg = {root for root, members in comps.items()
               if verifier(members) < 0}  # roots of the f < 0 components
        heap = list(range(n - 1))  # tree ranks; a sorted list is a heap
        parked = {}  # root -> ranks of the ineligible edges it ends
        last = None  # rank of the round's last merge
        while neg:
            if len(comps) == 1:
                return stuck("a single component still has f < 0")
            # two or more components, one with f < 0: a tree edge leaves it
            rank = heapq.heappop(heap)
            p, q = tree[rank]
            lp, lq = scratch[p], scratch[q]
            if lp == lq:
                continue
            if lp not in neg and lq not in neg:
                parked.setdefault(lp, []).append(rank)
                parked.setdefault(lq, []).append(rank)
                continue
            keep, drop = (lp, lq) if lp < lq else (lq, lp)
            for x in comps[drop]:
                scratch[x] = keep
            members = comps.pop(drop) + comps.pop(keep)
            comps[keep] = members
            neg -= {drop, keep}
            waiting = parked.pop(drop, []) + parked.pop(keep, [])
            if verifier(members) < 0:
                neg.add(keep)
                for parked_rank in waiting:
                    heapq.heappush(heap, parked_rank)
            elif waiting:
                parked[keep] = waiting
            last = rank
        if last is None:
            return stuck("all components verify but more than k remain")
        p, q = tree[last]
        committed.append((min(p, q), max(p, q)))
        keep, drop = sorted((labels[p], labels[q]))
        for x in groups[drop]:
            labels[x] = keep
        groups[keep] = sorted(groups.pop(drop) + groups[keep])
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(
                            d, list(groups.values())),
                        diagnostics={"committed_edges": tuple(committed)})


def approx_stability_2eps(instance, k: int, r_star: float,
                          epsilon: float) -> SolveOutcome:
    """Ball-intersection components for (2,eps)-approximation stability.

    Joins p and q when their 2r* balls share more than eps*n points;
    components of that graph are the optimal clusters when all optimal
    clusters have more than eps*n points.
    """
    d = _symmetric_table(instance)
    _require_epsilon(epsilon)
    _require_non_negative("r_star", r_star)
    n = d.shape[0]
    # within[p] = membership mask of B_{2r*}(p); einsum's float64 loop
    # counts exactly (counts <= n) and, unlike a BLAS product, wakes no
    # threads: on a busy 2-vCPU host that wake-up took ~8 ms at n = 80
    within = (d <= 2 * r_star).astype(float)
    counts = np.einsum("ij,kj->ik", within, within)
    return _components_outcome(d, components(counts > epsilon * n), k)


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

    Both paths start from the first candidate r with r * factor >=
    _opt_lower_bound(d, k): an ok self-consistent outcome is a k-center
    solution of cost <= r * factor, so OPT <= r * factor and no candidate
    below that start could be returned.  This needs all of a solver's
    outcomes to carry one factor, as Solver.solve writes its promise on
    each; when the first carries none (a raw layer), no candidate is
    skipped and the checks on both paths use factor 1.

    Outcomes with diagnostics["monotone"] promise that ok means
    diagnostics["component_count"] == k and that the count never rises
    with r.  While it is k no merge happens, so the partition is fixed and
    self-consistency is monotone in r.  The sweep probes the start; while
    the count is above k it gallops up (steps 1, 2, 4, ...) and bisects
    the last step.  Count k there fixes the partition, and the sweep
    checks the solver's outcome at the first candidate whose factor * r
    covers that partition's cost.  Only a failed sweep bisects the full
    range, to write the log a call at every candidate gives: not-resilient
    below and above the candidates with count k, inconsistent among them.

    Any other solver is called at the first candidate and then in turn
    from the start; skipped candidates are logged below-bound.  Two
    certified skips go further, each with the result a call at every
    candidate gives:

    - factor 1 declared: OPT <= r wherever the sweep could return r, so
      before its second call it asks optimal_radius (at most SEARCH_BUDGET
      search nodes) for OPT and starts at the first candidate >= OPT; past
      the budget, or on a table the search refuses, at the bound's start.
    - outcomes with diagnostics["needs_hop_cover"] (alg2-3eps-asym's)
      promise ok only where A(r) is nonempty and its greedy 2-hop cover has
      at most k centers.  The sweep computes that cover for blocks of
      candidates at once (_hop_cover_screen), calls the solver only where
      it fits and logs not-resilient, the solver's status, elsewhere.
    """
    d = _as_table(instance)
    off = d[~np.eye(len(d), dtype=bool)]
    # + 0.0 turns -0.0 into 0.0; tolist keeps each r a Python float
    candidates = (np.unique(np.append(off, 0.0)) + 0.0).tolist()
    first = solver(instance, k, candidates[0])
    declared = first.diagnostics.get("consistency_factor")
    factor = 1.0 if declared is None else declared
    start = 0 if declared is None else bisect.bisect_left(
        candidates, _opt_lower_bound(d, k), key=lambda r: r * factor)
    if first.diagnostics.get("monotone"):
        return _bisection_sweep(instance, d, k, solver, candidates, first,
                                factor, start)
    start = max(1, start)
    if declared == 1.0:
        try:
            start = max(start, bisect.bisect_left(
                candidates, optimal_radius(d, k, SEARCH_BUDGET)))
        except (BudgetExceeded, ValueError):  # keep the bound's start
            pass
    fits = (_hop_cover_screen(d, k, candidates)
            if first.diagnostics.get("needs_hop_cover") else lambda i: True)
    log = []
    for i, r in enumerate(candidates):
        if 0 < i < start:
            log.append((r, "below-bound"))
            continue
        if i and not fits(i):
            log.append((r, "not-resilient"))
            continue
        outcome = solver(instance, k, r) if i else first
        if not outcome.ok:
            log.append((r, outcome.status))
        elif _consistency_cost(d, outcome.clustering) <= r * factor:
            return outcome, r
        else:
            log.append((r, "inconsistent"))
    return _no_radius(log)


def _hop_cover_screen(d, k, candidates):
    """i -> False where asymmetric_3eps cannot succeed at candidates[i]: A(r)
    is empty or its hop cover needs more than k centers.  Decided for a
    block of candidates from i on, SCAN_CELLS cells (one radius past that);
    asked only for i >= 1, so the table is not empty.  A radius that is not
    >= 0 passes, so the solver refuses it as it would."""
    verdicts = {}

    def fits(i):
        if i not in verdicts:
            radii = np.array(candidates[i:i + max(1, SCAN_CELLS // d.size)])
            in_a, within = _symmetrized_masks(d, radii)
            cover = np.array([len(c) for c in _hop_covers(in_a, within, k)])
            ok = (in_a.any(axis=1) & (cover <= k)) | ~(radii >= 0)
            verdicts.update(enumerate(ok.tolist(), i))
        return verdicts[i]
    return fits


def _bisection_sweep(instance, d, k, solver, candidates, first, factor,
                     start):
    """sweep_radius for a monotone solver from candidate index start."""
    m = len(candidates)
    seen = {0: first}  # candidate index -> outcome; no index is solved twice

    def at(i):
        if i not in seen:
            seen[i] = solver(instance, k, candidates[i])
        return seen[i]

    def first_index(lo, hi, pred):  # first i in [lo, hi) with pred(i), else hi
        return bisect.bisect_left(range(m), True, lo=lo, hi=hi, key=pred)

    def count(i):
        return at(i).diagnostics["component_count"]

    lo = _gallop(lambda i: count(i) <= k, start, m)
    if lo < m and at(lo).ok:
        j = bisect.bisect_left(candidates,
                               _consistency_cost(d, at(lo).clustering),
                               lo=lo, key=lambda r: r * factor)
        if j < m and at(j).ok and (_consistency_cost(d, at(j).clustering)
                                   <= candidates[j] * factor):
            return at(j), candidates[j]
    # failed: the log needs the count-k range [lo, hi) in full
    lo = first_index(0, m, lambda i: count(i) <= k)
    hi = (first_index(lo, m, lambda i: count(i) < k)
          if lo < m and at(lo).ok else lo)
    return _no_radius([(r, "inconsistent" if lo <= i < hi else "not-resilient")
                       for i, r in enumerate(candidates)])


def _no_radius(log):
    return SolveOutcome(status="not-resilient", diagnostics={
        "reason": "no candidate radius works", "sweep_log": tuple(log)}), None


def _consistency_cost(d, clustering):
    """The largest 1-center cost over the nonempty clusters."""
    return max(_one_center(d, g)[1] for g in clustering.clusters() if g)


def _approximation(instance, k, centers=None):
    """Voronoi partition of 2-approximate centers, farthest-first's when
    none are given, claiming nothing more."""
    if centers is None:
        centers = farthest_first(instance, k)
    return SolveOutcome(status="approximation-only",
                        clustering=voronoi_partition(instance, centers))


def _hs(instance, k, r_star):
    centers = hochbaum_shmoys_cover(instance, r_star, k)
    if len(centers) > k:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"needed": len(centers)})
    return _approximation(instance, k, centers)


@dataclass(frozen=True)
class Solver:
    """One solver id's contract: solve refuses a k that is not an integer
    in 1..n, runs layer(instance, k), plus r* when needs_r and epsilon when
    needs_epsilon (each must be given: a missing one raises ValueError),
    then writes the sweep_radius promise onto the outcome's diagnostics.
    An unknown r* is sweep_radius's to find, not solve's.  Symmetric-only
    layers raise AsymmetricInput before any work.  solve looks the layer up
    by name at call time, so patching that name reaches it."""

    layer: Callable[..., SolveOutcome]
    needs_r: bool = False
    needs_epsilon: bool = False
    promise: dict = field(default_factory=dict)

    def solve(self, instance, k: int, r_star=None,
              epsilon=None) -> SolveOutcome:
        _require_k(k, _as_table(instance).shape[0])
        args = (r_star,) * self.needs_r + (epsilon,) * self.needs_epsilon
        outcome = globals()[self.layer.__name__](instance, k, *args)
        outcome.diagnostics.update(self.promise)
        return outcome


# Stable solver identifiers for the CLI and bench harness.
SOLVERS = {
    "ff2": Solver(_approximation),
    "hs": Solver(_hs, needs_r=True, promise={"consistency_factor": 2.0}),
    "thm3": Solver(exact_via_approximation),
    "alg1-2pr": Solver(asymmetric_2pr, needs_r=True,
                       promise={"consistency_factor": 1.0}),
    "thm5-3eps": Solver(symmetric_3eps, needs_r=True,
                        promise={"consistency_factor": 1.0, "monotone": True}),
    "alg2-3eps-asym": Solver(asymmetric_3eps, needs_r=True, promise={
        "consistency_factor": 3.0, "needs_hop_cover": True}),
    "alg3-linkage": Solver(weak_proximity_linkage),
    "alg4-2eps-as": Solver(approx_stability_2eps, needs_r=True,
                           needs_epsilon=True, promise={
                               "consistency_factor": 2.0, "monotone": True}),
}
