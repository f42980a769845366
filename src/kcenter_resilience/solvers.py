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

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .core import (Clustering, Instance, _as_table, ball, components,
                   label_groups, mutual_within, symmetrized_set,
                   threshold_components, voronoi_partition, EmptyA)


PATCH_BUDGET = 5_000_000  # asymmetric_3eps's patch enumeration limit


class AsymmetricInput(ValueError):
    pass


class NeedsMoreCenters(RuntimeError):
    def __init__(self, count, k):
        self.count, self.k = count, k
        super().__init__(f"cover needs {count} centers, only {k} allowed")


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


def farthest_first(instance, k: int):
    """Gonzalez farthest-first traversal; 2-approximation on symmetric metrics.

    Seeds at point 0 for reproducibility; each next center is the point
    farthest from the chosen set (smallest index on ties).
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    centers = [0]
    mind = d[0].copy()
    mind[0] = -1.0  # below every distance: a center is never picked again
    while len(centers) < k:
        nxt = int(mind.argmax())
        centers.append(nxt)
        mind[nxt] = -1.0
        mind = np.minimum(mind, d[nxt])
    return tuple(centers)


def hochbaum_shmoys_cover(instance, r: float, k: int):
    """Greedy cover: pick the smallest-index unmarked point, mark within 2r.

    Returns the chosen centers (cost <= 2r) or raises NeedsMoreCenters if
    more than k are consumed.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    d = _as_table(instance)
    n = d.shape[0]
    unmarked = np.ones(n, dtype=bool)
    centers = []
    while unmarked.any():
        c = int(unmarked.argmax())  # smallest unmarked index
        centers.append(c)
        unmarked &= ~(d[c] <= 2 * r)
        if len(centers) > k:
            raise NeedsMoreCenters(len(centers), k)
    return tuple(centers)


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
    try:
        sym = symmetrized_set(instance, r_star)
    except EmptyA:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set"})
    a = list(sym.members)
    aset = set(a)
    balls = {c: set(ball(d, c, r_star, domain=a)) for c in a}
    full_ball_sizes = {c: len(ball(d, c, r_star)) for c in a}

    pruned_leak = []
    for c in a:
        g = balls[c]
        outside = [q for q in a if q not in g]
        if any(d[q, p] < d[c, p] for p in g for q in outside):
            pruned_leak.append(c)
    survivors = [c for c in a if c not in set(pruned_leak)]

    pruned_subset = []
    for p in survivors:
        for q in survivors:
            if p == q:
                continue
            if balls[p] < balls[q] or (balls[p] == balls[q] and q < p):
                pruned_subset.append(p)
                break
    survivors = [c for c in survivors if c not in set(pruned_subset)]

    diagnostics = {
        "surviving": len(survivors),
        "pruned_leak": len(pruned_leak),
        "pruned_subset": len(pruned_subset),
        "ball_sizes_restricted": {c: len(balls[c]) for c in survivors},
        "ball_sizes_unrestricted": {c: full_ball_sizes[c] for c in survivors},
        "consistency_factor": 1.0,
    }
    if len(survivors) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)

    groups = [sorted(balls[c]) for c in survivors]
    covered = set().union(*(set(g) for g in groups))
    if covered != aset or sum(len(g) for g in groups) != len(a):
        diagnostics["reason"] = "surviving balls do not partition A"
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    owner = {}
    for i, g in enumerate(groups):
        for p in g:
            owner[p] = i
    for p, ap in sym.nearest_in_A.items():
        groups[owner[ap]].append(p)
    groups = [sorted(g) for g in groups]
    groups.sort(key=min)
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(d, groups),
                        diagnostics=diagnostics)


def symmetric_3eps(instance, k: int, r_star: float) -> SolveOutcome:
    """Connected components of the threshold graph at r*.

    Exact under (3,eps)-perturbation resilience with optimal clusters
    larger than max(2*eps*n, 3).
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    comps = threshold_components(d, threshold=r_star)
    diagnostics = {"component_count": len(comps), "consistency_factor": 1.0}
    if len(comps) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(d, comps),
                        diagnostics=diagnostics)


def asymmetric_3eps(instance, k: int, r_star: float) -> SolveOutcome:
    """Cover-and-patch algorithm for asymmetric k-center under (3,eps)-PR.

    Covers the symmetrized set A in the hop metric of its threshold graph
    (one hop = one r* edge) with k' centers for k' = k-6 ... k, then brute
    forces up to 6 replacement centers so that k centers cover all of S
    within 3r* under the original distances.  The Voronoi partition of the
    patched centers is epsilon-close to optimal under the promise.
    """
    d = _as_table(instance)
    n = d.shape[0]
    try:
        sym = symmetrized_set(instance, r_star)
    except EmptyA:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "empty symmetrized set"})
    a = list(sym.members)
    sub = d[np.ix_(a, a)]
    adj = mutual_within(sub, r_star)
    hops = shortest_path(adj.astype(float), method="D", unweighted=True)

    cover_local = None
    k_prime_used = None
    for k_prime in range(max(1, k - 6), k + 1):
        try:
            cover_local = hochbaum_shmoys_cover(hops, r=1.0, k=k_prime)
        except NeedsMoreCenters:
            continue
        k_prime_used = k_prime
        break
    if cover_local is None:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"reason": "no hop cover for any k' <= k"})
    c_set = tuple(a[i] for i in cover_local)

    def patches():  # (x, centers): k - x kept from c_set, x others added
        for x in range(0, min(6, k) + 1):
            for kept in itertools.combinations(c_set, k - x):
                kept_s = set(kept)
                pool = [p for p in range(n) if p not in kept_s]
                for extra in itertools.combinations(pool, x):
                    yield x, list(kept) + list(extra)

    chosen = x_used = None
    reason = "no 3r* cover with x <= 6"
    work = 0
    for x, cand in patches():
        if work == PATCH_BUDGET:
            reason = f"patch enumeration exceeded budget {PATCH_BUDGET}"
            break
        work += 1
        if d[cand].min(axis=0).max() <= 3 * r_star:
            chosen, x_used = tuple(sorted(cand)), x
            break
    diagnostics = {"k_prime": k_prime_used, "hop_cover": c_set,
                   "x": x_used, "patch_work": work,
                   "consistency_factor": 3.0}
    if chosen is None:
        return SolveOutcome(status="not-resilient",
                            diagnostics={**diagnostics, "reason": reason})
    cl = voronoi_partition(d, chosen)
    return SolveOutcome(status="eps-close-claim", clustering=cl,
                        diagnostics=diagnostics)


@dataclass(frozen=True)
class ClusterVerifier:
    """Oracle f over point sets: f < 0 strictly inside an optimal cluster,
    f >= 0 on supersets of one."""

    kind: str
    fn: object

    def __call__(self, members):
        return self.fn(members)

    @classmethod
    def equal_size(cls, n: int, k: int):
        """All optimal clusters have n/k points: f(B) = |B| - n/k."""
        return cls(kind="equal-size", fn=lambda b: len(b) - n / k)

    @classmethod
    def target_cost(cls, instance, target: float):
        """All optimal clusters share a 1-center cost: f(B) = cost(B) - target."""
        d = _as_table(instance)

        return cls(kind="target-cost",
                   fn=lambda b: _one_center(d, b)[1] - target)


def weak_proximity_linkage(instance, k: int,
                           verifier: ClusterVerifier) -> SolveOutcome:
    """Guarded single linkage for any center-based objective.

    Repeatedly runs single linkage on the current components, refusing to
    merge two components that both verify (f >= 0), until every component
    verifies; then keeps only the very last linkage edge and starts over.
    Under weak center proximity plus cluster verifiability the components
    at k are exactly the optimal clusters.
    """
    _require_symmetric(instance)
    d = _as_table(instance)
    n = d.shape[0]
    labels = np.arange(n)  # a component's label is its smallest member
    committed = []

    def stuck(reason):
        return SolveOutcome(status="not-resilient", diagnostics={
            "reason": reason, "committed_edges": tuple(committed)})

    while len(set(labels.tolist())) > k:
        scratch = labels.copy()
        comps = {g[0]: g for g in label_groups(scratch)}
        fval = {root: verifier(m) for root, m in comps.items()}
        last_edge = None
        while any(v < 0 for v in fval.values()):
            if len(comps) == 1:
                return stuck("a single component still has f < 0")
            # two or more components, one with f < 0: some pair is eligible
            neg = np.array([fval[scratch[p]] < 0 for p in range(n)])
            diff = scratch[:, None] != scratch[None, :]
            eligible = diff & (neg[:, None] | neg[None, :])
            masked = np.where(eligible, d, np.inf)
            flat = int(masked.argmin())  # row-major: smallest (p, q) on ties
            p, q = divmod(flat, n)
            rp, rq = scratch[p], scratch[q]
            keep, drop = min(rp, rq), max(rp, rq)
            members = comps.pop(drop) + comps.pop(keep)
            scratch[scratch == drop] = keep
            comps[keep] = members
            fval.pop(drop)
            fval.pop(keep)
            fval[keep] = verifier(members)
            last_edge = (int(min(p, q)), int(max(p, q)))
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
    within = d <= 2 * r_star  # within[p] = membership mask of B_{2r*}(p)
    counts = within.astype(np.int64) @ within.T.astype(np.int64)
    comps = components(counts > epsilon * n)
    diagnostics = {"component_count": len(comps), "consistency_factor": 2.0}
    if len(comps) != k:
        return SolveOutcome(status="not-resilient", diagnostics=diagnostics)
    return SolveOutcome(status="exact-claim",
                        clustering=_clustering_from_groups(d, comps),
                        diagnostics=diagnostics)


def sweep_radius(instance, k: int, solver):
    """Guess-and-check wrapper for r*-parameterized solvers.

    Tries every distinct off-diagonal distance (plus 0) in ascending order
    as the candidate radius and returns the first successful,
    self-consistent outcome together with the chosen radius.  The optimal
    radius is always among the candidates because it is attained by some
    center-point pair.  When none works it returns a not-resilient outcome
    whose diagnostics["sweep_log"] holds each candidate's (r, status), and
    None for the radius.
    """
    d = _as_table(instance)
    n = d.shape[0]
    off = d[~np.eye(n, dtype=bool)]
    candidates = sorted(set([0.0] + off.tolist()))
    log = []
    for r in candidates:
        outcome = solver(instance, k, r)
        if not outcome.ok:
            log.append((r, outcome.status))
            continue
        factor = outcome.diagnostics.get("consistency_factor", 1.0)
        if _self_consistent(d, outcome.clustering, r * factor):
            return outcome, r
        log.append((r, "inconsistent"))
    return SolveOutcome(status="not-resilient", diagnostics={
        "reason": "no candidate radius works", "sweep_log": tuple(log)}), None


def _self_consistent(d, clustering, r):
    """Every cluster has some member within r of all its members."""
    return all(_one_center(d, g)[1] <= r for g in clustering.clusters() if g)


def _approximation(instance, centers):
    """Voronoi partition of 2-approximate centers, claiming nothing more."""
    return SolveOutcome(status="approximation-only",
                        clustering=voronoi_partition(instance, centers),
                        diagnostics={"consistency_factor": 2.0})


def _hs(instance, k, r_star, epsilon):
    try:
        centers = hochbaum_shmoys_cover(instance, r_star, k)
    except NeedsMoreCenters as e:
        return SolveOutcome(status="not-resilient",
                            diagnostics={"needed": e.count})
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
        inst, k, ClusterVerifier.equal_size(_as_table(inst).shape[0], k))),
    "alg4-2eps-as": Solver(lambda inst, k, r, eps:
                           approx_stability_2eps(inst, k, r, eps),
                           needs_r=True, needs_epsilon=True),
}
