"""Ground-truth machinery: exhaustive solving, perturbations, falsification.

The brute-force solver is the reference against which every algorithm is
checked.  Perturbation builders follow the capped-pair construction that
makes the optimal cost under d' exactly alpha * r*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .core import (SCAN_CELLS, Clustering, StabilityParams, _as_table,
                   epsilon_distance, set_costs, voronoi_labels,
                   voronoi_partition)

DEFAULT_SUBSET_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    pass


class CapTooTight(ValueError):
    """A capped pair has d(p,q) > alpha * r*, so the cap would lower d."""

    def __init__(self, p, q, value, bound):
        self.p, self.q = p, q
        super().__init__(f"cannot cap ({p},{q}): d={value} > alpha*r*={bound}")


@dataclass(frozen=True, eq=False)
class Perturbation:
    """An alpha-perturbation d' of a base table d: d <= d' <= alpha*d.

    d' need not be a metric.
    """

    base: np.ndarray
    alpha: float
    dprime: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.dprime, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "dprime", d)

    def bounds_ok(self) -> bool:
        d = self.base
        return bool(np.all(self.dprime >= d) and np.all(self.dprime <= self.alpha * d))


@dataclass(frozen=True)
class OracleResult:
    optimal_radius: float
    optimal_center_sets: tuple  # every k-subset attaining the optimum
    # the index in optimal_center_sets of the first set inducing each
    # distinct partition, in set order; () when no set attains a finite score
    partitions: tuple

    @property
    def partition_unique(self) -> bool:
        """All optimal sets induce the same partition."""
        return len(self.partitions) == 1

    def clustering(self, table) -> Clustering:
        """Voronoi partition of the lexicographically first optimal set."""
        return voronoi_partition(table, self.optimal_center_sets[0])


def brute_force_optimal(table, k: int, budget: int = DEFAULT_SUBSET_BUDGET) -> OracleResult:
    """Enumerate every k-subset of centers and return the exact optimum.

    Works on any square nonnegative table, including non-metric
    perturbations.  Subsets are enumerated lexicographically; all
    minimizers are retained.  They are scored in chunks of at most
    ``SCAN_CELLS`` // (k n) subsets, so memory is O(SCAN_CELLS) beside the
    table and the minimizers, whatever C(n, k) is.
    """
    d = _as_table(table)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = comb(n, k)
    if total > budget:
        raise BudgetExceeded(f"C({n},{k}) = {total} exceeds budget {budget}")
    chunk = max(1, SCAN_CELLS // (k * n))
    subsets = itertools.combinations(range(n), k)
    best = np.inf
    minimizers = [np.empty((0, k), dtype=np.intp)]  # kept if every score is NaN
    for start in range(0, total, chunk):
        m = min(chunk, total - start)
        idx = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(subsets, m)), dtype=np.intp, count=m * k)
        idx = idx.reshape(m, k)
        scores = set_costs(d, idx)
        low = np.fmin.reduce(scores)  # a NaN score never ties or wins
        if low < best:
            best = low
            minimizers = [idx[scores == low]]
        elif low == best:
            minimizers.append(idx[scores == low])
    mins = np.concatenate(minimizers)
    # each point labelled by the smallest member of its cluster names the
    # partition; the first set with each such row holds its index
    first = {}
    for start in range(0, len(mins), chunk):
        lab = voronoi_labels(d, mins[start:start + chunk])
        smallest = (lab[:, None, :] == np.arange(k)[:, None]).argmax(axis=2)
        for i, row in enumerate(np.take_along_axis(smallest, lab, axis=1),
                                start):
            first.setdefault(row.tobytes(), i)
    return OracleResult(optimal_radius=float(best),
                        optimal_center_sets=tuple(map(tuple, mins.tolist())),
                        partitions=tuple(first.values()))


def build_lemma1_perturbation(instance, r_star: float, alpha: float,
                              capped_pairs) -> Perturbation:
    """Scale every distance by alpha, capping the given pairs at alpha*r*.

    Requires d(p,q) <= alpha*r* for every capped pair so the cap never
    drops below d.  The result satisfies "d >= r* implies d' >= alpha*r*",
    hence its optimal cost is exactly alpha*r*.
    """
    d = _as_table(instance)
    dprime = alpha * d
    bound = alpha * r_star
    for p, q in capped_pairs:
        if d[p, q] > bound:
            raise CapTooTight(p, q, d[p, q], bound)
        dprime[p, q] = min(alpha * d[p, q], bound)
    return Perturbation(base=d, alpha=alpha, dprime=dprime)


def sample_perturbation(instance, alpha: float, seed: int) -> Perturbation:
    """Each off-diagonal entry scaled by an independent uniform [1, alpha] draw."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    d = _as_table(instance)
    n = d.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, alpha, size=(n, n))
    np.fill_diagonal(u, 1.0)
    return Perturbation(base=d, alpha=alpha, dprime=d * u)


@dataclass(frozen=True)
class FalsifierResult:
    status: str  # "falsified" | "none-found" | "budget-exceeded"
    perturbation: Perturbation = None
    violating_clustering: Clustering = None
    opt_clustering: Clustering = None
    eps_dist: float = None
    tried: int = 0
    opt_unique: bool = True


def _check_perturbation(d, k, opt_part, epsilon, oracle_budget):
    """Return the first d'-optimal clustering farther than epsilon from OPT.

    epsilon_distance is label-free, so one clustering per distinct
    partition decides; the first set inducing it is the first such set.
    """
    res = brute_force_optimal(d.dprime, k, budget=oracle_budget)
    for i in res.partitions:
        cl = voronoi_partition(d.dprime, res.optimal_center_sets[i])
        eps = epsilon_distance(cl, opt_part)
        if eps > epsilon:
            return cl, eps
    return None, None


def falsify_resilience(instance, k: int, params: StabilityParams,
                       budget: int = 200, seed: int = 0,
                       oracle_budget: int = DEFAULT_SUBSET_BUDGET) -> FalsifierResult:
    """Search for an alpha-perturbation whose optimum is > epsilon from OPT.

    Tries up to ``budget`` >= 0 perturbations from one stream: first the
    capped-pair perturbations used in all the impossibility arguments (cap
    distances from each point q to each optimal cluster, skipping a q with
    no pair to cap), then seeded uniform random perturbations.  The status
    is

    - "falsified": a tried perturbation has a d'-optimal clustering more
      than epsilon from OPT; the first such one is returned;
    - "budget-exceeded": none did and a capped perturbation is untried;
    - "none-found": none did and every capped perturbation was tried.

    Finite search can only falsify; "none-found" is not a certificate of
    resilience.  Every counterexample is re-validated before it is
    returned: the perturbation bounds must hold and the violating
    clustering must be optimal under d' and > epsilon from OPT.  Raises
    ValueError, before any oracle call, when alpha * max d overflows.
    """
    d = _as_table(instance)
    if not isfinite(params.alpha * float(d.max())):
        raise ValueError(f"alpha = {params.alpha!r} times the largest "
                         "distance is not a finite double")
    opt = brute_force_optimal(d, k, budget=oracle_budget)
    r_star = opt.optimal_radius
    opt_part = opt.clustering(d)
    alpha, epsilon = params.alpha, params.epsilon
    bound = alpha * r_star
    capped = filter(None, ([(q, t) for t in ci if t != q and d[q, t] <= bound]
                           for ci in opt_part.clusters() for q in range(len(d))))
    stream = itertools.chain(
        (build_lemma1_perturbation(d, r_star, alpha, pairs)
         for pairs in capped),
        (sample_perturbation(d, alpha, seed + i) for i in itertools.count()))
    tried = 0
    for tried, pert in enumerate(itertools.islice(stream, budget), 1):
        cl, eps = _check_perturbation(pert, k, opt_part, epsilon, oracle_budget)
        if cl is None:
            continue
        assert pert.bounds_ok(), "counterexample violates perturbation bounds"
        re_cl, re_eps = _check_perturbation(pert, k, opt_part, epsilon, oracle_budget)
        assert re_cl is not None and re_eps > epsilon, "counterexample did not re-validate"
        return FalsifierResult(status="falsified", perturbation=pert,
                               violating_clustering=cl, opt_clustering=opt_part,
                               eps_dist=eps, tried=tried,
                               opt_unique=opt.partition_unique)
    # islice stops without pulling past the budget, so the next pair list
    # is the first untried capped perturbation, if any is left
    status = "none-found" if next(capped, None) is None else "budget-exceeded"
    return FalsifierResult(status=status, tried=tried, opt_clustering=opt_part,
                           opt_unique=opt.partition_unique)
