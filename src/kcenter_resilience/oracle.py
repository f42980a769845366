"""Ground-truth machinery: exhaustive solving, perturbations, falsification.

The brute-force solver is the reference against which every algorithm is
checked.  Perturbation builders follow the capped-pair construction that
makes the optimal cost under d' exactly alpha * r*.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from math import comb, isfinite
from numbers import Integral

import numpy as np

from .core import (SCAN_CELLS, Clustering, StabilityParams, _as_table,
                   _frozen_table, _gallop, _require_k, _traverse,
                   epsilon_distance, set_costs, voronoi_labels,
                   voronoi_partition)

DEFAULT_SUBSET_BUDGET = 2_000_000
# the falsifier keeps at most this many cells (sets times k) of base-table
# center sets to screen each d' on; past it every d' is scanned in full
KEPT_CELLS = SCAN_CELLS


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
        object.__setattr__(self, "dprime", _frozen_table(d, self.dprime))

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


def _scored_blocks(d, k):
    """Every k-subset of range(n) scored once, a block at a time: yields
    (heads, start, scores) with scores[i, j] = cost_d(heads[i] + (start + j,)).

    The heads are the (k-1)-subsets grouped by their last member b (for
    k = 1 the empty set, b = -1), and their tails the members after b, at
    most SCAN_CELLS // n at a time.  Each head's closest-center row is
    formed once and scores its tails in one pass, n cells per set.  A block
    of m heads and w tails holds at most m (max(w, k) + 1) n <= SCAN_CELLS
    cells (one head when that passes it): the scores or the heads' gather,
    beside their closest rows and the previous block's."""
    n = d.shape[0]
    span = max(1, SCAN_CELLS // n)
    for b in range(k - 2, n - 1) if k > 1 else [-1]:
        ends = (b,) if k > 1 else ()  # k = 1: one empty head, every tail
        lead = k - 1 - len(ends)
        count = comb(max(b, 0), lead)
        prefixes = (h + ends for h in itertools.combinations(range(b), lead))
        m = max(1, SCAN_CELLS // (n * (max(min(span, n - 1 - b), k) + 1)))
        for done in range(0, count, m):
            rows = min(m, count - done)
            heads = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(prefixes, rows)),
                dtype=np.intp, count=rows * (k - 1)).reshape(rows, k - 1)
            closest = d[heads].min(axis=1, initial=np.inf)  # +inf: no head
            for start in range(b + 1, n, span):
                tails = d[start:start + span]
                # in place: numpy then buffers one broadcast operand, not two
                scores = np.repeat(closest[:, None], len(tails), axis=1)
                scores = np.minimum(scores, tails, out=scores).max(axis=2)
                yield heads, start, scores


def _sets(heads, start, hit):
    """The sets of a scored block where ``hit`` holds, as (m, k) rows."""
    i, j = np.nonzero(hit)
    return np.column_stack([heads[i], start + j])


def _lexicographic(sets):
    return sets[np.lexsort(sets.T[::-1])]


def _partition_keys(rows, sets):
    """The ``voronoi_labels`` of each set from its center rows, with each
    point labelled by the smallest member of its cluster: two keys are equal
    exactly when their partitions are."""
    labels, k = voronoi_labels(rows, sets), sets.shape[1]
    smallest = (labels[:, None, :] == np.arange(k)[:, None]).argmax(axis=2)
    return np.take_along_axis(smallest, labels, axis=1)


def brute_force_optimal(table, k: int,
                        budget: int = DEFAULT_SUBSET_BUDGET) -> OracleResult:
    """Enumerate every k-subset of centers and return the exact optimum.

    Works on any square nonnegative table, including non-metric
    perturbations; raises ValueError on any other shape.  All minimizers
    are retained, in lexicographic order.  Each set is scored once from its
    (k-1)-prefix's closest-center row, n cells per set, in blocks of at
    most ``SCAN_CELLS`` cells, so memory is O(SCAN_CELLS) beside the table
    and the minimizers, whatever C(n, k) is.
    """
    d = _as_table(table)
    n = d.shape[0]
    _require_k(k, n)
    total = comb(n, k)
    if total > budget:
        raise BudgetExceeded(f"C({n},{k}) = {total} exceeds budget {budget}")
    best = np.inf
    minimizers = [np.empty((0, k), dtype=np.intp)]  # kept if every score is NaN
    for heads, start, scores in _scored_blocks(d, k):
        low = np.fmin.reduce(scores, axis=None)  # a NaN never ties or wins
        if low < best:
            best = low
            minimizers = [_sets(heads, start, scores == low)]
        elif low == best:
            minimizers.append(_sets(heads, start, scores == low))
    mins = _lexicographic(np.concatenate(minimizers))
    # the first set with each partition key holds its index
    first = {}
    chunk = max(1, SCAN_CELLS // (k * n))
    for start in range(0, len(mins), chunk):
        sets = mins[start:start + chunk]
        for i, key in enumerate(_partition_keys(d[sets], sets), start):
            first.setdefault(key.tobytes(), i)
    return OracleResult(optimal_radius=float(best),
                        optimal_center_sets=tuple(map(tuple, mins.tolist())),
                        partitions=tuple(first.values()))


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


def _covers(within, k, spend):
    """Do k centers cover every point, c covering p where within[c, p]?

    A search tree: branch on the centers covering the uncovered point with
    the fewest of them, those covering more uncovered points first.  Prune
    when the k_left largest covers of the uncovered points add up to fewer
    than them, or when k_left + 1 uncovered points share no center pairwise
    (picked greedily, fewest centers first).  spend() is called once per
    node."""
    def search(uncovered, left):
        spend()
        if not uncovered.any():
            return True
        sub = within[:, uncovered]
        counts, fewest = sub.sum(axis=1), sub.sum(axis=0)
        if left == 0 or np.sort(counts)[-left:].sum() < len(fewest):
            return False
        free = fewest.astype(float)  # inf once it shares a center with a pick
        for _ in range(left + 1):
            p = int(free.argmin())
            if free[p] == np.inf:
                break
            free[sub[sub[:, p]].any(axis=0)] = free[p] = np.inf
        else:
            return False
        options = np.flatnonzero(sub[:, fewest.argmin()])
        options = options[np.argsort(-counts[options], kind="stable")]
        return any(search(uncovered & ~within[c], left - 1)
                   for c in options.tolist())
    return search(np.ones(within.shape[0], dtype=bool), k)


def optimal_radius(table, k: int, budget: int) -> float:
    """The optimal k-center radius of any square table, exactly, by search.

    OPT is an entry of the table.  Over the distinct entries from
    _opt_lower_bound(d, k) up, it gallops (steps 1, 2, 4, ...) and bisects
    the last step for the first t at which k centers cover every point
    within t (d[c, p] <= t), a dominating-set question on the threshold
    graph (Hochbaum & Shmoys 1985) decided by _covers; the largest entry
    needs no search.  Every search node counts against ``budget``; past it
    raises BudgetExceeded, never a guess.  Raises ValueError, as
    brute_force_optimal does, on a bad k or a non-square table, and on a
    NaN entry.
    """
    d = _as_table(table)
    _require_k(k, d.shape[0])
    if np.isnan(d).any():
        raise ValueError("table entries must not be NaN")
    candidates = np.unique(d).tolist()
    nodes = itertools.count(1)

    def spend():
        if next(nodes) > budget:
            raise BudgetExceeded(f"search passed {budget} nodes")

    lo = bisect.bisect_left(candidates, _opt_lower_bound(d, k))
    best = _gallop(lambda i: _covers(d <= candidates[i], k, spend),
                   lo, len(candidates) - 1)
    return candidates[best] + 0.0  # + 0.0 turns -0.0 into 0.0


def _require_finite_scale(d, alpha):
    """Raise ValueError unless alpha >= 1 and alpha times the largest
    distance is a finite double, so alpha * d and any d' <= alpha * d hold
    no inf or NaN."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not isfinite(alpha * float(d.max(initial=0.0))):
        raise ValueError(f"alpha = {alpha!r} times the largest "
                         "distance is not a finite double")


def build_lemma1_perturbation(instance, r_star: float, alpha: float,
                              capped_pairs) -> Perturbation:
    """Scale every distance by alpha, capping the given pairs at alpha*r*.

    Requires d(p,q) <= alpha*r* for every capped pair so the cap never
    drops below d.  The result satisfies "d >= r* implies d' >= alpha*r*",
    hence its optimal cost is exactly alpha*r*.
    """
    d = _as_table(instance)
    _require_finite_scale(d, alpha)
    dprime = alpha * d
    bound = alpha * r_star
    for p, q in capped_pairs:
        if d[p, q] > bound:
            raise CapTooTight(p, q, d[p, q], bound)
        dprime[p, q] = min(alpha * d[p, q], bound)
    dprime.flags.writeable = False  # handed over: Perturbation keeps it
    return Perturbation(base=d, alpha=alpha, dprime=dprime)


def sample_perturbation(instance, alpha: float, seed: int) -> Perturbation:
    """Each off-diagonal entry scaled by an independent uniform [1, alpha] draw."""
    d = _as_table(instance)
    _require_finite_scale(d, alpha)
    return _random_perturbation(d, alpha, seed)


def _random_perturbation(d, alpha, seed):
    """sample_perturbation on a table already checked by _as_table and
    _require_finite_scale."""
    n = d.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, alpha, size=(n, n))
    np.fill_diagonal(u, 1.0)
    dprime = d * u
    dprime.flags.writeable = False  # handed over: Perturbation keeps it
    return Perturbation(base=d, alpha=alpha, dprime=dprime)


@dataclass(frozen=True)
class FalsifierResult:
    status: str  # "falsified" | "none-found" | "budget-exceeded"
    perturbation: Perturbation = None
    violating_clustering: Clustering = None
    opt_clustering: Clustering = None
    eps_dist: float = None
    tried: int = 0
    opt_unique: bool = True


def _kept_sets(d, k, bound):
    """The center sets with cost_d(S) <= bound, in lexicographic order, or
    None when they pass KEPT_CELLS cells."""
    sets, cells = [], 0
    for heads, start, scores in _scored_blocks(d, k):
        sets.append(_sets(heads, start, scores <= bound))
        cells += sets[-1].size
        if cells > KEPT_CELLS:
            return None
    return _lexicographic(np.concatenate(sets))


def _screen(batch, d, kept, bound, opt_key, chunk):
    """Which perturbations of ``batch`` the base-cost cut covers (see
    falsify_resilience), and, for each covered one with a d'-optimal set
    whose partition is not OPT's (partition key ``opt_key``), the first such
    set of each such partition, in lexicographic order, as ``{batch index:
    (m, k) array}``.  A covered d' not in it is cleared.

    The batch's tables are stacked once by columns, ``cols[b, p, c] =
    d'_b[c, p]``, and scored on the kept sets ``chunk`` sets at a time by
    set_costs.  Each pair of a covered d' and a d'-optimal set is keyed by
    _partition_keys on its set's rows of that d' alone, taken from the
    same stack, as many pairs at a time as the batch has scores in a chunk.
    """
    if kept is None:
        return np.zeros(len(batch), dtype=bool), {}
    # stacking copies, so the transposed views cost no extra pass
    cols = np.stack([pert.dprime.T for pert in batch])
    scores = np.concatenate([set_costs(cols, kept[s:s + chunk])
                             for s in range(0, len(kept), chunk)], axis=1)
    best = scores.min(axis=1, keepdims=True)
    covered = np.all(cols >= d.T, axis=(1, 2)) & (best[:, 0] <= bound)
    # row-major: j ascends within each b
    b, j = np.nonzero((scores == best) & covered[:, None])
    keys = np.empty((len(b), d.shape[0]), dtype=np.intp)
    step = len(batch) * chunk
    for s in range(0, len(b), step):
        sets = kept[j[s:s + step]]
        # (pairs, k, n): row i, slot j is d'_{b_i}[sets[i, j]]
        keys[s:s + step] = _partition_keys(cols[b[s:s + step, None], :, sets],
                                           sets)
    first = {}  # the first pair of each d' and partition but OPT's
    for p in np.flatnonzero((keys != opt_key).any(axis=1)).tolist():
        first.setdefault((b[p], keys[p].tobytes()), p)
    far = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return covered, {i: kept[j[far[b[far] == i]]] for i in set(b[far].tolist())}


def _oracle_sets(dprime, k, oracle_budget):
    """A full scan's first d'-optimal set of each partition, OPT's too: it is
    at epsilon-distance 0 from OPT, so _check_perturbation passes over it."""
    res = brute_force_optimal(dprime, k, budget=oracle_budget)
    return np.asarray(res.optimal_center_sets)[list(res.partitions)]


def _check_perturbation(dprime, sets, opt_part, epsilon):
    """Return the first clustering of ``sets`` farther than epsilon from OPT.

    ``sets`` holds the first d'-optimal set of each partition (the screen's
    leave OPT's out, the full scan's may hold it, at distance 0 from OPT);
    epsilon_distance is label-free, so any set of a partition would give
    the same distance."""
    for centers in sets:
        cl = voronoi_partition(dprime, centers)
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
    resilience.  Every counterexample is re-validated, by a full oracle
    scan, before it is returned: the perturbation bounds must hold and the
    violating clustering must be optimal under d' and > epsilon from OPT.
    Raises ValueError, before any scan, when ``budget`` or ``seed`` is not
    a non-negative integer, alpha * max d overflows or the table is not
    square.

    Each covered d' is decided on the center sets that can be optimal for
    it, with no oracle call.  Every d' in the stream has d <= d' <= alpha d,
    so cost_d(S) <= cost_d'(S) for every center set S.  The sets with
    cost_d <= alpha r* are kept once, in lexicographic order, and d' is
    covered when d' >= d entrywise and some kept set has cost_d'(S) <=
    alpha r*: then a d'-optimal set T has cost_d(T) <= OPT(d') <= alpha r*,
    so it is kept, and the kept sets hold every d'-optimal set.  The
    perturbations are pulled in batches of 1, 2, 4, ... tables, stacked
    by columns and scored a chunk of kept sets at a time, B n^2 + B chunk
    k n <= SCAN_CELLS cells (one table, its sets scored in chunks, when
    one fills it; SCAN_CELLS // (k n) sets beside it when one table
    leaves no room for a set).  Each pair of a covered d' and a
    d'-optimal set is labelled on that d' alone and named by its partition
    key, as in brute_force_optimal.  A covered d' whose optimal sets all
    induce OPT's partition is cleared; one with other partitions is checked
    on the first optimal set of each.  The oracle scans every set only for
    the base table, for a d' that is not covered (every d' when the kept
    sets pass KEPT_CELLS cells) and for the re-validation.
    """
    for name, value in (("budget", budget), ("seed", seed)):
        if not (isinstance(value, Integral) and value >= 0):
            raise ValueError(f"{name} must be a non-negative integer, "
                             f"got {value!r}")
    d = _as_table(instance)
    _require_finite_scale(d, params.alpha)
    opt = brute_force_optimal(d, k, budget=oracle_budget)
    r_star = opt.optimal_radius
    opt_part = opt.clustering(d)
    first = np.asarray(opt.optimal_center_sets[:1])
    opt_key = _partition_keys(d[first], first)[0]
    alpha, epsilon = params.alpha, params.epsilon
    bound = alpha * r_star
    capped = filter(None, ([(q, t) for t in ci if t != q and d[q, t] <= bound]
                           for ci in opt_part.clusters() for q in range(len(d))))
    stream = itertools.chain(
        (build_lemma1_perturbation(d, r_star, alpha, pairs)
         for pairs in capped),
        (_random_perturbation(d, alpha, seed + i)
         for i in itertools.count()))
    kept = _kept_sets(d, k, bound)
    # a batch of B tables scored on chunk kept sets at a time holds
    # B n^2 + B chunk k n <= SCAN_CELLS cells, or one table past that when
    # one table leaves no room for a set beside it
    n = d.shape[0]
    width = max(1, SCAN_CELLS // (n * n + (0 if kept is None else kept.size * n)))
    room = SCAN_CELLS // width - n * n
    chunk = max(1, (room if room >= k * n else SCAN_CELLS) // (k * n))
    perts = itertools.islice(stream, budget)
    tried = 0
    while batch := list(itertools.islice(perts, min(tried + 1, width))):
        covered, flagged = _screen(batch, d, kept, bound, opt_key, chunk)
        for i, pert in enumerate(batch):
            tried += 1
            if covered[i] and i not in flagged:
                continue
            sets = (flagged[i] if covered[i] else
                    _oracle_sets(pert.dprime, k, oracle_budget))
            cl, eps = _check_perturbation(pert.dprime, sets, opt_part, epsilon)
            if cl is None:
                continue
            assert pert.bounds_ok(), "counterexample violates perturbation bounds"
            re_cl, re_eps = _check_perturbation(
                pert.dprime, _oracle_sets(pert.dprime, k, oracle_budget),
                opt_part, epsilon)
            assert re_cl is not None and re_eps > epsilon, \
                "counterexample did not re-validate"
            return FalsifierResult(status="falsified", perturbation=pert,
                                   violating_clustering=cl,
                                   opt_clustering=opt_part, eps_dist=eps,
                                   tried=tried, opt_unique=opt.partition_unique)
    # islice stops without pulling past the budget, so the next pair list
    # is the first untried capped perturbation, if any is left
    status = "none-found" if next(capped, None) is None else "budget-exceeded"
    return FalsifierResult(status=status, tried=tried, opt_clustering=opt_part,
                           opt_unique=opt.partition_unique)
