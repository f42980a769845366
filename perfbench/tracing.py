"""In-memory span tracing around calls into the package's layers.

Spans are recorded from outside the program: each traced function is
replaced, in its defining module and in every package module that imported
it by name, with one wrapper that records (name, start, end, parent span,
job id, count).  Nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import math
import time

PACKAGE = "kcenter_resilience"
LAYERS = ("cli", "kci", "core", "solvers", "oracle", "analysis", "generators")

# layer -> functions traced in it, by their public name
TRACED = {
    "cli": ("main",),
    "kci": ("parse_instance", "emit_instance", "emit_clustering",
            "write_atomic"),
    "core": ("validate_instance", "threshold_components", "ball",
             "symmetrized_set", "voronoi_partition", "epsilon_distance"),
    "solvers": ("sweep_radius", "symmetric_3eps", "approx_stability_2eps",
                "asymmetric_2pr", "asymmetric_3eps", "weak_proximity_linkage",
                "farthest_first", "hochbaum_shmoys_cover"),
    "oracle": ("brute_force_optimal", "falsify_resilience",
               "build_lemma1_perturbation", "sample_perturbation"),
    "analysis": ("check_structure", "find_cluster_capturing_centers"),
    "generators": ("gen_planted_symmetric", "gen_planted_asymmetric",
                   "gen_bad_center_18"),
}


def _points(table):
    """Point count of an Instance or of a square distance table."""
    return table.n if hasattr(table, "n") else len(table)


# Counts taken at the span boundary: (args, kwargs, result) -> number.
def _cells(args, kwargs, result):
    return _points(args[0]) ** 3  # validate_instance's n x n x n comparison


def _subsets(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return math.comb(_points(args[0]), k)


COUNTERS = {
    "core.validate_instance": _cells,
    "kci.parse_instance": lambda a, kw, res: len(a[0]),
    "oracle.brute_force_optimal": _subsets,
    "oracle.falsify_resilience": lambda a, kw, res: res.tried,
    "solvers.weak_proximity_linkage":
        lambda a, kw, res: len(res.diagnostics["committed_edges"]),
}


class Tracer:
    """Records spans for the functions in TRACED while installed.

    ``spans`` holds one list per span: [name, start, end, parent index,
    job id, count].  Spans are appended when they open, so a parent's index
    is always smaller than its children's.
    """

    def __init__(self):
        self.spans = []
        self.job = None
        self.validate_samples = {}  # (n, mode) -> a table validate_instance saw
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def span(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1,
                   self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _sweep(self, fn):
        """sweep_radius, with its solver callback counted as candidates."""
        tracer = self

        def traced_sweep(instance, k, solver):
            calls = 0

            def candidate(*args, **kwargs):
                nonlocal calls
                calls += 1
                return solver(*args, **kwargs)

            try:
                return fn(instance, k, candidate)
            finally:
                tracer.spans[tracer._stack[-1]][5] = calls

        return self.span("solvers.sweep_radius", traced_sweep)

    def _validate(self, fn):
        def sampled(raw_table, mode, *args, **kwargs):
            key = (_points(raw_table), mode)
            self.validate_samples.setdefault(key, raw_table)
            return fn(raw_table, mode, *args, **kwargs)

        return self.span("core.validate_instance", sampled,
                         COUNTERS["core.validate_instance"])

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        modules[""] = importlib.import_module(PACKAGE)
        for layer, names in TRACED.items():
            for attr in names:
                original = getattr(modules[layer], attr)
                name = f"{layer}.{attr}"
                if name == "solvers.sweep_radius":
                    wrapper = self._sweep(original)
                elif name == "core.validate_instance":
                    wrapper = self._validate(original)
                else:
                    wrapper = self.span(name, original, COUNTERS.get(name))
                # callers use `from .core import ball` and the like, so the
                # attribute is replaced wherever the same function is bound
                for module in modules.values():
                    if getattr(module, attr, None) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


def self_times(spans):
    """Per span, its duration minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def covered_time(spans, names):
    """Wall time inside spans named in ``names``, counting nested ones once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, rec in enumerate(spans):
        parent_inside = rec[3] >= 0 and inside[rec[3]]
        inside[i] = parent_inside or rec[0] in names
        if inside[i] and not parent_inside:
            total += rec[2] - rec[1]
    return total


def aggregate(spans):
    """name -> {"s": self seconds, "calls": n, "count": summed count}."""
    out = {}
    for rec, own in zip(spans, self_times(spans)):
        agg = out.setdefault(rec[0], {"s": 0.0, "calls": 0, "count": 0})
        agg["s"] += own
        agg["calls"] += 1
        if rec[5] is not None:
            agg["count"] += rec[5]
    return out


def job_counts(spans):
    """job id -> {span name: summed count} for spans that carry a count."""
    out = {}
    for rec in spans:
        if rec[5] is not None:
            per_job = out.setdefault(rec[4], {})
            per_job[rec[0]] = per_job.get(rec[0], 0) + rec[5]
    return out


def write_spans(spans, path):
    """Tab-separated spans: index, name, start, end, parent, job, count."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart\tend\tparent\tjob\tcount\n")
        for i, (name, start, end, parent, job, count) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{job}\t"
                     f"{'' if count is None else count}\n")
