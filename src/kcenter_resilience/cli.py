"""Command line entry point: solve, oracle, verify, generate, bench.

Exit codes: 0 success, 1 input error (usage errors and unwritable outputs
too: one `error:` line on stderr), 2 a solver's resilience promise visibly
failed (status not-resilient, with the outcome's reason if it has one), 3
the falsifier found a counterexample.  One command per invocation; output
files are written via temp-and-rename so a crash never leaves a partial file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb
from pathlib import Path

from . import kci
from .analysis import check_structure, find_cluster_capturing_centers
from .core import (Instance, InstanceViolation, StabilityParams,
                   epsilon_distance)
from .generators import (ConstructionCheckFailed, RejectionBudgetExceeded,
                         gen_bad_center_18, gen_eps_padding,
                         gen_from_dominating_set, gen_planted_asymmetric,
                         gen_planted_symmetric, gen_random_metric, named_graph)
from .oracle import (DEFAULT_SUBSET_BUDGET, BudgetExceeded,
                     brute_force_optimal, falsify_resilience)
from .solvers import SOLVERS, AsymmetricInput, sweep_radius

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROMISE = 2
EXIT_FALSIFIED = 3


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors leave through _InputError, not argparse's exit 2."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


def _non_negative(text):
    """argparse type of --r and --slack: a float >= 0 (nan is not)."""
    if float(text) >= 0:
        return float(text)
    raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")


def _read_instance(path, slack=0.0):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"cannot read {path}: {e}")
    try:
        return kci.parse_instance(text, slack=slack)
    except (kci.KciFormatError, InstanceViolation) as e:
        raise _InputError(f"{path}: {e}")


def _read_clustering(path):
    try:
        return kci.parse_clustering(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise _InputError(f"cannot read clustering {path}: {e}")


def _write(path, text):
    """Every output file goes through here: an OSError becomes exit 1."""
    try:
        kci.write_atomic(path, text)
    except OSError as e:
        raise _InputError(f"cannot write {path}: {e}")


def _check_k(k, n):
    if not 1 <= k <= n:
        raise _InputError(f"--k must be in 1..{n}, got {k}")


def cmd_solve(args):
    instance = _read_instance(args.input, slack=args.slack)
    solver = SOLVERS[args.algo]
    _check_k(args.k, instance.n)
    if solver.needs_epsilon and not (args.epsilon is not None
                                     and 0 <= args.epsilon <= 1):
        raise _InputError(f"solver {args.algo} needs --epsilon in [0, 1]")
    chosen_r = args.r
    try:
        if solver.needs_r and args.r is None:
            outcome, chosen_r = sweep_radius(
                instance, args.k,
                lambda inst, k, r: solver.solve(inst, k, r, args.epsilon))
        else:
            outcome = solver.solve(instance, args.k, chosen_r, args.epsilon)
    except AsymmetricInput:
        raise _InputError(f"solver {args.algo} needs a symmetric instance")
    if not outcome.ok:
        reason = outcome.diagnostics.get("reason")
        print(f"status {outcome.status}" + (f" ({reason})" if reason else ""))
        return EXIT_PROMISE
    _write(args.out or args.input + ".clustering.json",
           kci.emit_clustering(outcome.clustering))
    if chosen_r is not None:
        print(f"r {chosen_r!r}")
    print(f"radius {outcome.clustering.radius!r}")
    print(f"status {outcome.status}")
    return EXIT_OK


def cmd_oracle(args):
    instance = _read_instance(args.input, slack=args.slack)
    _check_k(args.k, instance.n)
    res = brute_force_optimal(instance.dist, args.k, budget=args.budget)
    if args.out:
        _write(args.out, kci.emit_clustering(res.clustering(instance.dist)))
    print(f"radius {res.optimal_radius!r}")
    print(f"optimal-center-sets {len(res.optimal_center_sets)}")
    print(f"partition-unique {'true' if res.partition_unique else 'false'}")
    return EXIT_OK


def cmd_verify(args):
    instance = _read_instance(args.instance, slack=args.slack)
    truth = _read_clustering(args.truth)
    if truth.n != instance.n:
        raise _InputError(f"truth has {truth.n} points, instance {instance.n}")
    r_star = args.r if args.r is not None else truth.radius
    try:
        params = StabilityParams(alpha=args.alpha, epsilon=args.epsilon)
    except ValueError as e:
        raise _InputError(str(e))
    structure = check_structure(instance, truth, r_star)
    ccc = find_cluster_capturing_centers(instance, truth, r_star)
    try:
        fals = falsify_resilience(instance, truth.k, params,
                                  budget=args.budget, seed=args.seed,
                                  oracle_budget=args.oracle_budget)
    except ValueError as e:  # alpha * d overflows
        raise _InputError(f"--alpha: {e}")
    report = {
        "r_star": r_star,
        "alpha": args.alpha,
        "epsilon": args.epsilon,
        "structure": kci.to_jsonable(structure),
        "cluster_capturing": kci.to_jsonable(ccc),
        "falsifier": {"status": fals.status, "tried": fals.tried,
                      "opt_unique": fals.opt_unique},
    }
    if fals.status == "falsified":
        report["counterexample"] = {
            "alpha": fals.perturbation.alpha,
            "dprime_kci": kci.emit_instance(
                Instance(instance.mode, fals.perturbation.dprime)),
            "opt_clustering": kci.clustering_to_dict(fals.opt_clustering),
            "violating_clustering": kci.clustering_to_dict(
                fals.violating_clustering),
            "epsilon_distance": fals.eps_dist,
        }
    _write(args.out or args.instance + ".report.json",
           json.dumps(report, indent=2) + "\n")
    print(f"falsifier {fals.status}")
    return EXIT_FALSIFIED if fals.status == "falsified" else EXIT_OK


def _emit_planted(planted, prefix):
    _write(prefix + ".kci", kci.emit_instance(planted.instance))
    _write(prefix + ".truth.json", kci.emit_clustering(planted.truth))
    _write(prefix + ".guarantee.json",
           json.dumps(kci.to_jsonable(planted.guarantee), indent=2) + "\n")
    print(f"wrote {prefix}.kci {prefix}.truth.json {prefix}.guarantee.json")


def cmd_generate(args):
    prefix = args.out_prefix or args.family
    try:
        if args.family in _BENCH_PARAMS:
            _emit_planted(_bench_instance(args.family, vars(args), args.seed),
                          prefix)
        elif args.family == "eps-padding":
            if args.base is None:
                raise _InputError("--base is required for eps-padding")
            _emit_planted(gen_eps_padding(_read_instance(args.base), args.k,
                                          args.alpha, args.epsilon), prefix)
        else:
            instance = (gen_from_dominating_set(*named_graph(args.graph))
                        if args.family == "dom-set"
                        else gen_random_metric(args.n, args.mode, args.seed))
            _write(prefix + ".kci", kci.emit_instance(instance))
            print(f"wrote {prefix}.kci")
    except (RejectionBudgetExceeded, ConstructionCheckFailed,
            ValueError) as e:  # InfeasibleParams is a ValueError
        raise _InputError(f"generation failed: {e}")
    return EXIT_OK


# bench family -> the params keys its generator reads
_BENCH_PARAMS = {"planted-sym": ("n", "k", "r", "alpha"),
                 "planted-asym": ("n", "k", "r", "alpha", "skew"),
                 "bad-center-18": ("alpha",)}


def _bench_instance(family, params, seed):
    if family == "planted-sym":
        return gen_planted_symmetric(params["n"], params["k"], params["r"],
                                     params["alpha"], seed)
    if family == "planted-asym":
        return gen_planted_asymmetric(params["n"], params["k"], params["r"],
                                      params["alpha"], params["skew"], seed)
    return gen_bad_center_18(params["alpha"])


def _bench_row(row, timing, oracle_budget):
    family = row["family"]
    params = row.get("params", {})
    seed = row.get("seed", 0)
    solver_id = row["solver"]
    params_str = ";".join(f"{key}={params[key]}" for key in sorted(params))
    eps_str = ratio_str = ""
    start = time.perf_counter()
    try:
        planted = _bench_instance(family, params, seed)
        instance, truth = planted.instance, planted.truth
        # solvers that take no r* ignore the planted radius
        outcome = SOLVERS[solver_id].solve(instance, truth.k, truth.radius,
                                           params.get("epsilon"))
        if outcome.ok:
            if outcome.clustering.k == truth.k:  # epsilon_distance needs one k
                eps_str = repr(epsilon_distance(outcome.clustering, truth))
            if comb(instance.n, truth.k) <= oracle_budget:
                opt = brute_force_optimal(instance.dist, truth.k)
                ratio_str = repr(outcome.clustering.radius / opt.optimal_radius
                                 if opt.optimal_radius > 0 else 1.0)
        status = outcome.status
    except Exception as e:  # per-row failures go in the CSV, not up the stack
        status = f"error:{type(e).__name__}"
        eps_str = ratio_str = ""
    wall_ms = (time.perf_counter() - start) * 1000.0
    wall_str = f"{wall_ms:.3f}" if timing else ""
    return (f"{family},{params_str},{seed},{solver_id},"
            f"{eps_str},{ratio_str},{wall_str},{status}")


def cmd_bench(args):
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (OSError, ValueError) as e:
        raise _InputError(f"cannot read manifest {args.manifest}: {e}")
    if not isinstance(manifest, list):
        raise _InputError("manifest must be a JSON list of rows")
    for i, row in enumerate(manifest):
        if not (isinstance(row, dict) and isinstance(row.get("family"), str)
                and isinstance(row.get("solver"), str)
                and row["solver"].isprintable() and "," not in row["solver"]
                and isinstance(row.get("params", {}), dict)
                and type(row.get("seed", 0)) is int
                and row.get("seed", 0) >= 0):
            raise _InputError(f"manifest row {i} must be an object with "
                              "family string, printable solver string "
                              "without commas, optional params object and "
                              "optional non-negative integer seed")
    for i, row in enumerate(manifest):  # shapes first, then params
        family, params = row["family"], row.get("params", {})
        if family not in _BENCH_PARAMS:
            raise _InputError(f"manifest row {i}: unknown family {family!r}; "
                              f"known: {', '.join(_BENCH_PARAMS)}")
        for key in _BENCH_PARAMS[family]:
            if key not in params:
                raise _InputError(f"manifest row {i}: {family} params "
                                  f"lack {key!r}")
        for key, value in params.items():
            if key not in _BENCH_PARAMS[family] + ("epsilon",):
                raise _InputError(f"manifest row {i}: {family} params "
                                  f"do not take {key!r}")
            if type(value) not in (int, float):
                raise _InputError(f"manifest row {i}: param {key!r} must be "
                                  f"a number, got {value!r}")
            if key in ("n", "k") and type(value) is not int:
                raise _InputError(f"manifest row {i}: param {key!r} must be "
                                  f"an integer, got {value!r}")
        solver = row["solver"]  # an unknown id stays a row error
        if (solver in SOLVERS and SOLVERS[solver].needs_epsilon
                and not 0 <= params.get("epsilon", -1) <= 1):
            raise _InputError(f"manifest row {i}: solver {solver} needs "
                              "params epsilon in [0, 1]")
    lines = ["family,params,seed,solver,eps_dist,radius_ratio,wall_ms,status"]
    for row in manifest:
        lines.append(_bench_row(row, timing=not args.no_timing,
                                oracle_budget=args.oracle_budget))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="kcenter-pr",
        description="k-center clustering under perturbation resilience")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("solve", help="run a recovery algorithm on a KCI file")
    p.add_argument("input")
    p.add_argument("--algo", required=True, choices=sorted(SOLVERS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=_non_negative, default=None,
                   help="optimal radius; swept over all distances if absent")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--slack", type=_non_negative, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimal clustering")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--slack", type=_non_negative, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify",
                       help="structure checks + resilience falsifier")
    p.add_argument("instance")
    p.add_argument("truth")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--r", type=_non_negative, default=None,
                   help="optimal radius; defaults to the truth radius")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle-budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--slack", type=_non_negative, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", help="seeded instances with planted truth")
    p.add_argument("family", choices=[*_BENCH_PARAMS, "dom-set",
                                      "eps-padding", "random"])
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--skew", type=float, default=1.2)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["symmetric", "asymmetric"],
                   default="symmetric")
    p.add_argument("--graph", default="star5",
                   help="named graph: star<n>, path<n>, cycle<n>, "
                        "complete<n>, empty<n>")
    p.add_argument("--base", default=None,
                   help="base KCI file (eps-padding family)")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("bench", help="run a manifest of solver rows to CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--no-timing", action="store_true",
                   help="blank the wall_ms column for byte-identical output")
    p.add_argument("--oracle-budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for flag in ("budget", "oracle_budget", "seed"):
            if getattr(args, flag, 0) < 0:
                raise _InputError(f"--{flag.replace('_', '-')} must be >= 0")
        return args.fn(args)
    except (_InputError, BudgetExceeded) as e:  # a budget flag below C(n, k)
        print(f"error: {e}".replace("\n", r"\n"), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
