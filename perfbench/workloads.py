"""The benchmark's workloads: seeded input instances and the user commands run on them.

Every job is a `kcenter-pr` argv.  Paths in an argv are written with the
placeholders ``{in}`` (input files made during set-up) and ``{out}`` (the
output directory of one pass); `Job.argv_for` fills them in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Status each solver id claims when it succeeds.
CLAIMS = {
    "hs": "approximation-only",
    "thm3": "exact-claim",
    "alg1-2pr": "exact-claim",
    "thm5-3eps": "exact-claim",
    "alg2-3eps-asym": "eps-close-claim",
    "alg3-linkage": "exact-claim",
    "alg4-2eps-as": "exact-claim",
}


@dataclass(frozen=True)
class Spec:
    """A generated instance: `kcenter-pr generate <family>` with these flags."""

    name: str
    family: str
    flags: tuple = ()
    seed: int = None
    r: float = 1.0
    alpha: float = 2.0

    def generate_argv(self, prefix):
        argv = ["generate", self.family, *self.flags]
        if self.family in ("planted-sym", "planted-asym"):
            argv += ["--r", repr(self.r), "--alpha", repr(self.alpha)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + ["--out-prefix", prefix]

    @property
    def planted(self):
        return self.family != "random"


@dataclass(frozen=True)
class Job:
    """One user command and what its output must satisfy."""

    name: str
    kind: str                 # solve | verify | oracle | generate
    argv: tuple
    instance: str = None      # input instance name, for the output check
    spec: Spec = None         # generate jobs: the instance being generated
    expect_rc: int = 0
    expect: dict = field(default_factory=dict)
    radius_of: str = None     # append --r <planted radius of this instance>

    def argv_for(self, inputs, out, radii):
        argv = [a.replace("{in}", inputs).replace("{out}", out)
                for a in self.argv]
        if self.radius_of is not None:
            argv += ["--r", repr(radii[self.radius_of])]
        return argv

    def shape(self):
        """The argv with seeds blanked: equal across benchmark seeds."""
        argv = list(self.argv)
        for i, a in enumerate(argv[:-1]):
            if a == "--seed":
                argv[i + 1] = "*"
        return (self.kind, tuple(argv), self.expect_rc)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple    # Specs generated during set-up
    jobs: tuple      # one pass
    warmup: tuple    # (Specs, Jobs) on tiny instances, run during set-up


def _seeds(workload, seed):
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return lambda: rng.randrange(2 ** 31)


def _sym(name, n, k, seed):
    return Spec(name, "planted-sym", ("--n", str(n), "--k", str(k)), seed)


def _asym(name, n, k, seed):
    return Spec(name, "planted-asym",
                ("--n", str(n), "--k", str(k), "--skew", "1.2"), seed)


def _solve(inst, algo, k, radius=False):
    extra = ("--epsilon", "0.05") if algo == "alg4-2eps-as" else ()
    return Job(name=f"solve {algo} {inst}", kind="solve",
               argv=("solve", f"{{in}}/{inst}.kci", "--algo", algo,
                     "--k", str(k), *extra,
                     "--out", f"{{out}}/{inst}.{algo}.json"),
               instance=inst, expect={"status": CLAIMS[algo]},
               radius_of=inst if radius else None)


def _verify(inst, epsilon, expect_rc, status):
    return Job(name=f"verify {inst}", kind="verify",
               argv=("verify", f"{{in}}/{inst}.kci", f"{{in}}/{inst}.truth.json",
                     "--alpha", "2", "--epsilon", epsilon,
                     "--out", f"{{out}}/{inst}.report.json"),
               instance=inst, expect_rc=expect_rc,
               expect={"falsifier": status, "budget": 200})


def _oracle(inst, k):
    return Job(name=f"oracle {inst}", kind="oracle",
               argv=("oracle", f"{{in}}/{inst}.kci", "--k", str(k),
                     "--out", f"{{out}}/{inst}.oracle.json"),
               instance=inst)


def _generate(spec):
    return Job(name=f"generate {spec.name}", kind="generate",
               argv=tuple(spec.generate_argv(f"{{out}}/{spec.name}")),
               spec=spec)


def sweep_solve(seed):
    """`solve` without --r, so every r-parameterized solver sweeps r*."""
    nxt = _seeds("sweep-solve", seed)
    sym = [_sym("ps60a", 60, 5, nxt()), _sym("ps60b", 60, 5, nxt()),
           _sym("ps80", 80, 5, nxt())]
    big = _sym("ps120", 120, 5, nxt())
    asym = [_asym("pa32", 32, 4, nxt()), _asym("pa44", 44, 4, nxt())]
    jobs = [_solve(s.name, algo, 5) for s in sym
            for algo in ("thm5-3eps", "alg4-2eps-as", "hs", "alg3-linkage")]
    jobs.append(_solve(big.name, "alg3-linkage", 5))
    jobs += [_solve(s.name, algo, 4) for s in asym
             for algo in ("alg1-2pr", "alg2-3eps-asym")]
    tiny = (_sym("w-sym", 15, 3, nxt()), _asym("w-asym", 12, 3, nxt()))
    warm = [_solve("w-sym", a, 3)
            for a in ("thm5-3eps", "alg4-2eps-as", "hs", "alg3-linkage")]
    warm += [_solve("w-asym", a, 3) for a in ("alg1-2pr", "alg2-3eps-asym")]
    return Workload("sweep-solve", tuple(sym + [big] + asym), tuple(jobs),
                    (tiny, tuple(warm)))


def large_n(seed):
    """Input and output path at n=300: generate, and solve with --r given."""
    nxt = _seeds("large-n", seed)
    inputs = (_sym("ls300", 300, 8, nxt()), _asym("la300", 300, 8, nxt()))
    jobs = [_generate(_sym("gs300", 300, 8, nxt())),
            _generate(_asym("ga300", 300, 8, nxt()))]
    jobs += [_solve("ls300", a, 8, radius=True)
             for a in ("thm3", "thm5-3eps", "alg4-2eps-as")]
    jobs += [_solve("la300", a, 8, radius=True)
             for a in ("alg1-2pr", "alg2-3eps-asym")]
    tiny = (_sym("w-sym", 24, 3, nxt()), _asym("w-asym", 24, 3, nxt()))
    warm = [_generate(_sym("w-gsym", 24, 3, nxt())),
            _generate(_asym("w-gasym", 24, 3, nxt()))]
    warm += [_solve("w-sym", a, 3, radius=True)
             for a in ("thm3", "thm5-3eps", "alg4-2eps-as")]
    warm += [_solve("w-asym", a, 3, radius=True)
             for a in ("alg1-2pr", "alg2-3eps-asym")]
    return Workload("large-n", inputs, tuple(jobs), (tiny, tuple(warm)))


def verify(seed):
    """The brute-force oracle, run ~200 times per `verify` and once per `oracle`."""
    nxt = _seeds("verify", seed)
    checked = [_sym("vs12", 12, 3, nxt()), _sym("vs14", 14, 3, nxt()),
               _sym("vs16", 16, 3, nxt()), _asym("va14", 14, 3, nxt())]
    bad = Spec("bc18", "bad-center-18", ("--alpha", "2"))
    solved = [(_sym("os40", 40, 3, nxt()), 3), (_sym("os60", 60, 3, nxt()), 3),
              (Spec("or40", "random", ("--mode", "asymmetric", "--n", "40"),
                    nxt()), 3),
              (_sym("os30", 30, 4, nxt()), 4)]
    jobs = [_verify(s.name, "0", 0, "none-found") for s in checked]
    jobs.append(_verify(bad.name, "0.0555", 3, "falsified"))
    jobs += [_oracle(s.name, k) for s, k in solved]
    tiny = (_sym("w-sym", 9, 3, nxt()),)
    warm = (_verify("w-sym", "0", 0, "none-found"), _oracle("w-sym", 3))
    return Workload("verify", tuple(checked + [bad] + [s for s, _ in solved]),
                    tuple(jobs), (tiny, warm))


BUILDERS = {"sweep-solve": sweep_solve, "large-n": large_n, "verify": verify}


def build(name, seed):
    return BUILDERS[name](seed)
