"""The benchmark's workloads: seeded task lists and their verdict oracles.

A workload has a fixed set-up (spaces, covers, scenario files) and a
pass: a list of tasks drawn from a random.Random seeded by the
benchmark seed and the pass index. A run executes enough passes to fill
the requested seconds at the cost each pass had when the benchmark was
defined, so the task list depends only on (seed, seconds) and never on
the speed of the program under test.

Every task returns an Outcome, and the oracle is part of the task: a
suite round must report PASS with residual <= tol, an identity must
hold within tol, and a CLI call must give its expected exit code and
(for discrete scenarios) its recorded --json output byte for byte.

Suite seeds and smooth-operators instance seeds come from pools
(pools.json, written by calibrate.py): for each suite or identity, the
candidate seeds whose cost is closest to its median cost. Single suite
rounds vary several-fold in cost with the seed, and a run holds only a
few of them, so without the pools the wall time of a run would measure
the seed rather than the program. A workload whose context has no pool
for a call draws its seed from all 2**32 seeds (selfcheck.py does so
for every call).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SMOOTH_TOL = 1e-8

Outcome = namedtuple("Outcome", "checks residual tol ok note")


def load_json(name):
    with open(HERE / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def accuracy_digits(residual, tol):
    """log10(tol / residual), 16 for an exact zero residual, 0 for a miss."""
    if residual == 0:
        return 16.0
    if tol <= 0 or residual > tol:
        return 0.0
    return min(16.0, math.log10(tol / residual))


def pool_seed(ctx, name, rng):
    """A seed from the pool of call `name`, or any seed if it has none."""
    pool = ctx["pools"].get(name)
    return rng.choice(pool["seeds"]) if pool else rng.randrange(2 ** 32)


def suite_outcome(report, tol):
    res = report["max_residual"]
    ok = report["pass"] and not report["failures"] and res <= tol
    return Outcome(report["checks"], res, tol, ok,
                   "" if ok else json.dumps(report["failures"][:3]))


# -- CLI calls checked against recorded output -------------------------------

def run_cli(fc, root, argv):
    """cli.main in-process on a scenario path relative to the checkout."""
    argv = [str(root / a) if a.startswith("scenarios/") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = fc.cli.main(argv)
    return code, buf.getvalue()


def cli_task(fc, ctx, name, drift_counts):
    """One recorded CLI call. Discrete output must match byte for byte;
    smooth output may drift (counted in drift_counts), exits must match."""
    golden = ctx["goldens"][name]
    code, out = run_cli(fc, ctx["root"], golden["argv"])
    same = out == golden["stdout"]
    ok = code == golden["exit"]
    if golden["exact"]:
        ok = ok and same
    elif not same:
        drift_counts["cli.golden_drift"] += 1
    if ok and golden.get("witness"):
        report = json.loads(out)
        ok = any(f.get("law") == golden["witness"] and f.get("error")
                 for s in report["suites"] for f in s["failures"])
    checks = 1
    if ok and out.startswith("{") and '"command":"check"' in out:
        checks = sum(s["checks"] for s in json.loads(out)["suites"])
    return Outcome(checks, 0.0, 0.0, ok,
                   "" if ok else "exit %s, output %s golden"
                   % (code, "matches" if same else "differs from"))


# -- smooth-sheaf -------------------------------------------------------------------

def smooth_suite_call(fc, name, seed):
    """One seeded round of a smooth-line suite at k=1, as in smooth_demo."""
    sp, s = fc.SmoothLine(), fc.suites
    if name == "mv":
        return s.suite_mv(sp, 1, seed, SMOOTH_TOL, rounds=1)
    if name == "glue":
        return s.suite_glue(sp, 1, 1, seed, SMOOTH_TOL, rounds=1)
    if name == "cosheaf":
        return s.suite_cosheaf(sp, 1, 1, seed, SMOOTH_TOL, rounds=1)
    if name == "duality":
        return s.suite_duality(sp, 1, 2, 1, seed, SMOOTH_TOL, rounds=1)
    if name == "flabby":
        return s.suite_flabby(sp, 1, seed, SMOOTH_TOL)
    raise ValueError(name)


class SmoothSheaf:
    """Single rounds of the smooth-line sheaf suites plus smooth_demo CLI.

    Many mid-sized integrands: nearly all time is expr.ev_f under GK15
    quadrature, so compiled evaluation, constant folding and fewer
    integrals per probe show here.
    """

    name = "smooth-sheaf"
    nominal_pass_s = 21.0
    # Suite seeds come from the pools where there is one: duality rounds
    # are cheap and even, and flabby ignores its seed on the smooth line.
    # Three cheaper tasks (mv, duality, the CLI calls) and three rounds of
    # flabby, whose input is fixed, put the median task of a pass on
    # flabby, also when a cosheaf or glue round is cheaper than flabby.
    pass_mix = (("glue", 2), ("cosheaf", 1), ("mv", 1), ("duality", 1),
                ("flabby", 3))
    cli_calls = ("smooth pair", "smooth apply", "smooth pou")

    def setup(self, fc, root):
        sc = fc.Scenario.load(str(root / "scenarios" / "smooth_demo.json"))
        return {"root": root, "scenario": sc,
                "goldens": load_json("goldens.json"),
                "pools": load_json("pools.json")["smooth"]}

    def tasks(self, fc, ctx, rng, counts):
        out = []
        for name, n in self.pass_mix:
            for _ in range(n):
                seed = pool_seed(ctx, name, rng)
                out.append(("suite." + name, lambda name=name, seed=seed:
                            suite_outcome(smooth_suite_call(fc, name, seed),
                                          SMOOTH_TOL)))
        out.append(("cli.smooth_demo", lambda: _merge(
            [cli_task(fc, ctx, c, counts) for c in self.cli_calls])))
        return out


def _merge(outcomes):
    bad = [o.note for o in outcomes if not o.ok]
    return Outcome(sum(o.checks for o in outcomes),
                   max(o.residual for o in outcomes), 0.0, not bad,
                   "; ".join(bad))


# -- discrete-exact ----------------------------------------------------------------

DISCRETE_POINTS = ["p%d" % i for i in range(8)]
DISCRETE_K, DISCRETE_TRUNC, DISCRETE_E_DIM = 2, 3, 2


def discrete_suite_call(fc, space, name, seed):
    return fc.suites.run_suite(name, space, DISCRETE_K, DISCRETE_TRUNC,
                               DISCRETE_E_DIM, seed, 0.0)


class DiscreteExact:
    """All six suites on an 8-point space (k=2, trunc=3, E_dim=2) plus the
    bundled discrete scenarios through the CLI.

    Exact QC/Fraction and multi-index algebra do all the work; expr and
    quadrature do none, so this is the bypass workload for every
    expression or quadrature change.
    """

    name = "discrete-exact"
    nominal_pass_s = 2.25
    cli_calls = ("discrete_demo check", "pair_demo check",
                 "glue_mismatch check")

    def setup(self, fc, root):
        scenarios = {n: fc.Scenario.load(str(root / "scenarios" / (n + ".json")))
                     for n in ("discrete_demo", "pair_demo", "glue_mismatch")}
        return {"root": root, "scenarios": scenarios,
                "space": fc.Discrete(DISCRETE_POINTS),
                "goldens": load_json("goldens.json"),
                "pools": load_json("pools.json")["discrete"]}

    def tasks(self, fc, ctx, rng, counts):
        out = []
        for name in fc.suites.SUITE_NAMES:
            seed = pool_seed(ctx, name, rng)
            out.append(("suite." + name, lambda name=name, seed=seed:
                        suite_outcome(discrete_suite_call(
                            fc, ctx["space"], name, seed), 0.0)))
        for c in self.cli_calls:
            out.append(("cli." + c.split()[0],
                        lambda c=c: cli_task(fc, ctx, c, counts)))
        return out


# -- smooth-operators ----------------------------------------------------------------

def _nonzero_rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _quadratic(fc, rng):
    c0, c1, c2 = (fc.Const(_nonzero_rational(rng)) for _ in range(3))
    return fc.add(fc.add(c0, fc.mul(c1, fc.X)), fc.mul(c2, fc.pow_(fc.X, 2)))


def _window_bump(fc, slot):
    """Plateau bump of fixed width 5/2 starting at -3 + slot/4."""
    lo = Fraction(-3) + Fraction(slot, 4)
    hi = lo + Fraction(5, 2)
    w = hi - lo
    expr, supp, _ = fc.bump(lo, lo + w / 4, hi - w / 4, hi)
    return expr, supp


def operator_instance(fc, dom, rng, kind, xorder):
    """(lhs, rhs) of one seeded identity at one x-order.

    kind "rho": pair(rho(D), u) against integrate(apply(D, u)), with
    D = tau0 . d_x^n + tau1 . d_x^n d_y. kind "module": pair(eta . f, u)
    against pair(eta, f u), with eta = (tau0 . d^n) + (tau1 . d^n) y*.
    Shapes are fixed (nonzero quadratic weights, fixed window widths) so
    that cost depends on the x-order, not on the seed.
    """
    sp, mi = dom.space, fc.mi
    slot = rng.randint(1, 7)
    bt, st = _window_bump(fc, slot)
    bu, su = _window_bump(fc, slot + rng.randint(-1, 1))
    tau0 = fc.BaseDensity.smooth(sp, fc.mul(bt, _quadratic(fc, rng)), st)
    tau1 = fc.BaseDensity.smooth(sp, fc.mul(bt, _quadratic(fc, rng)), st)
    u = fc.SupportedFormalFunction(
        sp, dom, 1, 1, {mi((0,)): fc.mul(bu, _quadratic(fc, rng)),
                        mi((1,)): fc.mul(bu, _quadratic(fc, rng))}, support=su)
    n = mi((xorder,))
    if kind == "rho":
        op = fc.DensityDiffOp(sp, dom, 1, {(n, mi((0,))): tau0,
                                           (n, mi((1,))): tau1})
        return op.rho().pair(u), op.apply(u).integrate(dom)
    eta = fc.FormalDensity(sp, dom, 1, {mi((0,)): ((n, tau0),),
                                        mi((1,)): ((n, tau1),)})
    f = fc.FormalFunction(sp, dom, 1, 1, {mi((0,)): _quadratic(fc, rng),
                                          mi((1,)): _quadratic(fc, rng)})
    return eta.module_action(f).pair(u), eta.pair(f.mul(u))


def operator_domain(fc):
    return fc.OpenSet(fc.SmoothLine(), [(Fraction(-4), Fraction(4))])


def operator_outcome(fc, dom, name, seed):
    """The identity `name` ("rho.x1", "module.x0", ...) on instance `seed`."""
    kind, xorder = name.split(".x")
    lhs, rhs = operator_instance(fc, dom, random.Random(seed), kind,
                                 int(xorder))
    res = abs(complex(lhs) - complex(rhs))
    return Outcome(1, res, SMOOTH_TOL, res <= SMOOTH_TOL,
                   "" if res <= SMOOTH_TOL else "residual %g" % res)


class SmoothOperators:
    """Seeded operator identities at x-orders 0..2 and module-action
    identities at x-orders 0..1.

    Few integrals over large differentiated trees: expr is used as a
    builder (diff) here, where smooth-sheaf uses it as an evaluator.
    x-order 3 is left out: one identity there takes 8 to 16 s. The
    module-action identity at x-order 2 is left out: its integrands
    reach magnitudes near 1e5, where the absolute quadrature tolerance
    (1e-10) can cost 30 times the usual evaluations; one instance took
    161 s.
    """

    name = "smooth-operators"
    nominal_pass_s = 6.3
    # Instances come from the pools in pools.json, so that their cost and
    # quadrature error vary little from run to run. rho at x-order 1 five
    # times and the module action at x-order 1 four times, so that the
    # median and the tail task of a run fall inside a block of like
    # identities rather than between two kinds of different cost, and so
    # that accuracy_digits, a minimum over tasks, sees the least accurate
    # module-action instance of the pool in nearly every run.
    mix = (("rho.x0",) + ("rho.x1",) * 5 + ("rho.x2",) + ("module.x0",)
           + ("module.x1",) * 4)

    def setup(self, fc, root):
        return {"root": root, "domain": operator_domain(fc),
                "pools": load_json("pools.json")["operators"]}

    def tasks(self, fc, ctx, rng, counts):
        out = []
        for name in self.mix:
            seed = pool_seed(ctx, name, rng)
            out.append((name, lambda name=name, seed=seed: operator_outcome(
                fc, ctx["domain"], name, seed)))
        return out


WORKLOADS = {w.name: w for w in (SmoothSheaf(), DiscreteExact(),
                                 SmoothOperators())}
