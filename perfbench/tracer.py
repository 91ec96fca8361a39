"""Span and counter tracing of formalcalc from outside the package.

A Tracer wraps public functions and methods of formalcalc at every
place they are bound: a function imported by name into several modules
(``ev_f`` lives in ``expr``, ``quadrature`` and ``diffops``) is replaced
in each of them, and recursion that goes through the module global
(``expr.ev_f`` calling ``ev_f``) passes through the wrapper too. All
wrappers are removed by ``uninstall``, so untraced runs execute the
package unmodified.

Each wrapped call opens a span (name, start, end, parent). A span's
self time is its duration minus the time its child spans cover. Spans
are aggregated per name as they close and, except for the hot
per-point ones, kept in memory for writing out when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# spans kept in memory for the result file; later ones are only aggregated
MAX_KEPT_SPANS = 50_000


def _tree_size(e) -> int:
    """Node count of an expression tree, shared subtrees counted each time."""
    sizes = {}
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in sizes:
            continue
        kids = [getattr(node, f) for f in getattr(node, "__slots__", ())
                if f in ("a", "b", "num", "den", "base", "arg")]
        if done:
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return sizes[id(e)]


class Tracer:
    """Installs counting and timing wrappers; collects spans and counts."""

    def __init__(self):
        self.counts = Counter()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans = []
        self.dropped_spans = 0
        self.task = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, keep=True):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((sid, parent[0] if parent else None,
                                   self.task, name, start, end))
            else:
                self.dropped_spans += 1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrapper factories ----------------------------------------------

    def timed(self, name, fn, keep=True, after=None):
        """Span around every call; ``after(result, args)`` may add counts."""
        def wrapper(*args, **kw):
            frame = self._open(name)
            try:
                out = fn(*args, **kw)
            finally:
                self._close(frame, keep)
            if after is not None:
                after(out, args)
            return out
        return wrapper

    def recursive(self, name, fn, visits):
        """Span around the outermost call only; every call counts a visit."""
        active = [False]
        counts = self.counts

        def wrapper(*args, **kw):
            counts[visits] += 1
            if active[0]:
                return fn(*args, **kw)
            active[0] = True
            frame = self._open(name)
            try:
                return fn(*args, **kw)
            finally:
                self._close(frame, keep=False)
                active[0] = False
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)
        return wrapper

    # -- patching --------------------------------------------------------

    def patch_function(self, module, attr, make):
        """Replace a module-level function wherever formalcalc bound it."""
        orig = getattr(module, attr)
        wrapper = make(orig)
        pkg = module.__name__.split(".")[0]
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == pkg or mname.startswith(pkg + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def patch_method(self, cls, attr, make):
        """Replace a method in a class dict, under every alias it has there."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        for key, val in list(vars(cls).items()):
            if val is raw:
                setattr(cls, key, wrapped)
                self._undo.append((cls, key, raw))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- formalcalc layers -------------------------------------------------

    def install(self, fc):
        """Wrap the public entry points of every formalcalc layer."""
        counts = self.counts
        m = sys.modules
        scalars = m["formalcalc.scalars"]
        expr = m["formalcalc.expr"]
        quad = m["formalcalc.quadrature"]
        for op in ("__add__", "__sub__", "__rsub__", "__mul__",
                   "__truediv__", "__rtruediv__"):
            self.patch_method(scalars.QC, op,
                              lambda f: self.counted("scalars.qc_ops", f))
        self.patch_method(scalars.QC, "__complex__",
                          lambda f: self.counted("scalars.complex_calls", f))

        self.patch_function(expr, "ev_f", lambda f: self.recursive(
            "expr.ev_f", f, "expr.ev_f.visits"))
        self.patch_function(expr, "ev", lambda f: self.recursive(
            "expr.ev", f, "expr.ev.visits"))
        self.patch_function(expr, "ibounds", lambda f: self.recursive(
            "expr.ibounds", f, "expr.ibounds.visits"))

        def diff_done(out, args):
            counts["expr.diff.out_nodes"] += _tree_size(out)
        self.patch_function(expr, "diff", lambda f: self.timed(
            "expr.diff", f, after=diff_done))
        self.patch_function(expr, "certify_positive",
                            lambda f: self.timed("expr.certify_positive", f))
        self.patch_function(expr, "parse_sexpr",
                            lambda f: self.timed("expr.parse_sexpr", f))

        qc_type = scalars.QC

        def integral_done(out, args):
            counts["quadrature.integrals"] += 1
            if isinstance(out, qc_type):
                counts["quadrature.exact_integrals"] += 1
        self.patch_function(quad, "integrate_expr", lambda f: self.timed(
            "quadrature.integrate_expr", f, after=integral_done))

        def wrap_callable(f):
            timed = self.timed("quadrature.integrate_callable", f, keep=False)

            def wrapper(g, *args, **kw):
                def integrand(x):
                    counts["quadrature.evals"] += 1
                    return g(x)
                return timed(integrand, *args, **kw)
            return wrapper
        self.patch_function(quad, "integrate_callable", wrap_callable)

        def method(cls, attr, name):
            self.patch_method(cls, attr, lambda f: self.timed(name, f))

        method(fc.BaseDensity, "integrate", "basedensity.integrate")
        method(fc.FormalDensity, "pair", "densities.pair")
        method(fc.FormalDensity, "module_action", "densities.module_action")
        method(fc.DensityDiffOp, "apply", "diffops.apply")
        method(fc.DensityDiffOp, "rho", "diffops.rho")
        for cls in (fc.FormalDistribution, fc.GeneralizedFunction,
                    fc.PointDistribution):
            method(cls, "apply", "distributions.apply")
        method(fc.BaseDistribution, "act_on_density",
               "distributions.act_on_density")
        dist = m["formalcalc.distributions"]
        self.patch_function(dist, "cutoff_extend", lambda f: self.timed(
            "distributions.cutoff_extend", f))

        sheaf = m["formalcalc.sheaf"]
        for attr in ("build_pou", "sheaf_glue", "mv_split",
                     "cosheaf_decompose"):
            self.patch_function(sheaf, attr, lambda f, a=attr: self.timed(
                "sheaf." + a, f))

        def probes_seen(out, args):
            counts["sheaf.probes"] += len(args[-1])
        for attr in ("functional_residual", "functional_zero_residual"):
            self.patch_function(sheaf, attr, lambda f, a=attr: self.timed(
                "sheaf." + a, f, after=probes_seen))

        suites = m["formalcalc.suites"]

        def suite_done(out, args, name):
            counts["suites.%s.checks" % name] += out["checks"]
        for name in suites.SUITE_NAMES:
            self.patch_function(suites, "suite_" + name,
                                lambda f, n=name: self.timed(
                                    "suites." + n, f,
                                    after=lambda o, a: suite_done(o, a, n)))

        method(fc.Scenario, "load", "scenario.load")
        cli = m["formalcalc.cli"]
        self.patch_function(cli, "main", lambda f: self.timed("cli.main", f))
