"""Scenario files: a JSON vocabulary for spaces, named objects, checks.

A scenario fixes one base space and holds named open sets, functions,
densities, operators, distributions, and covers that the command line
resolves by name. The format is versioned through a required "schema"
field so fixtures stay readable as the package evolves.

Top-level fields:

    schema     int, must equal SCHEMA_VERSION (currently 1)
    backend    "discrete" | "smoothline"
    points     list of labels (discrete backend only)
    k          number of formal directions (default 1)
    trunc      default truncation order (default 2); k and trunc
               together may give at most MAX_Y_INDICES y-indices
               C(k + trunc, k)
    E_dim      coefficient dimension for distributions (default 1)
    tol        default tolerance for checks, finite and >= 0 (default 1e-8)
    seed       default seed for randomized suites (default 0)
    opensets   name -> open-set JSON ("M" is always the whole space)
    functions  name -> formal function JSON (+"domain", +"support")
    densities  name -> formal density JSON (+"domain")
    operators  name -> density operator JSON (+"domain")
    distributions  name -> {"kind": "distribution"|"compact"|
                            "generalized"|"point", "domain": ..., ...}
    covers     name -> {"whole": openset name, "parts": [names]}
    tasks      optional declared work, e.g. {"glue": {"cover": name,
               "locals": [distribution names]}}, whose locals are all
               "generalized" or all "distribution" or "compact"
"""

from __future__ import annotations

import json
import math

from .densities import FormalDensity
from .diffops import DensityDiffOp
from .distributions import (CompactFormalDistribution, FormalDistribution,
                            GeneralizedFunction, PointDistribution)
from .errors import FormalcalcError, ScenarioError
from .functions import FormalFunction, SupportedFormalFunction
from .sheaf import Cover
from .spaces import Discrete, OpenSet, SmoothLine

SCHEMA_VERSION = 1

# a distribution's "kind" -> its class
_DISTRIBUTIONS = {"distribution": FormalDistribution,
                  "compact": CompactFormalDistribution,
                  "generalized": GeneralizedFunction,
                  "point": PointDistribution}


def _distribution_class(name, v):
    kind = v.get("kind", "distribution")
    if not isinstance(kind, str) or kind not in _DISTRIBUTIONS:
        raise ScenarioError("distribution %r has unknown kind %r (one of %s)"
                            % (name, kind, ", ".join(_DISTRIBUTIONS)))
    return _DISTRIBUTIONS[kind]


# an object section -> the class an entry (name, JSON object) is read by,
# through cls.from_json(space, domain, k, object)
_SECTIONS = {
    "functions": lambda name, v: (SupportedFormalFunction if "support" in v
                                  else FormalFunction),
    "densities": lambda name, v: FormalDensity,
    "operators": lambda name, v: DensityDiffOp,
    "distributions": _distribution_class,
}

# The jet basis and the probe families grow like the number of y-indices,
# C(k + trunc, k), and `check jets` like its square: on a 2-CPU machine it
# took 7.5 s at 495 indices (k = 8, trunc 4) and had not finished after
# 30 s at 1,820 (k = 12, trunc 4). A scenario with more is refused.
MAX_Y_INDICES = 500


def _finite_number(text):
    """A JSON number as a float; overflow to infinity and the
    nonstandard Infinity and NaN literals are refused."""
    v = float(text)
    if not math.isfinite(v):
        raise ScenarioError("number %s is not a finite float" % text)
    return v


def _int_field(data, key, default, least):
    v = data.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < least:
        raise ScenarioError("field %r must be an integer >= %d" % (key, least))
    return v


class Scenario:
    """A parsed scenario; all object references resolved and validated.
    Each `_SECTIONS` key is an attribute, a map of name -> object."""

    def __init__(self, data, trunc_override=None):
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise ScenarioError("unsupported schema %r (this build reads %d)"
                                % (data.get("schema"), SCHEMA_VERSION))
        backend = data.get("backend")
        if backend == "discrete":
            pts = data.get("points")
            if not isinstance(pts, list) or not pts:
                raise ScenarioError("discrete backend needs a nonempty "
                                    "'points' list")
            self.space = Discrete(pts)
        elif backend == "smoothline":
            self.space = SmoothLine()
        else:
            raise ScenarioError("backend must be 'discrete' or 'smoothline'")
        self.k = _int_field(data, "k", 1, 0)
        self.trunc = _int_field(data, "trunc", 2, 0)
        if trunc_override is not None:
            if trunc_override < 0:
                raise ScenarioError("trunc override must be nonnegative")
            self.trunc = trunc_override
        # with k and trunc both positive the count exceeds k + trunc, so a
        # large one is refused before the binomial is computed
        k, t = self.k, self.trunc
        if min(k, t) and (max(k, t) >= MAX_Y_INDICES
                          or math.comb(k + t, k) > MAX_Y_INDICES):
            raise ScenarioError("k = %d at trunc %d gives more than %d "
                                "y-indices" % (k, t, MAX_Y_INDICES))
        self.e_dim = _int_field(data, "E_dim", 1, 1)
        try:
            self.tol = float(data.get("tol", 1e-8))
        except (TypeError, ValueError):
            raise ScenarioError("field 'tol' must be a number")
        if isinstance(data.get("tol"), bool) or not 0 <= self.tol < math.inf:
            raise ScenarioError("field 'tol' must be a finite, nonnegative number")
        self.seed = _int_field(data, "seed", 0, 0)

        self.opensets = {"M": self.space.whole()}
        for name, v in self._section(data, "opensets").items():
            self.opensets[name] = self._build(name, OpenSet.from_json,
                                              self.space, v)

        for key, pick in _SECTIONS.items():
            table = {}
            for name, v in self._section(data, key).items():
                if not isinstance(v, dict):
                    raise ScenarioError("object %r must be a JSON object"
                                        % name)
                dom = self.openset(v.get("domain", "M"))
                table[name] = self._build(name, pick(name, v).from_json,
                                          self.space, dom, self.k, v)
            setattr(self, key, table)

        self.covers = {}
        for name, v in self._section(data, "covers").items():
            if not isinstance(v, dict) or "whole" not in v \
                    or not isinstance(v.get("parts"), list):
                raise ScenarioError("cover %r needs 'whole' and a 'parts' "
                                    "list" % name)
            whole = self.openset(v["whole"])
            parts = [self.openset(p) for p in v["parts"]]
            self.covers[name] = self._build(name, Cover, whole, parts)

        self.tasks = data.get("tasks", {})
        if not isinstance(self.tasks, dict):
            raise ScenarioError("field 'tasks' must be an object")
        glue = self.tasks.get("glue", {})
        if not isinstance(glue, dict) \
                or not isinstance(glue.get("locals", []), list):
            raise ScenarioError("task 'glue' must be an object with a "
                                "'locals' list")
        # sheaf_glue glues generalized functions or formal distributions,
        # one kind at a time
        kinds = {type(self.distribution(nm)) for nm in glue.get("locals", [])}
        if not (kinds <= {GeneralizedFunction} or
                kinds <= {FormalDistribution, CompactFormalDistribution}):
            raise ScenarioError("task 'glue' needs locals all 'generalized', "
                                "or all 'distribution' or 'compact'")

    @staticmethod
    def _section(data, key):
        v = data.get(key, {})
        if not isinstance(v, dict):
            raise ScenarioError("field %r must be a name->object map" % key)
        return v

    @staticmethod
    def _build(name, builder, *args):
        try:
            return builder(*args)
        except (FormalcalcError, ValueError, KeyError, TypeError) as e:
            raise ScenarioError("invalid object %r: %s" % (name, e))

    # -- name resolution ---------------------------------------------------

    def _get(self, table, kind, name):
        if not isinstance(name, str) or name not in table:
            raise ScenarioError("no %s named %r (have: %s)"
                                % (kind, name, ", ".join(sorted(table)) or "none"))
        return table[name]

    def openset(self, name) -> OpenSet:
        return self._get(self.opensets, "open set", name)

    def function(self, name):
        return self._get(self.functions, "function", name)

    def density(self, name):
        return self._get(self.densities, "density", name)

    def operator(self, name):
        return self._get(self.operators, "operator", name)

    def distribution(self, name):
        return self._get(self.distributions, "distribution", name)

    def cover(self, name) -> Cover:
        return self._get(self.covers, "cover", name)

    @classmethod
    def load(cls, path, trunc_override=None) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_float=_finite_number,
                                 parse_constant=_finite_number)
        except OSError as e:
            raise ScenarioError("cannot read scenario %s: %s" % (path, e))
        except json.JSONDecodeError as e:
            raise ScenarioError("scenario %s is not valid JSON: %s" % (path, e))
        return cls(data, trunc_override=trunc_override)
