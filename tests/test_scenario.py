"""Scenario parsing, resolution, and validation."""

import json

import pytest

from formalcalc.densities import FormalDensity
from formalcalc.diffops import DensityDiffOp
from formalcalc.distributions import (CompactFormalDistribution,
                                      FormalDistribution,
                                      GeneralizedFunction, PointDistribution)
from formalcalc.errors import ScenarioError
from formalcalc.functions import FormalFunction, SupportedFormalFunction
from formalcalc.scenario import SCHEMA_VERSION, Scenario
from formalcalc.spaces import Discrete, SmoothLine


def base_data():
    return {
        "schema": SCHEMA_VERSION,
        "backend": "discrete",
        "points": ["a", "b", "c"],
        "k": 1,
        "trunc": 2,
        "opensets": {"U": ["a", "b"], "V": ["b"]},
        "functions": {
            "u": {"trunc": 2, "coeffs": {"0": {"a": 1, "b": "1/2"}}},
            "w": {"trunc": 2, "support": ["b"], "coeffs": {"0": {"b": 1}}},
        },
        "densities": {"eta": {"coeffs": {"1": [{"tau": {"a": 2}}]}}},
        "operators": {"D": {"terms": [{"L": [1], "coeff": {"a": 1}}]}},
        "distributions": {
            "T": {"kind": "compact", "coeffs": {"0": [{"a": 1}]}},
            "G": {"kind": "generalized", "trunc": 1,
                  "coeffs": {"0": [{"b": 1}]}},
            "P": {"kind": "point", "a": "a", "terms": [{"J": [0], "c": [1]}]},
            "T0": {"kind": "distribution", "domain": "U",
                   "coeffs": {"0": [{"a": 1}]}},
        },
        "covers": {"C": {"whole": "M", "parts": ["U", "V", "C2"]}},
        "opensets_extra": None,
    }


def make(mutate=None, **kw):
    data = base_data()
    del data["opensets_extra"]
    data["opensets"]["C2"] = ["c"]
    if mutate:
        mutate(data)
    return Scenario(data, **kw)


def test_resolves_every_section():
    sc = make()
    assert isinstance(sc.space, Discrete)
    assert sc.openset("M") == sc.space.whole()
    assert isinstance(sc.function("u"), FormalFunction)
    assert isinstance(sc.function("w"), SupportedFormalFunction)
    assert isinstance(sc.density("eta"), FormalDensity)
    assert isinstance(sc.operator("D"), DensityDiffOp)
    assert isinstance(sc.distribution("T"), CompactFormalDistribution)
    assert isinstance(sc.distribution("G"), GeneralizedFunction)
    assert isinstance(sc.distribution("P"), PointDistribution)
    assert isinstance(sc.distribution("T0"), FormalDistribution)
    assert sc.distribution("T0").domain == sc.openset("U")
    assert len(sc.cover("C")) == 3
    assert sc.k == 1 and sc.trunc == 2 and sc.e_dim == 1
    assert sc.tol == 1e-8 and sc.seed == 0 and sc.tasks == {}


def test_trunc_override():
    sc = make(trunc_override=5)
    assert sc.trunc == 5
    with pytest.raises(ScenarioError):
        make(trunc_override=-1)


def test_schema_and_backend_guards():
    with pytest.raises(ScenarioError):
        Scenario([1, 2])
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(schema=99))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(backend="lattice"))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(points=[]))
    with pytest.raises(ScenarioError):
        make(lambda d: d.pop("points"))


def test_numeric_field_guards():
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(k=-1))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(trunc=True))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(E_dim=0))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(tol="loose"))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(seed=-3))
    sc = make(lambda d: d.update(tol=0, seed=11, E_dim=2))
    assert sc.tol == 0.0 and sc.seed == 11 and sc.e_dim == 2


def test_malformed_objects_become_scenario_errors():
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(functions="u"))
    with pytest.raises(ScenarioError):
        make(lambda d: d["functions"].update(bad="not an object"))
    with pytest.raises(ScenarioError):
        make(lambda d: d["functions"].update(
            bad={"trunc": 1, "coeffs": {"9": {"a": 1}}}))
    with pytest.raises(ScenarioError):
        make(lambda d: d["densities"].update(bad={"coeffs": {"0": 3}}))
    with pytest.raises(ScenarioError):
        make(lambda d: d["operators"].update(
            bad={"terms": [{"L": [0], "coeff": {"zz": 1}}]}))
    with pytest.raises(ScenarioError):
        make(lambda d: d["distributions"].update(bad={"kind": "spectral"}))
    with pytest.raises(ScenarioError):
        make(lambda d: d["distributions"].update(bad={"kind": ["point"]}))
    with pytest.raises(ScenarioError):
        make(lambda d: d["covers"].update(bad={"whole": "M"}))
    with pytest.raises(ScenarioError):
        make(lambda d: d["covers"].update(bad={"whole": "M", "parts": ["U"]}))
    with pytest.raises(ScenarioError):
        make(lambda d: d.update(tasks=[1]))


def test_unknown_domain_and_name_lookups():
    with pytest.raises(ScenarioError):
        make(lambda d: d["functions"]["u"].update(domain="nowhere"))
    sc = make()
    for getter in (sc.openset, sc.function, sc.density, sc.operator,
                   sc.distribution, sc.cover):
        with pytest.raises(ScenarioError):
            getter("missing")


def test_load_from_disk(tmp_path):
    p = tmp_path / "sc.json"
    data = base_data()
    del data["opensets_extra"]
    data["opensets"]["C2"] = ["c"]
    p.write_text(json.dumps(data))
    sc = Scenario.load(str(p))
    assert isinstance(sc.space, Discrete)
    with pytest.raises(ScenarioError):
        Scenario.load(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        Scenario.load(str(bad))


def test_bundled_fixtures_parse():
    for name, backend in (("discrete_demo", Discrete),
                          ("pair_demo", Discrete),
                          ("glue_mismatch", Discrete),
                          ("smooth_demo", SmoothLine)):
        sc = Scenario.load("scenarios/%s.json" % name)
        assert isinstance(sc.space, backend)
        assert "M" in sc.opensets


def test_smooth_fixture_objects():
    sc = Scenario.load("scenarios/smooth_demo.json")
    assert isinstance(sc.space, SmoothLine)
    w = sc.function("w")
    assert isinstance(w, SupportedFormalFunction)
    assert sc.density("eta").star_degree() == 1
    assert isinstance(sc.distribution("T"), CompactFormalDistribution)
    assert len(sc.cover("C")) == 2
