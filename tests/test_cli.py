"""Command line behavior: exit codes, report formats, determinism."""

import copy
import json
import os
import random
import subprocess
import sys
import time
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from formalcalc.cli import main
from formalcalc.scalars import rat_str
from formalcalc.scenario import Scenario

PAIR = "scenarios/pair_demo.json"
DEMO = "scenarios/discrete_demo.json"
MISMATCH = "scenarios/glue_mismatch.json"
SMOOTH = "scenarios/smooth_demo.json"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pair_human_values(capsys):
    code, out, _ = run(capsys, "pair", "two_point", "u", "--scenario", PAIR)
    assert code == 0
    assert out.splitlines()[0] == "pair(two_point, u) = 3"
    code, out, _ = run(capsys, "pair", "factorial", "u", "--scenario", PAIR)
    assert code == 0 and out.splitlines()[0] == "pair(factorial, u) = 10"
    code, out, _ = run(capsys, "pair", "zero", "u", "--scenario", PAIR)
    assert code == 0 and out.splitlines()[0] == "pair(zero, u) = 0"


def test_pair_json_is_canonical_and_stable(capsys):
    code, out1, _ = run(capsys, "pair", "two_point", "u",
                        "--scenario", PAIR, "--json")
    code2, out2, _ = run(capsys, "pair", "two_point", "u",
                         "--scenario", PAIR, "--json")
    assert code == 0 and code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["value"] == "3"
    assert report["per_L"] == {"0": "3"}
    assert out1.strip() == json.dumps(report, sort_keys=True,
                                      separators=(",", ":"))


def test_apply_integral_matches_pairing_with_normal_form(capsys):
    code, out, _ = run(capsys, "apply", "D", "u", "--scenario", DEMO, "--json")
    assert code == 0
    report = json.loads(out)
    sc = Scenario.load(DEMO)
    want = sc.operator("D").rho().pair(sc.function("u"))
    assert report["integral"] == rat_str(want.re)


def test_rho_reports_density_json(capsys):
    code, out, _ = run(capsys, "rho", "D", "--scenario", DEMO, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "rho" and "coeffs" in report["density"]


def test_jet_tabulates_and_checks_ideal_membership(capsys):
    code, out, _ = run(capsys, "jet", "u", "b", "2", "--scenario", DEMO,
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 3
    vals = {tuple(r["J"]): r["value"] for r in report["jets"]}
    assert vals == {(0,): "2", (1,): "0", (2,): "10"}
    assert report["in_max_ideal_power"] is False
    code, out, _ = run(capsys, "jet", "u", "b", "2", "--scenario", DEMO)
    assert code == 0 and out.splitlines()[-1] == "in m_a^2: no"


@pytest.mark.parametrize("point", ["-1/2", "-1e-1"])
def test_a_negative_point_reads_as_a_point(capsys, point):
    # a point as the package prints it, -p/q, is the point and not an
    # option; the -- form reads it as a value on any parser
    dashed = run(capsys, "jet", "--scenario", SMOOTH, "--json", "w", "--",
                 point, "1")
    assert dashed[0] == 0
    assert run(capsys, "jet", "w", point, "1", "--scenario", SMOOTH,
               "--json") == dashed


def test_pou_discrete_and_smooth(capsys):
    code, out, _ = run(capsys, "pou", "C", "--scenario", DEMO, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["grid_residual"] == 0.0 and len(report["functions"]) == 3
    code, out, _ = run(capsys, "pou", "C", "--scenario", SMOOTH, "--json")
    assert code == 0
    assert json.loads(out)["grid_residual"] <= 1e-12


def test_an_undecided_partition_is_out_of_reach_not_failed(capsys,
                                                           tmp_path):
    # parts that cover but overlap by 1/1000: the edge denominator there
    # falls below the smallest float, so its positivity stays unproved
    data = json.loads((ROOT / SMOOTH).read_text())
    data["opensets"].update(L=[[None, "-1999/1000"]], R=[[-2, None]])
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "pou", "C", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot certify positivity near ")
    assert err.endswith(": proof out of reach\n")


def test_check_suite_passes_and_is_deterministic(capsys):
    code, out1, _ = run(capsys, "check", "duality", "--scenario", PAIR,
                        "--json", "--seed", "9")
    code2, out2, _ = run(capsys, "check", "duality", "--scenario", PAIR,
                         "--json", "--seed", "9")
    assert code == 0 and code2 == 0 and out1 == out2
    report = json.loads(out1)
    assert report["pass"] is True and report["seed"] == 9
    suite = report["suites"][0]
    assert suite["failures"] == [] and suite["checks"] > 0


def test_check_all_discrete(capsys):
    code, out, _ = run(capsys, "check", "all", "--scenario", PAIR)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("name", ["discrete_demo check", "pair_demo check",
                                  "glue_mismatch check"])
def test_check_all_json_matches_the_benchmark_goldens(capsys, name):
    # the byte-exact outputs the benchmark's verdict oracle holds the
    # exact path to; this test only reads them
    with open(ROOT / "perfbench" / "goldens.json", encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    assert golden["exact"]
    argv = [str(ROOT / a) if a.startswith("scenarios/") else a
            for a in golden["argv"]]
    code, out, _ = run(capsys, *argv)
    assert code == golden["exit"]
    assert out == golden["stdout"]


def test_smooth_pou_json_matches_the_benchmark_golden(capsys):
    # the line partition's s-expressions and its proved 0.0 are exact, so
    # these bytes hold on every platform; this test only reads them
    with open(ROOT / "perfbench" / "goldens.json", encoding="utf-8") as fh:
        golden = json.load(fh)["smooth pou"]
    code, out, _ = run(capsys, "pou", "C", "--scenario", str(ROOT / SMOOTH),
                       "--json")
    assert code == golden["exit"] == 0
    assert out == golden["stdout"]


def test_smooth_check_all_json_matches_its_golden(capsys):
    # every suite of the smooth demo, byte for byte as recorded; its
    # residuals are float64 quadrature values, so the bytes hold for one
    # platform's libm and Python float formatting
    with open(ROOT / "tests" / "smooth_demo_check.json",
              encoding="utf-8") as fh:
        golden = json.load(fh)
    argv = [str(ROOT / a) if a.startswith("scenarios/") else a
            for a in golden["argv"]]
    code, out, _ = run(capsys, *argv)
    assert code == golden["exit"] == 0
    assert out == golden["stdout"]


def test_declared_glue_mismatch_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "glue", "--scenario", MISMATCH,
                       "--json")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    declared = [s for s in report["suites"] if s["suite"] == "glue-declared"]
    assert len(declared) == 1 and not declared[0]["pass"]
    failure = declared[0]["failures"][0]
    assert failure["residual"] == 1.0
    assert failure["probe"] is not None
    code, out, _ = run(capsys, "check", "glue", "--scenario", MISMATCH)
    assert code == 1 and out.splitlines()[-1] == "FAIL"


def _glue_variant(tmp_path, bad2):
    """glue_mismatch.json with its second local replaced."""
    data = json.loads((ROOT / MISMATCH).read_text())
    data["distributions"]["bad2"] = bad2
    path = tmp_path / "glue.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_declared_glue_sees_a_gap_below_float_resolution(capsys, tmp_path):
    # the locals disagree at c by 10^-30, which the floats of 1 and
    # 1 + 10^-30 cannot show
    near = _glue_variant(tmp_path, {
        "kind": "distribution", "domain": "W2",
        "coeffs": {"0": [{"c": "%d/%d" % (10 ** 30 + 1, 10 ** 30), "d": 1}]}})
    code, out, _ = run(capsys, "check", "glue", "--scenario", near,
                       "--tol", "0", "--json")
    assert code == 1
    declared = json.loads(out)["suites"][-1]
    assert declared["suite"] == "glue-declared"
    assert declared["max_residual"] == 1e-30


@pytest.mark.parametrize("bad2", [
    {"kind": "point", "domain": "W2", "a": "c", "terms": [{"c": [1]}]},
    {"kind": "generalized", "domain": "W2", "trunc": 2,
     "coeffs": {"0": [{"c": 1, "d": 1}]}}], ids=["point", "mixed"])
def test_declared_glue_refuses_locals_it_cannot_glue(capsys, tmp_path, bad2):
    path = _glue_variant(tmp_path, bad2)
    code, out, err = run(capsys, "check", "glue", "--scenario", path)
    assert code == 2 and out == ""
    assert err.startswith("error: task 'glue'") and err.count("\n") == 1


def test_smooth_pair_quadrature(capsys):
    code, out, _ = run(capsys, "pair", "eta", "u", "--scenario", SMOOTH,
                       "--json")
    assert code == 0
    v = json.loads(out)["value"]
    # independent 30-digit quadrature of the same bump * x^2 integrand
    assert isinstance(v, float) and abs(v - 0.28493322874108248) < 1e-9


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "pair", "two_point", "u",
                       "--scenario", "scenarios/absent.json")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "pair", "nosuch", "u", "--scenario", PAIR)
    assert code == 2 and "nosuch" in err
    code, _, err = run(capsys, "jet", "u", "zz", "1", "--scenario", PAIR)
    assert code == 2
    code, _, err = run(capsys, "jet", "u", "p", "3", "--scenario", PAIR)
    assert code == 2  # truncation below the requested jet order
    code, _, err = run(capsys, "check", "mv", "--scenario", PAIR,
                       "--seed", "-1")
    assert code == 2
    code, _, err = run(capsys, "check", "mv", "--scenario", PAIR,
                       "--seed", str(2 ** 64))
    assert code == 2
    code, _, err = run(capsys, "pou", "C", "--scenario", PAIR,
                       "--trunc", "-1")
    assert code == 2


def test_empty_value_space_and_string_index_are_input_errors(capsys,
                                                            tmp_path):
    # a point functional with E_dim 0 used to load and apply to [], and
    # "I": "1" used to be read as the derivative stack (1,)
    point = json.loads((ROOT / PAIR).read_text())
    point["distributions"] = {"P": {"kind": "point", "a": "p", "E_dim": 0}}
    smooth = json.loads((ROOT / SMOOTH).read_text())
    smooth["densities"]["eta"]["coeffs"]["1"][0]["I"] = "1"
    for data, argv, why in ((point, ("jet", "u", "p", "0"), "at least 1"),
                            (smooth, ("pair", "eta", "u"), "string")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, "--scenario", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and why in err


def test_object_integer_fields_must_be_json_integers(capsys, tmp_path):
    # a float, bool or string trunc, E_dim or point-term order used to be
    # read through int(): 2.5 as 2, true as 1
    pair = json.loads((ROOT / PAIR).read_text())
    smooth = json.loads((ROOT / SMOOTH).read_text())
    cases = []
    for field, value in (("trunc", 2.5), ("trunc", "2")):
        data = copy.deepcopy(pair)
        data["functions"]["u"][field] = value
        cases.append((data, "p"))
    for kind in ("point", "distribution"):
        for value in (True, 1.0):
            data = copy.deepcopy(pair)
            data["distributions"] = {"P": {"kind": kind, "a": "p",
                                           "E_dim": value}}
            cases.append((data, "p"))
    data = copy.deepcopy(pair)
    data["distributions"] = {"G": {"kind": "generalized", "trunc": 1.5}}
    cases.append((data, "p"))
    data = copy.deepcopy(smooth)
    data["distributions"]["T"]["coeffs"]["0"][0][1]["i"] = 1.5
    cases.append((data, "0"))
    for data, point in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "jet", "u", point, "0",
                             "--scenario", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "must be a JSON integer" in err


def test_tolerance_must_be_finite_and_nonnegative(capsys, tmp_path):
    # glue_mismatch fails at any usable tolerance; a NaN or infinite one
    # would turn its failing check into PASS, so it is refused as input
    for tol in ("nan", "inf", "-inf", "-1e-8"):
        code, out, err = run(capsys, "check", "glue", "--scenario", MISMATCH,
                             "--tol", tol)
        assert code == 2 and out == "" and "--tol" in err, tol
    data = json.loads((ROOT / MISMATCH).read_text())
    for tol in ("nan", "inf", "-1", -0.5, True):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({**data, "tol": tol}))
        code, out, err = run(capsys, "check", "glue", "--scenario", str(path))
        assert code == 2 and out == "" and "'tol'" in err, tol
    code, _, _ = run(capsys, "check", "glue", "--scenario", MISMATCH,
                     "--tol", "0")
    assert code == 1


def test_unknown_command_and_suite_exit_two(capsys):
    assert run(capsys, "frobnicate", "--scenario", PAIR)[0] == 2
    assert run(capsys, "check", "nosuite", "--scenario", PAIR)[0] == 2


def test_trunc_override_reaches_the_scenario(capsys):
    code, out, _ = run(capsys, "jet", "u", "p", "2", "--scenario", PAIR,
                       "--json", "--trunc", "0")
    # the override rewrites the scenario default, not the function data
    assert code == 0 and json.loads(out)["order"] == 2
    code, out, _ = run(capsys, "pou", "C", "--scenario", DEMO, "--json",
                       "--trunc", "5")
    assert code == 0


def test_too_deep_expression_is_an_input_error(capsys, tmp_path):
    # a flat 1500-term sum parses into 1499 nested binary nodes; every
    # walk over an expression is iterative, so its jet is computed
    flat = "(+ %s)" % " ".join(["x"] * 1500)
    # the recursive-descent parser still recurses once per nesting level
    nested = "x"
    for _ in range(3000):
        nested = "(+ x %s)" % nested
    for name, text in (("flat", flat), ("nested", nested)):
        (tmp_path / (name + ".json")).write_text(json.dumps({
            "schema": 1, "backend": "smoothline", "k": 1, "trunc": 2,
            "functions": {"u": {"trunc": 2, "coeffs": {"0": text}}}}))
    code, out, err = run(capsys, "jet", "u", "1", "1",
                         "--scenario", str(tmp_path / "flat.json"))
    assert code == 0 and err == ""
    assert "  I=(0,) J=(0,): 1500" in out.splitlines()
    code, out, err = run(capsys, "jet", "u", "1", "1",
                         "--scenario", str(tmp_path / "nested.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_huge_constant_power_is_an_input_error(capsys, tmp_path):
    # 2**50000000 has fifty million bits; folding it must be refused at
    # once, not computed
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "schema": 1, "backend": "smoothline", "k": 1, "trunc": 2,
        "functions": {"u": {"trunc": 2, "coeffs": {"0": "(pow 2 50000000)"}}}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "jet", "u", "0", "1", "--scenario", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_huge_power_of_x_is_an_input_error(capsys, tmp_path):
    # expanding x**50000000 into coefficients must be refused at once
    # (degree cap), not multiplied out
    path = tmp_path / "huge_x.json"
    path.write_text(json.dumps({
        "schema": 1, "backend": "smoothline", "k": 1, "trunc": 2,
        "functions": {"u": {"trunc": 2,
                            "coeffs": {"0": "(pow x 50000000)"}}},
        "densities": {"eta": {"coeffs": {"0": [
            {"I": [0], "tau": {"expr": "1", "support": [[0, 1]]}}]}}}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "pair", "eta", "u", "--scenario", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "degree" in err


def test_too_many_y_indices_is_an_input_error(capsys, tmp_path):
    # k = 12 at trunc 4 gives C(16, 4) = 1820 y-indices, past the cap;
    # the scenario is refused when it loads, before any check runs
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema": 1, "backend": "discrete", "points": ["a"], "k": 12,
        "trunc": 4}))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "jets", "--scenario", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "y-indices" in err
    # the same k at trunc 2 (91 indices) loads, and --trunc counts
    path.write_text(json.dumps({
        "schema": 1, "backend": "discrete", "points": ["a"], "k": 12,
        "trunc": 2}))
    assert Scenario.load(str(path)).k == 12
    code, _, err = run(capsys, "check", "jets", "--scenario", str(path),
                       "--trunc", "4")
    assert code == 2 and "y-indices" in err


def test_kernel_of_a_kernel_near_zero_is_an_input_error(capsys, tmp_path):
    # s(s(x^3)) at 1/100 asks for exp(-1/t) with 1/t about 10^434294,
    # which ran for minutes before the kernel argument had a floor
    path = tmp_path / "kernel_of_kernel.json"
    path.write_text(json.dumps({
        "schema": 1, "backend": "smoothline", "k": 1, "trunc": 2,
        "functions": {"u": {"trunc": 2,
                            "coeffs": {"0": "(s (s (* x x x)))"}}}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "jet", "u", "1/100", "0", "--scenario",
                         str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "kernel argument" in err


def test_an_integral_out_of_reach_is_not_a_failed_check(capsys, tmp_path):
    # x^41 s(3 + x) s(3 - x) integrates to 0 by symmetry, but its values
    # near the ends exhaust the evaluation budget: the answer is
    # undecided, and pair verifies nothing that could fail
    path = tmp_path / "x41.json"
    path.write_text(json.dumps({
        "schema": 1, "backend": "smoothline", "k": 1, "trunc": 0,
        "functions": {"one": {"trunc": 0, "coeffs": {"0": "1"}}},
        "densities": {"eta": {"coeffs": {"0": [{"I": [0], "tau": {
            "expr": "(* (pow x 41) (* (s (+ 3 x)) (s (+ 3 (* -1 x)))))",
            "support": [[-3, 3]]}}]}}}}))
    code, out, err = run(capsys, "pair", "eta", "one", "--scenario",
                         str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "budget" in err and err.rstrip().endswith("out of reach")


def test_internal_error_exits_three(capsys, monkeypatch):
    import formalcalc.cli as cli

    def broken(args, sc, tol, seed):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._COMMANDS, "pair", broken)
    code, out, err = run(capsys, "pair", "two_point", "u", "--scenario", PAIR)
    assert code == 3 and out == ""
    assert err == "internal error: TypeError('unsupported operand')\n"
    assert "Traceback" not in err


# -- seeded fuzz of the scenario loader and the s-expression parser ----------

FUZZ_COMMANDS = {
    DEMO: (["jet", "u", "a", "1"], ["pair", "eta", "u"], ["rho", "D"],
           ["apply", "D", "u"], ["pou", "C"]),
    PAIR: (["pair", "two_point", "u"], ["jet", "u", "p", "2"]),
    MISMATCH: (["pou", "C"],),
    SMOOTH: (["jet", "u", "0", "1"], ["jet", "w", "0", "1"], ["rho", "D"]),
}
FUZZ_JUNK = (None, True, 0, -1, 7, 1.5, float("inf"), "", "junk", "1/0",
             "1e999", "(pow x 99999999)", [], [1, 2], [None, None], {},
             {"x": 1})
FUZZ_TOKENS = ("foo", "1/0", "(", ")", "1e400", "pow", "x x", "")


def _json_paths(v, path=()):
    """The path of every value inside a JSON tree, the root left out."""
    if isinstance(v, dict):
        items = v.items()
    elif isinstance(v, list):
        items = enumerate(v)
    else:
        items = ()
    for key, w in items:
        yield path + (key,)
        yield from _json_paths(w, path + (key,))


def _mutate(rng, data):
    """data with one value deleted, replaced by junk, or, when it is a
    string, cut short or given a junk token."""
    data = copy.deepcopy(data)
    path = rng.choice(list(_json_paths(data)))
    parent, key = reduce(getitem, path[:-1], data), path[-1]
    op = rng.randrange(3)
    if op == 0:
        del parent[key]
    elif op == 1 and isinstance(parent[key], str):
        text = parent[key]
        if rng.randrange(2):
            parent[key] = text[:rng.randrange(len(text) + 1)]
        else:
            toks = text.replace("(", " ( ").replace(")", " ) ").split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(FUZZ_TOKENS)
            parent[key] = " ".join(toks)
    else:
        parent[key] = copy.deepcopy(rng.choice(FUZZ_JUNK))
    return data


def test_fuzzed_scenarios_keep_the_exit_contract(capsys, tmp_path):
    rng = random.Random(20261018)
    base = {}
    for name in FUZZ_COMMANDS:
        with open(name, encoding="utf-8") as fh:
            base[name] = json.load(fh)
    path = tmp_path / "fuzzed.json"
    for case in range(300):
        name = rng.choice(sorted(FUZZ_COMMANDS))
        path.write_text(json.dumps(_mutate(rng, base[name])))
        argv = rng.choice(FUZZ_COMMANDS[name]) + ["--scenario", str(path)]
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        where = "case %d (%s on a mutated %s):\n%s%s" % (
            case, " ".join(argv[:-2]), name, err, path.read_text())
        assert time.perf_counter() - start < 2.0, where
        assert code in (0, 1, 2), where
        assert "Traceback" not in err and "internal error" not in err, where


@pytest.mark.parametrize("name", ["discrete_demo", "pair_demo",
                                  "glue_mismatch", "smooth_demo"])
def test_check_all_json_at_seed_13_matches_its_golden(capsys, name):
    # the benchmark's second seed on every bundled scenario, byte for
    # byte as recorded; smooth residuals are float64 quadrature values,
    # so like smooth_demo_check.json these bytes hold for one platform
    with open(ROOT / "tests" / "check_all_seed13.json",
              encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    argv = [str(ROOT / a) if a.startswith("scenarios/") else a
            for a in golden["argv"]]
    code, out, _ = run(capsys, *argv)
    assert code == golden["exit"] == (1 if name == "glue_mismatch" else 0)
    assert out == golden["stdout"]


def test_hash_seeds_move_no_byte_of_check_all():
    # set and dict orders follow the hash seed of the interpreter, so each
    # run is a fresh one; all four run at once
    path = os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))

    def start(scenario, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        return subprocess.Popen(
            [sys.executable, "-m", "formalcalc.cli", "check", "all",
             "--scenario", str(ROOT / "scenarios" / scenario), "--json",
             "--seed", "13"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    procs = {(scenario, seed): start(scenario, seed)
             for scenario in ("discrete_demo.json", "smooth_demo.json")
             for seed in ("0", "12345")}
    runs = {key: (proc.communicate(timeout=60)[0], proc.returncode)
            for key, proc in procs.items()}
    for scenario in ("discrete_demo.json", "smooth_demo.json"):
        out, code = runs[scenario, "0"]
        assert code == 0 and out.startswith(b"{"), scenario
        assert runs[scenario, "12345"] == (out, code), scenario


@pytest.mark.parametrize("buffered", [True, False])
def test_a_reader_that_closes_stdout_ends_the_run_as_sigpipe_would(buffered):
    # the read end is closed before the report is written, as `| head -c
    # 10` closes it after ten bytes: no internal error, nothing on stderr.
    # Buffered (the default), the report reaches the pipe at main's flush
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "formalcalc.cli", "check", "all", "--scenario",
         str(ROOT / "scenarios" / "pair_demo.json"), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_a_literal_that_is_not_ascii_decimal_exits_two(capsys, tmp_path):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    for text in ("(pow x 1_0)", "(pow x \u0663)", "(* x \u0663/2)"):
        path = tmp_path / "literal.json"
        path.write_text(json.dumps({
            "schema": 1, "backend": "smoothline", "k": 1, "trunc": 0,
            "functions": {"u": {"trunc": 0, "coeffs": {"0": text}}}}))
        code, out, err = run(capsys, "jet", "u", "1", "0",
                             "--scenario", str(path))
        assert code == 2 and out == "" and err.startswith("error:"), text
