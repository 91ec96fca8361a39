"""Command line behavior: exit codes, report formats, determinism."""

import json

from formalcalc.cli import main
from formalcalc.scalars import rat_str
from formalcalc.scenario import Scenario

PAIR = "scenarios/pair_demo.json"
DEMO = "scenarios/discrete_demo.json"
MISMATCH = "scenarios/glue_mismatch.json"
SMOOTH = "scenarios/smooth_demo.json"


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


def test_pou_discrete_and_smooth(capsys):
    code, out, _ = run(capsys, "pou", "C", "--scenario", DEMO, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["grid_residual"] == 0.0 and len(report["functions"]) == 3
    code, out, _ = run(capsys, "pou", "C", "--scenario", SMOOTH, "--json")
    assert code == 0
    assert json.loads(out)["grid_residual"] <= 1e-12


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
    # a flat 1500-term sum parses into nested binary nodes deeper than
    # the recursion limit of the evaluator
    deep = "(+ %s)" % " ".join(["x"] * 1500)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "schema": 1, "backend": "smoothline", "k": 1, "trunc": 2,
        "functions": {"u": {"trunc": 2, "coeffs": {"0": deep}}}}))
    code, out, err = run(capsys, "jet", "u", "0", "1", "--scenario", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
