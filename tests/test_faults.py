"""Checks that can fail: faults applied in process, and the check that
must see each of them.

Every fault here is one a proof in place of a measurement could hide:
a law the package proves must still fail when the construction behind
it is broken. Each is applied with monkeypatch, so no copy of the code
is made, and the named CLI check must exit 1. A fault in a check's own
rule, which no bundled scenario meets, must instead turn the verdict of
the test input that meets it.
"""

import copy
from pathlib import Path

import pytest

from formalcalc import sheaf, suites
from formalcalc.cli import main
from formalcalc.densities import FormalDensity
from formalcalc.multiindex import grlex_key
from formalcalc.sheaf import flabby_check
from test_flabby_stages import unreached

SMOOTH = str(Path(__file__).resolve().parent.parent / "scenarios"
             / "smooth_demo.json")


def ext_drops_the_top_key(monkeypatch):
    real = FormalDensity.ext

    def ext(self, m):
        out = real(self, m)
        if out.coeffs:
            top = max(out.coeffs, key=grlex_key)
            out = FormalDensity._trusted(out.space, out.domain, out.k, {
                j: c for j, c in out.coeffs.items() if j != top})
        return out
    monkeypatch.setattr(FormalDensity, "ext", ext)


def glue_sums_one_part_fewer(monkeypatch):
    real = sheaf.sheaf_glue

    def sheaf_glue(locals_, pou, tol=sheaf.DEFAULT_FUNCTIONAL_TOL):
        short = copy.copy(pou)
        short.functions = pou.functions[:-1]
        return real(locals_, short, tol)
    monkeypatch.setattr(suites, "sheaf_glue", sheaf_glue)


def reassemble_drops_its_last_local(monkeypatch):
    real = sheaf.cosheaf_reassemble

    def cosheaf_reassemble(locals_, m):
        return real(list(locals_)[:-1], m)
    monkeypatch.setattr(suites, "cosheaf_reassemble", cosheaf_reassemble)


FAULTS = {
    "FormalDensity.ext drops the top key": (ext_drops_the_top_key, "all"),
    "FormalDensity.ext drops the top key, flabby alone":
        (ext_drops_the_top_key, "flabby"),
    "sheaf_glue sums one part fewer": (glue_sums_one_part_fewer, "glue"),
    "cosheaf_reassemble drops its last local":
        (reassemble_drops_its_last_local, "cosheaf"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_the_smooth_demo_check_sees_the_fault(name, monkeypatch, capsys):
    fault, suite = FAULTS[name]
    argv = ["check", suite, "--scenario", SMOOTH, "--json"]
    assert main(argv) == 0
    fault(monkeypatch)
    assert main(argv) == 1
    assert '"pass":false' in capsys.readouterr().out


def open_sections_count_as_seen(monkeypatch):
    real = sheaf._unseen

    def _unseen(space, reads, bases, tol):
        unseen, error = real(space, reads, bases, tol)
        # after the last stage, the sections still open pass as seen
        return ([], error) if bases.start else (unseen, error)
    monkeypatch.setattr(sheaf, "_unseen", _unseen)


def test_the_unreached_section_sees_a_flabby_rule_that_passes_open_sections(
        monkeypatch):
    # the smooth demo's flabby sections are all seen, so only a section
    # that no probe reaches (test_flabby_stages) tells this fault apart
    assert flabby_check(*unreached()) is False
    open_sections_count_as_seen(monkeypatch)
    assert flabby_check(*unreached()) is True
