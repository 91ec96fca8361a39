"""Checks that can fail: faults applied in process, and the check that
must see each of them.

Every fault here is one a proof in place of a measurement could hide:
a law the package proves must still fail when the construction behind
it is broken. Each is applied with monkeypatch, so no copy of the code
is made, and the named CLI check must exit 1.
"""

import copy
from pathlib import Path

import pytest

from formalcalc import sheaf, suites
from formalcalc.cli import main
from formalcalc.densities import FormalDensity
from formalcalc.multiindex import grlex_key

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
