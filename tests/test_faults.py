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

import test_certificates
import test_compiled
import test_derivatives
import test_distributions
import test_exact_laws
from formalcalc import densities, expr, sheaf, suites
from formalcalc.cli import main
from formalcalc.densities import FormalDensity
from formalcalc.multiindex import grlex_key
from formalcalc.sheaf import flabby_check
from formalcalc.spaces import RSet
from test_density_proofs import proved_moved_pairs, proved_pairs
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


def psi_drops_its_minus_sign(monkeypatch):
    monkeypatch.setattr(suites, "mv_psi",
                        lambda zeta, u1, u2: (zeta.ext(u1), zeta.ext(u2)))


def cutoff_restrict_clips_inside_the_plateau(monkeypatch):
    real = FormalDensity.cutoff_restrict

    def cutoff_restrict(self, f, v):
        out = real(self, f, v)
        if not f.plateau:
            return out
        # the middle half of the plateau, where the cutoff is one
        lo, hi = f.plateau.hull()
        inner = RSet.closed_pairs([(lo + (hi - lo) / 4, hi - (hi - lo) / 4)])
        return out._canon({l: tuple((i, tau.clip(inner)) for i, tau in terms)
                           for l, terms in out.coeffs.items()})
    monkeypatch.setattr(FormalDensity, "cutoff_restrict", cutoff_restrict)


FAULTS = {
    "FormalDensity.ext drops the top key": (ext_drops_the_top_key, "all"),
    "FormalDensity.ext drops the top key, flabby alone":
        (ext_drops_the_top_key, "flabby"),
    "sheaf_glue sums one part fewer": (glue_sums_one_part_fewer, "glue"),
    "cosheaf_reassemble drops its last local":
        (reassemble_drops_its_last_local, "cosheaf"),
    "mv_psi drops its minus sign": (psi_drops_its_minus_sign, "mv"),
    "cutoff_restrict clips inside the plateau":
        (cutoff_restrict_clips_inside_the_plateau, "mv"),
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


# -- faults in the piece rule ----------------------------------------------------
#
# A false proof of a true law leaves every check passing, so the test that
# must see each of these is the one that moves every proved density pair by
# an independent bump and proves none of them (test_density_proofs).


def straddling_kernels_are_zeroed(monkeypatch):
    real = expr._at_most_zero
    # at most 0 at one end of the piece is taken for at most 0 on it
    monkeypatch.setattr(expr, "_at_most_zero", lambda arg, lo, hi: (
        real(arg, lo, lo) or real(arg, hi, hi)))


def certificates_hold_every_piece(monkeypatch):
    def _nonzero_on(den, piece):
        while type(den) is expr.Pow:
            den = den.base
        # a certificate on any region, whether it holds the piece or not
        return den in expr._CERTIFIED
    monkeypatch.setattr(expr, "_nonzero_on", _nonzero_on)


def the_budget_drops_terms(monkeypatch):
    def pmul(self, p, q):
        out = {}
        for m, v in p.items():
            for n, w in q.items():
                if self.left[0] <= 0:
                    return out  # the products left are dropped
                self.left[0] -= 1
                mn = expr._mono_mul(m, n)
                out[mn] = out.get(mn, expr.QC_ZERO) + v * w
        return {m: v for m, v in out.items() if v}
    monkeypatch.setattr(expr._Piece, "pmul", pmul)
    monkeypatch.setattr(expr, "PIECE_BUDGET", 10)


RULE_FAULTS = {
    "specialisation zeroes a straddling kernel": straddling_kernels_are_zeroed,
    "a denominator inherits a certificate that misses the piece":
        certificates_hold_every_piece,
    "the expansion drops terms at its budget": the_budget_drops_terms,
}


@pytest.mark.parametrize("name", sorted(RULE_FAULTS))
def test_a_moved_density_pair_sees_the_fault_in_the_piece_rule(name,
                                                               monkeypatch):
    # test_density_proofs holds that no moved pair is proved without it;
    # the pairs are found before the fault is in
    pairs = proved_pairs()
    RULE_FAULTS[name](monkeypatch)
    assert proved_moved_pairs(pairs, first=True)


# -- faults in the Leibniz factors ------------------------------------------------
#
# leibniz reads L!/J'! and C(I, I') through densities' mi_factorial and
# mi_binom on every call. Each fault patches one of them after the law has
# passed once in this process, so a table of the factors kept from an
# earlier call, or a skipped term that should have carried them, would
# hide it. Patched in densities, mi_factorial also drops the L! of
# FormalDensity's pairing on both sides of the density identity, so its
# law is the distribution one, whose pairing reads its own L!.


def leibniz_drops_the_factorial_ratio(monkeypatch):
    monkeypatch.setattr(densities, "mi_factorial", lambda m: 1)


def leibniz_drops_the_binomial(monkeypatch):
    monkeypatch.setattr(densities, "mi_binom", lambda m, s: 1)


LEIBNIZ_FAULTS = {
    "leibniz drops L!/J'!": (
        leibniz_drops_the_factorial_ratio,
        test_distributions.test_module_action_adjunction),
    "leibniz drops C(I, I')": (
        leibniz_drops_the_binomial,
        lambda: test_exact_laws
        .test_the_module_action_is_adjoint_to_multiplication(2, 0)),
}


@pytest.mark.parametrize("name", sorted(LEIBNIZ_FAULTS))
def test_a_module_law_sees_the_fault_in_the_leibniz_factors(name,
                                                            monkeypatch):
    fault, law = LEIBNIZ_FAULTS[name]
    law()
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        law()


# -- a fault in the certificate search --------------------------------------------
#
# The seeds must tile the region: a piece left out is a piece never
# searched, so a denominator nonpositive only there would be certified.


def seeds_omit_the_last_piece(monkeypatch):
    real = expr._seeds
    monkeypatch.setattr(expr, "_seeds",
                        lambda nodes, region: real(nodes, region)[:-1])


def test_a_refutation_past_the_last_cut_sees_seeds_that_omit_the_last_piece(
        monkeypatch):
    law = (test_certificates
           .test_a_denominator_negative_only_past_its_last_cut_is_refuted)
    law()
    seeds_omit_the_last_piece(monkeypatch)
    with pytest.raises(AssertionError):
        law()


# -- a fault in the derivative memo ------------------------------------------------
#
# A node keeps only its first derivative. A memo that answered any order
# from it would hand back d/dx for d^2/dx^2, and only a comparison with the
# walk that rebuilds every order (test_derivatives' oracle) tells.


def the_memo_answers_every_order_with_the_first(monkeypatch):
    real = expr.diff

    def diff(e, order=1):
        return e._d if order and e._d is not None else real(e, order)
    monkeypatch.setattr(expr, "diff", diff)


@pytest.mark.parametrize("kind", ["dag", "bump", "quotient"])
def test_the_full_walk_sees_a_memo_that_answers_every_order_with_the_first(
        kind, monkeypatch):
    law = test_derivatives.test_diff_returns_the_node_the_full_walk_builds
    law(kind, 1)
    the_memo_answers_every_order_with_the_first(monkeypatch)
    with pytest.raises(AssertionError):
        law(kind, 1)


# -- faults in the program writer --------------------------------------------------
#
# Every power the benchmark integrates is a square, so a writer that gets a
# power's exponent wrong moves none of its values: only a comparison with
# the node-by-node typed evaluation (test_compiled's oracle) tells. The same
# oracle must see a kernel written one order too low.


def powers_are_written_as_squares(monkeypatch):
    # one statement table serves real and complex nodes, so a complex
    # power is written as a square too
    monkeypatch.setitem(expr._STATEMENT, expr.Pow, "{0} * {0}")


def kernels_are_written_one_order_low(monkeypatch):
    monkeypatch.setattr(expr, "_REAL_KERN",
                        "0.0 if w{0} == 0.0 else w{0} / t{0} ** ({1} - 1)")


WRITER_FAULTS = {
    "every power is written as a square": powers_are_written_as_squares,
    "a kernel of order m is written as order m - 1":
        kernels_are_written_one_order_low,
}


@pytest.mark.parametrize("name", sorted(WRITER_FAULTS))
def test_the_typed_oracle_sees_the_fault_in_the_program_writer(name,
                                                               monkeypatch):
    law = (test_compiled
           .test_random_integrands_match_tree_evaluation_where_finite)
    law()
    WRITER_FAULTS[name](monkeypatch)
    with pytest.raises(AssertionError):
        law()


def lines_never_write_pending_expressions_out(monkeypatch):
    # an expression read once waits for its reader past every line
    monkeypatch.setattr(expr, "_flush", lambda pending, names, lines: None)


def test_the_exception_order_sees_a_writer_that_inlines_past_a_shared_line(
        monkeypatch):
    law = test_compiled.test_pending_expressions_run_before_a_shared_line
    law()
    lines_never_write_pending_expressions_out(monkeypatch)
    # the shared square's line overflows before the quotient runs
    with pytest.raises(AssertionError, match="OverflowError"):
        law()
