"""Bound functions, their derivatives, and the exact identity checks."""

import importlib
import random
import re
from fractions import Fraction as F

import pytest
from mpmath import mp

import cmgamma
from cmgamma import bounds
from cmgamma.algebra import Poly, pfd_decompose, pfd_recompose
from cmgamma.ball import MAX_PREC, Ball
from cmgamma.cli import main
from cmgamma.constants import load_constants
from cmgamma.errors import DomainError, PrecisionError
from cmgamma.polygamma import polygamma, polygamma_quadrature_crosscheck
from cmgamma.scan import GridSpec, cm_scan, default_grid
from oracles import contains, overlaps, rational_part_derivatives

GRID = (F(1, 20), F(1, 10), F(1, 4), F(1, 2), F(1), F(2), F(5), F(10), F(50))

# (line pattern, replacement) of the constants file; None keeps it as shipped
PERTURBED_Q = (r"4 2645782983", "4 2645782984")
PERTURBED_EXPANSION = (r"-251/120 1 2", "-131/120 1 2")


def test_p_and_q_values(consts):
    assert consts.p(0) == 450
    assert consts.q(0) == 1382400
    assert consts.p(1) == 189241  # oracle: coefficient sum


def test_bound_exact_at_one():
    assert bounds.bound_exact(1) == F(189241, 921600)


def test_bound_exact_at_two_independent_oracle():
    # oracle: plain big-integer arithmetic, bypassing Poly and the PFD
    coeffs = (450, 3600, 13290, 29700, 44101, 45050, 31865, 15370, 4840, 900, 75)
    p2 = sum(c * 2 ** i for i, c in enumerate(coeffs))
    assert bounds.bound_exact(2) == F(p2, 900 * 2 ** 4 * 3 ** 10)


def test_bound_domain():
    with pytest.raises(DomainError):
        bounds.bound_exact(0)
    with pytest.raises(DomainError):
        bounds.g_eval(F(-1))
    with pytest.raises(DomainError):
        bounds.g_eval(F(1, 2 ** 30))  # below the small-x cutoff


def test_g_at_one_against_closed_form():
    # oracle: g(1) = pi^4/36 - 2 zeta(3) - 189241/921600
    ball = bounds.g_eval(1, 192)
    with mp.workprec(500):
        oracle = mp.pi ** 4 / 36 - 2 * mp.zeta(3) - mp.mpf(189241) / 921600
        assert contains(ball, oracle)
    assert ball.sign() == 1


def test_g_positive_on_grid():
    for x in GRID:
        assert bounds.g_eval(x, 128).sign() == 1, x


@pytest.mark.parametrize("x, used", [(F(10 ** 12), 512), (F(10 ** 20), 512),
                                     (F(2 ** 500), 4096)],
                         ids=["1e12", "1e20", "2^500"])
@pytest.mark.parametrize("kind", ["g", "H"])
def test_large_x_values_meet_their_target(kind, x, used):
    # g ~ 1/(6 x^6) and H ~ 1/(2 x^5) are left after terms near x^-2 and
    # x^-1 cancel, so the psi terms need several times the target precision
    evaluate = bounds.g_eval if kind == "g" else bounds.h_eval
    lead = F(1, 6 * x ** 6) if kind == "g" else F(1, 2 * x ** 5)
    ball = evaluate(x, 128)
    assert ball.prec == used
    assert ball.mid > 0 and ball.rad <= ball.mid / 2 ** 128
    assert abs(ball.mid / lead - 1) < F(1, 10 ** 6)


def test_value_beyond_the_escalation_cap_raises():
    with pytest.raises(PrecisionError, match="2\\^-4096 relative at 4096 bits"):
        bounds.g_eval(F(2 ** 500), 4096)


def test_g_decay_spot():
    assert bounds.g_eval(100, 128).mid < bounds.g_eval(1, 128).mid


def test_h_positive():
    for x in (F(1), F(1, 2)):
        assert bounds.h_eval(x, 128).sign() == 1


def test_h_relation_to_g_difference():
    # g(1) - g(2) must match 2*H(1) as overlapping enclosures
    lhs = bounds.g_eval(1, 160) - bounds.g_eval(2, 160)
    rhs = bounds.h_eval(1, 160) * F(2)
    assert overlaps(lhs, rhs)


def test_remainder_exact_matches_q_over_denominator(consts):
    for x in (F(1), F(1, 3), F(7, 2)):
        direct = consts.q(x) / (1800 * x ** 2 * (1 + x) ** 10 * (2 + x) ** 10)
        assert consts.remainder_expansion.eval_exact(x) == direct


class TestExpansionIdentity:
    def test_passes_on_shipped_constants(self):
        rep = cmgamma.pf_expansion_identity_check()
        assert rep.expansion_equal and rep.remark_equal and rep.passed
        assert rep.diff_terms == ()

    def test_detects_perturbed_coefficient(self, mutate_constants):
        # add 1 to the -251/120 coefficient: -251/120 + 1 = -131/120
        path = mutate_constants(r"-251/120 1 2", "-131/120 1 2")
        rep = cmgamma.pf_expansion_identity_check(load_constants(path))
        assert not rep.expansion_equal
        assert any(s == 1 and o == 2 for s, o, _, _ in rep.diff_terms)
        assert "UNEQUAL" in rep.detail
        # and 3/4 -> 7/4 at x^-2 too: both differences, in (shift, order) order
        path = mutate_constants(r"-251/120 1 2", "-131/120 1 2",
                                (r"3/4 0 2", "7/4 0 2"))
        rep = cmgamma.pf_expansion_identity_check(load_constants(path))
        assert rep.diff_terms == ((0, 2, F(3, 4), F(7, 4)),
                                  (1, 2, F(-251, 120), F(-131, 120)))

    def test_detects_perturbed_q(self, mutate_constants):
        path = mutate_constants(*PERTURBED_Q)
        rep = cmgamma.pf_expansion_identity_check(load_constants(path))
        assert rep.expansion_equal and not rep.remark_equal

    @pytest.mark.parametrize("mutation, codes, out", [
        (None, (0, 0),
         "expansion identity: equal\nremainder recomposition: equal\n"),
        (PERTURBED_Q, (0, 1),
         "expansion identity: equal\nremainder recomposition: UNEQUAL\n"),
        (PERTURBED_EXPANSION, (1, 1),
         "expansion identity: UNEQUAL\n"
         "  (x+1)^-2: telescoped side -251/120, transcribed side -131/120\n"
         "remainder recomposition: UNEQUAL\n"),
    ])
    def test_remark_matches_recomposition_and_cli(self, mutation, codes, out,
                                                  mutate_constants, capsys):
        path = str(mutate_constants(*mutation)) if mutation else None
        c = load_constants(path)  # the same loader call as --constants
        # oracle: recompose the expansion and cross-multiply with q/denominator
        num, den = pfd_recompose(c.remainder_expansion)
        target_den = Poly.monomial(1800, 2) * Poly([1, 1]) ** 10 * Poly([2, 1]) ** 10
        recomposed = num * target_den == c.q * den
        assert cmgamma.pf_expansion_identity_check(c).remark_equal == recomposed
        assert recomposed == (mutation is None)
        # both CLI checks print the whole report; only the exit codes differ
        extra = ["--constants", path] if path else []
        for which, code in zip(("expansion", "remark2"), codes):
            assert main(["identity-check", which, *extra]) == code
            assert capsys.readouterr().out == out


class TestTelescoping:
    @pytest.mark.parametrize("x", [F(1), F(1, 4), F(10)])
    def test_identity_points(self, x):
        rep = bounds.telescoping_identity_check(x, 192)
        assert rep.passed
        assert rep.gap <= rep.combined_radius

    def test_full_grid(self):
        for x in GRID:
            assert bounds.telescoping_identity_check(x, 160).passed, x


def _closed_form_points():
    rng = random.Random(20261018)
    seeded = [F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4)) for _ in range(4)]
    return list(default_grid().points) + [F(1, 1024), F(1, 3)] + seeded


class TestDerivatives:
    @pytest.mark.parametrize("x", _closed_form_points(), ids=str)
    def test_closed_form_matches_leibniz_oracle(self, consts, x):
        # oracle: Leibniz over p or q and the powers of (x+s), no partial
        # fractions
        for kind, form in (("g", bounds._bound_pf(consts.p)),
                           ("H", consts.remainder_expansion)):
            want = rational_part_derivatives(kind, x, 12, consts)
            assert [form.eval_exact(x, k) for k in range(13)] == want, kind

    def test_bound_is_decomposed_once_per_p(self, monkeypatch):
        # the memo keys on p, not on how the constants were passed
        calls = []
        monkeypatch.setattr(bounds, "pfd_decompose",
                            lambda *args: calls.append(args) or pfd_decompose(*args))
        bounds._bound_pf.cache_clear()
        bounds.g_derivative(0, 1, 64)
        bounds.g_derivative(0, 1, 64, load_constants())
        assert len(calls) == 1

    def test_order_zero_matches_g_eval(self):
        assert overlaps(bounds.g_derivative(0, 1, 128), bounds.g_eval(1, 128))

    def test_cm_sign_pattern_spot(self):
        ball = bounds.g_derivative(3, 2, 128)
        assert (-1) ** 3 * ball.sign() == 1

    def test_order_cap(self):
        with pytest.raises(DomainError):
            bounds.g_derivative(13, 1, 64)
        with pytest.raises(DomainError):
            bounds.h_derivative(-1, 1, 64)

    @pytest.mark.parametrize("k", [True, 1.0])
    @pytest.mark.parametrize("kind", ["g", "H"])
    def test_order_must_be_an_int(self, kind, k):
        # a bool is not an order, and a float is refused before range() sees it
        deriv = bounds.g_derivative if kind == "g" else bounds.h_derivative
        with pytest.raises(DomainError, match="^derivative order must be in 0..12$"):
            deriv(k, 1, 64)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_central_difference_on_grid(self, k):
        # oracle: (f(x+h) - f(x-h))/2h = f'(x) + h^2/6 f'''(xi) with
        # f = g^(k-1); the O(h^2) coefficient is bounded through g^(k+2).
        h = F(1, 2 ** 20)
        prec = 224
        for x in GRID:
            target = bounds.g_derivative(k, x, prec)
            above = bounds.g_derivative(k - 1, x + h, prec)
            below = bounds.g_derivative(k - 1, x - h, prec)
            fd = (above.mid - below.mid) / (2 * h)
            third = bounds.g_derivative(k + 2, x, 96)
            m3 = 2 * (abs(third.mid) + third.rad)
            tol = (target.rad + (above.rad + below.rad) / (2 * h)
                   + h ** 2 / 6 * m3)
            assert abs(fd - target.mid) <= tol, (k, x)

    def test_h_derivative_sign_spot(self):
        for k in (0, 1, 2):
            ball = bounds.h_derivative(k, F(3, 2), 128)
            assert (-1) ** k * ball.sign() == 1


# every numeric entry point that takes a precision, at x = 1
PREC_ENTRY_POINTS = {
    "Ball": lambda prec: Ball(1, 0, prec),
    "polygamma": lambda prec: polygamma(1, 1, prec),
    "quadrature": lambda prec: polygamma_quadrature_crosscheck(1, 1, prec),
    "g_eval": lambda prec: bounds.g_eval(1, prec),
    "h_eval": lambda prec: bounds.h_eval(1, prec),
    "g_derivative": lambda prec: bounds.g_derivative(0, 1, prec),
    "h_derivative": lambda prec: bounds.h_derivative(0, 1, prec),
    "telescoping": lambda prec: bounds.telescoping_identity_check(1, prec),
    "cm_scan": lambda prec: cm_scan("g", 1, GridSpec.explicit([1]), prec),
}


@pytest.mark.parametrize("prec, message", [
    (64.0, "precision 64.0 is not an integer"),
    (True, "precision True is not an integer"),
    (7, "precision must be at least 8 bits"),
    (4097, "precision above the limit of 4096 bits"),
], ids=["float", "bool", "7", "4097"])
@pytest.mark.parametrize("entry", PREC_ENTRY_POINTS)
def test_one_precision_rule(monkeypatch, entry, prec, message):
    # ball.check_prec refuses the precision before any series or quadrature
    # runs, so a precision far above the cap costs nothing
    def never(*args, **kwargs):
        raise AssertionError("a series or quadrature ran")

    monkeypatch.setattr(importlib.import_module("cmgamma.polygamma"),
                        "_psi_sums", never)
    monkeypatch.setattr(mp, "quad", never)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        PREC_ENTRY_POINTS[entry](prec)


def test_escalation_cap_is_the_precision_limit():
    assert bounds.ESCALATION_CAP_BITS == MAX_PREC == 4096
    assert Ball(1, 0, MAX_PREC).prec == MAX_PREC
