"""Property tests of the integer rounding, series and partial-fraction paths.

The rounding functions are checked bit for bit against the plain-Fraction
reference below; polygamma and its fixed-point series are checked for
containment of mpmath's psi and Hurwitz zeta at four times the precision;
the integer partial-fraction decomposition is checked against sympy's
``apart`` and by recomposing it.
"""

from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cmgamma.algebra import (PartialFractionForm, PartialFractionTerm, Poly,
                             pfd_decompose, pfd_recompose)
from cmgamma.ball import _mpf_tuple_to_fraction, round_nearest, round_up
from cmgamma.constants import (BOUND_DEN_FACTORS, REMAINDER_DEN_FACTORS,
                               load_constants)
from cmgamma.polygamma import _zeta_like_sum, polygamma

SETTINGS = settings(derandomize=True, deadline=None, database=None)


def _floor_log2(q: F) -> int:
    k = q.numerator.bit_length() - q.denominator.bit_length()
    while F(2) ** k > q:
        k -= 1
    while F(2) ** (k + 1) <= q:
        k += 1
    return k


def ref_round_nearest(q: F, bits: int) -> tuple[F, F]:
    if q == 0:
        return F(0), F(0)
    e = _floor_log2(abs(q)) - bits + 1
    t = q / F(2) ** e
    if t.denominator == 1:
        return q, F(0)
    return round(t) * F(2) ** e, F(2) ** (e - 1)  # round() ties to even


def ref_round_up(q: F, bits: int) -> F:
    if q == 0:
        return F(0)
    e = _floor_log2(q) - bits + 1
    return -(-q / F(2) ** e // 1) * F(2) ** e


big = 2 ** 300
rationals = st.builds(F, st.integers(-big, big), st.integers(1, big))
dyadic_ties = st.builds(lambda m, e, neg: F(-(2 * m + 1) if neg else 2 * m + 1) * F(2) ** e,
                        st.integers(1, 2 ** 80), st.integers(-200, 200), st.booleans())


@SETTINGS
@given(rationals, st.integers(1, 120))
def test_round_nearest_matches_fraction_reference(q, bits):
    assert round_nearest(q, bits) == ref_round_nearest(q, bits)


@SETTINGS
@given(dyadic_ties)
def test_round_nearest_ties_to_even(q):
    # one bit short of exact: the remainder is exactly half an ulp
    bits = abs(q.numerator).bit_length() - 1
    assert round_nearest(q, bits) == ref_round_nearest(q, bits)


@SETTINGS
@given(rationals.map(abs), st.integers(1, 120))
def test_round_up_matches_fraction_reference(q, bits):
    assert round_up(q, bits) == ref_round_up(q, bits)


positive_x = st.builds(lambda frac, k: frac * F(2) ** k,
                       st.fractions(min_value=1, max_value=2, max_denominator=10 ** 6),
                       st.integers(-20, 19))


@settings(SETTINGS, max_examples=30)
@given(st.integers(1, 13), positive_x, st.sampled_from([64, 256, 1024]))
@example(13, F(1, 2 ** 20), 1024)
@example(13, F(2 ** 20), 1024)
@example(1, F(1, 2 ** 20), 1024)
@example(2, F(3, 7), 1024)
def test_polygamma_contains_mpmath(m, x, prec):
    ball = polygamma(m, x, prec)
    assert ball.rad <= abs(ball.mid) * F(1, 2 ** prec)
    with mp.workprec(4 * prec):
        assert ball.contains(mp.psi(m, mp.mpf(x.numerator) / x.denominator))


@settings(SETTINGS, max_examples=12)
@given(st.integers(2, 14), positive_x, st.sampled_from([64, 256, 1024]))
def test_series_radius_covers_hurwitz_zeta(s, x, wbits):
    # the raw series enclosure, before Ball renormalization widens it
    mid, rad = _zeta_like_sum(s, x, wbits)
    assert rad <= mid / 2 ** (wbits + 4)
    with mp.workprec(4 * wbits):
        ref = _mpf_tuple_to_fraction(mp.zeta(s, mp.mpf(x.numerator) / x.denominator)._mpf_)
    assert abs(ref - mid) <= rad


SX = sympy.Symbol("x")


def sympy_partial_fractions(num: Poly, factors) -> PartialFractionForm:
    """The same decomposition by sympy's ``apart``, read back term by term."""
    expr = sum((sympy.Rational(c.numerator, c.denominator) * SX ** i
                for i, c in enumerate(num.coeffs)), sympy.Integer(0))
    for a, m in factors:
        expr /= (SX + a) ** m
    terms = []
    for term in sympy.Add.make_args(sympy.apart(expr, SX)):
        if term == 0:
            continue
        top, bottom = term.as_numer_denom()
        assert top.is_Rational
        bottom = sympy.Poly(bottom, SX)
        m, lead = bottom.degree(), bottom.LC()
        a = bottom.coeff_monomial(SX ** (m - 1)) / (m * lead)
        assert bottom == sympy.Poly(lead * (SX + a) ** m, SX)  # one pole per term
        c = top / lead
        terms.append(PartialFractionTerm(F(int(c.p), int(c.q)), int(a), m))
    return PartialFractionForm(Poly.zero(), terms)


@st.composite
def proper_fractions(draw):
    shifts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    factors = [(a, draw(st.integers(1, 10))) for a in shifts]
    total = sum(m for _, m in factors)
    size = draw(st.integers(0, total))  # zero numerator included
    coeffs = draw(st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6),
                           min_size=size, max_size=size))
    return Poly(coeffs), factors


_SHIPPED = load_constants()


@settings(SETTINGS, max_examples=10)
@given(proper_fractions())
@example((Poly(()), [(0, 3), (4, 2)]))
@example((_SHIPPED.p * F(1, 900), list(BOUND_DEN_FACTORS)))
@example((_SHIPPED.q * F(1, 1800), list(REMAINDER_DEN_FACTORS)))
def test_pfd_decompose_matches_sympy_apart(case):
    num, factors = case
    form = pfd_decompose(num, factors)
    assert form == sympy_partial_fractions(num, factors)
    got_num, got_den = pfd_recompose(form)
    den = Poly([1])
    for a, m in factors:
        den = den * Poly([a, 1]) ** m
    assert got_num * den == num * got_den
