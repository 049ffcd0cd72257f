"""Property tests of the integer rounding, ball, series and partial-fraction paths.

The rounding functions and the Ball operations are checked bit for bit
against the plain-Fraction references below; the fixed-point series is
checked bit for bit against a reference copy of the loop that recomputes
every remainder bound, and with polygamma for containment of mpmath's psi
and Hurwitz zeta at four times the precision; the Bernoulli numbers are
checked against mpmath's; the integer partial-fraction decomposition is
checked against sympy's ``apart`` and by recomposing it.
"""

import math
from fractions import Fraction as F

import mpmath
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cmgamma.algebra import (PartialFractionForm, PartialFractionTerm, Poly,
                             pfd_decompose, pfd_recompose)
from cmgamma.ball import Ball, _mpf_tuple_to_fraction, round_nearest, round_up
from cmgamma.constants import (BOUND_DEN_FACTORS, REMAINDER_DEN_FACTORS,
                               load_constants)
from cmgamma.errors import PrecisionError
from cmgamma.polygamma import _bernoulli, _zeta_like_sum, polygamma

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
@given(rationals, st.integers(1, 120), st.integers(1, 2 ** 70))
def test_round_nearest_matches_fraction_reference(q, bits, k):
    want = ref_round_nearest(q, bits)
    assert round_nearest(q, bits) == want
    assert round_nearest(q.numerator * k, bits, q.denominator * k) == want  # unreduced


@SETTINGS
@given(dyadic_ties)
def test_round_nearest_ties_to_even(q):
    # one bit short of exact: the remainder is exactly half an ulp
    bits = abs(q.numerator).bit_length() - 1
    assert round_nearest(q, bits) == ref_round_nearest(q, bits)


@SETTINGS
@given(rationals.map(abs), st.integers(1, 120), st.integers(1, 2 ** 70))
def test_round_up_matches_fraction_reference(q, bits, k):
    want = ref_round_up(q, bits)
    assert round_up(q, bits) == want
    assert round_up(q.numerator * k, bits, q.denominator * k) == want  # unreduced


# Ball operations as plain Fraction formulas: the exact result, then one
# rounding of the midpoint to prec + 16 bits and of the radius to 16 bits.

def ref_make(mid: F, rad: F, prec: int) -> tuple[F, F]:
    if rad == 0:
        return mid, F(0)
    mid2, err = ref_round_nearest(mid, prec + 16)
    return mid2, ref_round_up(rad + err, 16)


def ref_op(op: str, x, y) -> tuple[F, F]:
    """x op y for Balls and exact rationals, one of them a Ball."""
    if not isinstance(x, Ball):  # q - ball is (-ball) + q; q + ball, q * ball commute
        return ref_op("+", Ball(-y.mid, y.rad, y.prec), x) if op == "-" else ref_op(op, y, x)
    if isinstance(y, Ball):
        prec = min(x.prec, y.prec)
        if op == "*":
            return ref_make(x.mid * y.mid, abs(x.mid) * y.rad + abs(y.mid) * x.rad
                            + x.rad * y.rad, prec)
        sign = 1 if op == "+" else -1
        return ref_make(x.mid + sign * y.mid, x.rad + y.rad, prec)
    if op == "*":
        return ref_make(x.mid * y, x.rad * abs(y), x.prec)
    return ref_make(x.mid + (y if op == "+" else -y), x.rad, x.prec)


small = st.one_of(st.just(F(0)), st.integers(-10 ** 6, 10 ** 6).map(F),
                  st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6))  # non-dyadic
dyadic = st.builds(lambda m, e: F(m) * F(2) ** e, st.integers(-2 ** 300, 2 ** 300),
                   st.integers(-400, 100))
radii = st.one_of(st.just(F(0)), st.builds(lambda m, e: F(m) * F(2) ** e,
                                           st.integers(1, 2 ** 16), st.integers(-420, 0)))
balls = st.builds(Ball, st.one_of(small, dyadic), radii, st.integers(8, 300))
operands = st.one_of(balls, small, st.integers(-10 ** 20, 10 ** 20))


@SETTINGS
@given(st.sampled_from("+-*"), balls, operands, st.booleans())
@example("*", Ball(F(1, 3), 0, 53), F(-2, 7), False)  # exact, non-dyadic
@example("-", Ball(F(1, 3), F(1, 2 ** 60), 53), 0, True)
@example("+", Ball(0, F(1, 2 ** 30), 64), Ball(F(-5, 3), 0, 128), False)
def test_ball_ops_match_fraction_reference(op, x, y, swap):
    if swap:
        x, y = y, x
    got = {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y}[op]()
    assert (got.mid, got.rad) == ref_op(op, x, y)
    assert got.prec == min(b.prec for b in (x, y) if isinstance(b, Ball))


@SETTINGS
@given(st.one_of(small, dyadic), radii, st.integers(8, 300), st.integers(1, 2 ** 40),
       st.integers(1, 2 ** 40))
def test_make_of_unreduced_ratios_matches_fraction_reference(mid, rad, prec, k, j):
    ball = Ball._make(mid.numerator * k, mid.denominator * k,
                      rad.numerator * j, rad.denominator * j, prec)
    assert (ball.mid, ball.rad) == ref_make(mid, rad, prec)


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


def test_bernoulli_matches_mpmath():
    for n in range(2, 401, 2):
        p, q = mpmath.bernfrac(n)
        assert _bernoulli(n) == F(int(p), int(q))


def ref_zeta_like_sum(s: int, x: F, wbits: int) -> tuple[F, F]:
    """The series with the exact remainder bound recomputed at every step."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length() + 1
    fbits = max(0, wbits + 24 + s * e + 16)
    for attempt in range(4):
        n_terms = max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d)
        ds = d ** s << fbits
        head = sum(ds // (n + i * d) ** s for i in range(n_terms))
        big_a = n + n_terms * d
        integral = (d ** (s - 1) << fbits) // ((s - 1) * big_a ** (s - 1))
        total = head + integral + ds // (2 * big_a ** s)
        floors = n_terms + 2
        target = (head + integral) >> (wbits + 8)
        rising = s
        dj, aj = d ** (s + 1), big_a ** (s + 1)
        remainder = None
        prev_bound = None
        for k in range(1, 100001):
            if k > 1:
                rising *= (s + 2 * k - 3) * (s + 2 * k - 2)
                dj *= d * d
                aj *= big_a * big_a
            p, q = mpmath.bernfrac(2 * k)
            total += ((int(p) * rising * dj << fbits)
                      // (int(q) * math.factorial(2 * k) * aj))
            floors += 1
            bound = -(-(5 * 4 ** (2 * k + 1) * rising * (s + 2 * k - 1) * dj * d << fbits)
                      // (2 * 25 ** (2 * k + 1) * aj * big_a))
            if bound <= target:
                remainder = bound
                break
            if prev_bound is not None and bound > prev_bound:
                break
            prev_bound = bound
        if remainder is not None:
            one = 1 << fbits
            return F(total, one), F(floors + remainder, one)
    raise PrecisionError("not certifiable")


@settings(SETTINGS, max_examples=150)
@given(st.integers(2, 16), positive_x, st.integers(64, 1100))
@example(16, F(1, 2 ** 20), 1100)
@example(2, F(2 ** 20), 1100)
@example(7, F(999983, 1000003), 64)
@example(30, F(9), 8)  # the first N diverges: the loop retries with a larger N
@example(33, F(12), 19)
@example(33, F(22), 49)  # the bounds decrease by less than 2 bits a step before the stop
@example(18, F(17, 2), 7)
def test_series_matches_reference_loop(s, x, wbits):
    total, radius, fbits = _zeta_like_sum(s, x, wbits)
    assert (F(total, 2 ** fbits), F(radius, 2 ** fbits)) == ref_zeta_like_sum(s, x, wbits)


@settings(SETTINGS, max_examples=12)
@given(st.integers(2, 14), positive_x, st.sampled_from([64, 256, 1024]))
def test_series_radius_covers_hurwitz_zeta(s, x, wbits):
    # the raw series enclosure, before Ball renormalization widens it
    total, radius, fbits = _zeta_like_sum(s, x, wbits)
    mid, rad = F(total, 2 ** fbits), F(radius, 2 ** fbits)
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
