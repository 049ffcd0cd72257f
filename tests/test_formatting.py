"""The decimal printer against the exact digits and against mpmath.

`ball.decimal_str(q, dps)` prints the dps leading digits of the exact
rational q, rounded once, half away from zero, in the layout of
`mpmath.nstr`.  On random rationals and dyadics, on constructed nines and
ties, on both sides of the fixed/scientific thresholds and on hand-built
balls, the reference is `oracles.decimal_ref`: one decimal division in a
dps-digit ROUND_HALF_UP context, laid out by nstr.  Every enclosure the
package makes has a dyadic midpoint of at most prec + 16 bits and a 16-bit
radius, which mpmath holds exactly at max(prec, 64) + 16 and at 64 bits, so
on the enclosures of the scans and evaluations below the reference is what
mpmath's nstr printed, byte for byte.
"""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cmgamma.ball import Ball, decimal_str
from cmgamma.bounds import g_derivative, h_derivative
from cmgamma.polygamma import polygamma
from cmgamma.scan import GridSpec, cm_scan
from oracles import decimal_ref

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=500)


def nstr_ref(num: int, den: int, prec: int, dps: int) -> str:
    with mp.workprec(prec):
        return mpmath.nstr(mp.mpf(num) / mp.mpf(den), dps)


def ball_strs_ref(ball: Ball) -> tuple[str, str]:
    """Ball.decimal_str and radius_str as they were written with mpmath."""
    digits = max(6, min(40, int(ball.prec * 0.30103)))
    mid = nstr_ref(ball.mid.numerator, ball.mid.denominator,
                   max(ball.prec, 64) + 16, digits)
    rad = "0" if ball.rad == 0 else nstr_ref(ball.rad.numerator,
                                             ball.rad.denominator, 64, 3)
    return mid, rad


def ball_strs_exact(ball: Ball) -> tuple[str, str]:
    """Ball.decimal_str and radius_str from the exact midpoint and radius."""
    digits = max(6, min(40, int(ball.prec * 0.30103)))
    return (decimal_ref(ball.mid, digits),
            "0" if ball.rad == 0 else decimal_ref(ball.rad, 3))


# binary exponents that matter: near 0, the fixed/scientific thresholds
# (decimal exponents -5..40 are within a few hundred bits), and around the
# +-3500-bit point where nstr rescales by a power of ten
EXPONENTS = st.one_of(st.integers(-200, 200), st.integers(-3600, -3400),
                      st.integers(3400, 3600), st.integers(-40000, 40000))
DPS = st.one_of(st.sampled_from([3, 4, 6, 7, 12, 38, 40]), st.integers(1, 45))


def dyadic(man: int, exp: int) -> F:
    return F(man << exp) if exp >= 0 else F(man, 1 << -exp)


@SETTINGS
@given(man=st.integers(1, 2 ** 4200), exp=EXPONENTS, neg=st.booleans(), dps=DPS)
@example(man=1, exp=0, neg=False, dps=3)
@example(man=2 ** 4112 - 1, exp=-3500 - 4112, neg=True, dps=40)
@example(man=2 ** 4112 - 1, exp=3501 - 4112, neg=False, dps=40)
@example(man=3, exp=-40000, neg=False, dps=40)
def test_dyadic_matches_nstr(man, exp, neg, dps):
    q = dyadic(-man if neg else man, exp)
    assert decimal_str(q, dps) == decimal_ref(q, dps)


@SETTINGS
@given(num=st.integers(-2 ** 5000, 2 ** 5000), den=st.integers(1, 2 ** 5000),
       dps=DPS)
@example(num=0, den=1, dps=6)
@example(num=0, den=7, dps=3)
@example(num=-1, den=3, dps=6)
@example(num=1, den=400, dps=1)  # a decimal tie: 0.003, away from zero
# nines that carry, and exact ties at the 13th digit
@example(num=10 ** 400 - 1, den=1, dps=12)
@example(num=5, den=10 ** 400, dps=12)
@example(num=1000000000005, den=10 ** 412, dps=12)
@example(num=-1000000000015, den=10 ** 412, dps=12)
@example(num=9999999999995 * 10 ** 400, den=1, dps=12)
def test_rational_matches_nstr(num, den, dps):
    q = F(num, den)
    assert decimal_str(q, dps) == decimal_ref(q, dps)


@SETTINGS
@given(dps=st.integers(1, 45), run=st.integers(1, 45),
       shift=st.one_of(st.integers(-60, 60), st.integers(-3000, -1000),
                       st.integers(1000, 3000)),
       tweak=st.sampled_from([-1, 0, 1]), tail=st.sampled_from([0, 1, 5, 50, 500]))
@example(dps=40, run=41, shift=-1140, tweak=0, tail=5)
@example(dps=38, run=39, shift=1100, tweak=0, tail=5)
@example(dps=1, run=1, shift=-1000, tweak=-1, tail=0)
def test_nines_and_ties_match_nstr(dps, run, shift, tweak, tail):
    # 99..9 minus a small tail, times 10^shift, nudged by half a unit: the
    # nines carry into 10.0 or round at digit dps + 1, a 5 there is a tie
    base = 10 ** run - tail
    num, den = (base * 10 ** shift, 1) if shift >= 0 else (base, 10 ** -shift)
    q = F(2 * num + tweak, 2 * den)
    assert decimal_str(q, dps) == decimal_ref(q, dps)
    assert decimal_str(-q, dps) == decimal_ref(-q, dps)


@pytest.mark.parametrize("dps", [3, 4, 6, 12, 15, 40])
def test_fixed_scientific_thresholds(dps):
    # leading digit at every decimal exponent from well below min_fixed to
    # well above max_fixed = dps, for values just under and over 10^k
    for k in range(-3 * dps - 10, dps + 10):
        for q in (F(10) ** k, F(10 ** (k + 200) - 1, 10 ** 200),
                  F(10 ** (k + 200) + 1, 10 ** 200),
                  F(5 * 10 ** (k + 200) - 1, 10 ** 200)):
            assert decimal_str(q, dps) == decimal_ref(q, dps)


@SETTINGS
@given(man=st.integers(1, 2 ** 4200), exp=EXPONENTS, neg=st.booleans(),
       rad_man=st.integers(0, 2 ** 16), rad_exp=EXPONENTS,
       prec=st.one_of(st.integers(8, 4096), st.sampled_from([8, 53, 128, 256, 4096])))
def test_ball_strings_match_nstr(man, exp, neg, rad_man, rad_exp, prec):
    # a hand-built midpoint may have more than prec + 16 bits
    ball = Ball(dyadic(-man if neg else man, exp), dyadic(rad_man, rad_exp), prec)
    assert (ball.decimal_str(), ball.radius_str()) == ball_strs_exact(ball)


@SETTINGS
@given(num=st.integers(-2 ** 600, 2 ** 600), den=st.integers(1, 2 ** 600),
       width=st.integers(1, 2 ** 64), width_exp=st.integers(-2000, 200),
       prec=st.one_of(st.integers(8, 4096), st.sampled_from([8, 53, 128, 256, 4096])))
def test_made_balls_match_nstr(num, den, width, width_exp, prec):
    # a Ball made by rounding has a dyadic midpoint of at most prec + 16 bits
    # and a 16-bit radius, which mpmath holds exactly where nstr reads them
    lo = F(num, den)
    ball = Ball.from_endpoints(lo, lo + dyadic(width, width_exp), prec)
    assert (ball.decimal_str(), ball.radius_str()) == ball_strs_ref(ball)


def test_enclosure_strings_match_nstr():
    # every cell of the two default-grid scans, an 8-bit scan whose cells
    # escalate, and 4096-bit balls whose radii lie on nstr's power-of-ten
    # rescaling path print as mpmath printed them
    points = GridSpec.explicit([1, 64, 1000])
    escalating = [cm_scan(kind, 12, points, 8) for kind in ("g", "H")]
    assert {e.prec_used for r in escalating for e in r.entries} == {8, 16, 32}
    balls = [e.ball for r in [cm_scan("g", 8), cm_scan("H", 12, prec=512), *escalating]
             for e in r.entries]
    deep = [*polygamma(tuple(range(1, 33)), F(1, 3), 4096),
            *(g_derivative(k, 64, 4096) for k in (0, 5, 12)),
            *(h_derivative(k, F(7, 5), 4096) for k in (0, 5, 12))]
    assert all(0 < ball.rad < F(1, 10 ** 1054) for ball in deep)
    for ball in balls + deep:
        assert (ball.decimal_str(), ball.radius_str()) == ball_strs_ref(ball)


def test_exact_rational_ball_matches_nstr():
    # exact balls keep non-dyadic midpoints, printed from their exact value
    for q in (F(1, 3), F(-22, 7), F(10 ** 30, 3 ** 70), F(3 ** 400, 7 ** 300)):
        for prec in (8, 64, 100, 1000):
            ball = Ball(q, 0, prec)
            assert (ball.decimal_str(), ball.radius_str()) == ball_strs_exact(ball)
            assert str(ball) == f"{ball_strs_exact(ball)[0]} +/- 0"
