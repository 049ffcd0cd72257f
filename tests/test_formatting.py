"""The mpmath-free decimal formatter against mpmath.

`ball.decimal_str(num, den, prec, dps)` prints mpmath's prec-bit value
of `mpf(num) / mpf(den)` as its correctly rounded dps digits (half away from
zero) in the layout of `mpmath.nstr`.  Wherever nstr's truncating digit path
rounds correctly that is what nstr printed, byte for byte: on the midpoint
path (`Ball.decimal_str`, 6 to 40 digits at max(prec, 64) + 16 bits) and
the radius path (`Ball.radius_str`, 3 digits at 64 bits), for zero and
negative values, ties between binary floats, both sides of the
fixed/scientific thresholds, binary exponents on both sides of the
+-3500-bit point where mpmath rescales by a power of ten, and every
enclosure of the scans and evaluations below.  On random rationals and on
constructed nines and near-ties, where nstr's truncation can misround, the
reference is the exact digits of mpmath's prec-bit value, rounded by the
decimal module.
"""

from decimal import ROUND_HALF_UP, Context, Decimal, MAX_EMAX, MIN_EMIN
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


def exact_ref(num: int, den: int, prec: int, dps: int) -> str:
    """mpmath's prec-bit value of mpf(num) / mpf(den), rounded half away
    from zero to dps digits by one decimal operation and laid out by nstr."""
    with mp.workprec(prec):
        man, exp = (mp.mpf(num) / mp.mpf(den)).man_exp
    ctx = Context(prec=dps, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    man = -man if num < 0 else man
    digits = (ctx.multiply(Decimal(man), Decimal(1 << exp)) if exp >= 0
              else ctx.divide(Decimal(man), Decimal(1 << -exp)))
    # nstr prints a dps-digit decimal, held to 4 dps + 64 bits, as itself
    with mp.workprec(4 * dps + 64):
        return mpmath.nstr(mp.mpf(str(digits)), dps)


# binary exponents that matter: near 0, the fixed/scientific thresholds
# (decimal exponents -5..40 are within a few hundred bits), and around the
# +-3500-bit rescaling point
EXPONENTS = st.one_of(st.integers(-200, 200), st.integers(-3600, -3400),
                      st.integers(3400, 3600), st.integers(-40000, 40000))
PRECS = st.one_of(st.sampled_from([64, 80, 144, 272, 528, 1040, 4112]),
                  st.integers(17, 400))
DPS = st.one_of(st.sampled_from([3, 6, 7, 38, 40]), st.integers(1, 45))


def dyadic(man: int, exp: int) -> tuple[int, int]:
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


@SETTINGS
@given(man=st.integers(1, 2 ** 4200), exp=EXPONENTS, neg=st.booleans(),
       prec=PRECS, dps=DPS)
@example(man=1, exp=0, neg=False, prec=64, dps=3)
@example(man=2 ** 4112 - 1, exp=-3500 - 4112, neg=True, prec=4112, dps=40)
@example(man=2 ** 4112 - 1, exp=3501 - 4112, neg=False, prec=4112, dps=40)
@example(man=3, exp=-40000, neg=False, prec=4112, dps=40)
def test_dyadic_matches_nstr(man, exp, neg, prec, dps):
    num, den = dyadic(-man if neg else man, exp)
    assert decimal_str(num, den, prec, dps) == nstr_ref(num, den, prec, dps)


@SETTINGS
@given(data=st.data(), prec=st.integers(17, 128), exp=EXPONENTS,
       den_bits=st.integers(0, 200))
def test_binary_ties_round_to_even(data, prec, exp, den_bits):
    # an operand halfway between two prec-bit floats rounds to the even one;
    # 40 digits show the last bit of a 128-bit float
    man = data.draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
    num, den = dyadic(2 * man + 1, exp)
    den *= data.draw(st.sampled_from([1, 2 ** prec + 1, 2 ** den_bits + 1]))
    assert decimal_str(num, den, prec, 40) == nstr_ref(num, den, prec, 40)


@SETTINGS
@given(num=st.integers(-2 ** 5000, 2 ** 5000), den=st.integers(1, 2 ** 5000),
       prec=PRECS, dps=DPS)
@example(num=0, den=1, prec=64, dps=6)
@example(num=0, den=7, prec=64, dps=3)
@example(num=-1, den=3, prec=64, dps=6)
@example(num=1, den=400, prec=80, dps=1)  # nstr: 0.002 (truncated to 23 bits)
def test_rational_matches_nstr(num, den, prec, dps):
    # both operands and the quotient are rounded to prec bits first
    assert decimal_str(num, den, prec, dps) == exact_ref(num, den, prec, dps)


@SETTINGS
@given(dps=st.integers(1, 45), run=st.integers(1, 45),
       shift=st.one_of(st.integers(-60, 60), st.integers(-3000, -1000),
                       st.integers(1000, 3000)),
       tweak=st.sampled_from([-1, 0, 1]), tail=st.sampled_from([0, 1, 5, 50, 500]),
       prec=PRECS)
@example(dps=40, run=41, shift=-1140, tweak=0, tail=5, prec=4112)
@example(dps=38, run=39, shift=1100, tweak=0, tail=5, prec=4112)
@example(dps=1, run=1, shift=-1000, tweak=-1, tail=0, prec=64)  # nstr: 9.0e-1000
def test_nines_and_ties_match_nstr(dps, run, shift, tweak, tail, prec):
    # 99..9 minus a small tail, times 10^shift, nudged by half a unit: the
    # nines carry into 10.0 or round at digit dps + 1, a 5 there is a tie.
    # Beyond 10^+-1054 nstr rescales by an inexact power of ten, and the
    # truncated digits it rounds can misround a value next to a tie.
    base = 10 ** run - tail
    num, den = (base * 10 ** shift, 1) if shift >= 0 else (base, 10 ** -shift)
    num, den = 2 * num + tweak, 2 * den
    assert decimal_str(num, den, prec, dps) == exact_ref(num, den, prec, dps)
    assert decimal_str(-num, den, prec, dps) == exact_ref(-num, den, prec, dps)


@pytest.mark.parametrize("dps", [3, 6, 12, 15, 40])
def test_fixed_scientific_thresholds(dps):
    # leading digit at every decimal exponent from well below min_fixed to
    # well above max_fixed = dps, for values just under and over 10^k
    for k in range(-3 * dps - 10, dps + 10):
        for num, den in ((10 ** k, 1) if k >= 0 else (1, 10 ** -k),
                         (10 ** (k + 200) - 1, 10 ** 200),
                         (10 ** (k + 200) + 1, 10 ** 200),
                         (5 * 10 ** (k + 200) - 1, 10 ** 200)):
            for prec in (64, 144):
                assert decimal_str(num, den, prec, dps) == nstr_ref(num, den, prec, dps)


@SETTINGS
@given(man=st.integers(1, 2 ** 4200), exp=EXPONENTS, neg=st.booleans(),
       rad_man=st.integers(0, 2 ** 16), rad_exp=EXPONENTS,
       prec=st.one_of(st.integers(8, 4096), st.sampled_from([8, 53, 128, 256, 4096])))
def test_ball_strings_match_nstr(man, exp, neg, rad_man, rad_exp, prec):
    mid = F(*dyadic(-man if neg else man, exp))
    ball = Ball(mid, F(*dyadic(rad_man, rad_exp)), prec)
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
    # exact balls keep non-dyadic midpoints: both operands get rounded
    for q in (F(1, 3), F(-22, 7), F(10 ** 30, 3 ** 70), F(3 ** 400, 7 ** 300)):
        for prec in (8, 64, 100, 1000):
            ball = Ball(q, 0, prec)
            assert (ball.decimal_str(), ball.radius_str()) == ball_strs_ref(ball)
            assert str(ball) == f"{ball_strs_ref(ball)[0]} +/- 0"
