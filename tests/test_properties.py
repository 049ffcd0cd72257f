"""Property tests of the integer rounding and fixed-point series paths.

The rounding functions are checked bit for bit against the plain-Fraction
reference below; polygamma and its fixed-point series are checked for
containment of mpmath's psi and Hurwitz zeta at four times the precision.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cmgamma.ball import _mpf_tuple_to_fraction, round_nearest, round_up
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
