"""Dyadic midpoint-radius enclosures."""

import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from cmgamma.ball import Ball, _mpf_tuple_to_fraction, round_nearest, round_up
from oracles import contains, overlaps


def rounded_ball(q, prec):
    """q rounded to a prec + 16 bit dyadic, the rounding error as radius."""
    mid, err = round_nearest(q, prec + 16)
    return Ball(mid, err, prec)


def test_round_nearest_exact_when_representable():
    v, err = round_nearest(F(5), 20)
    assert v == 5 and err == 0


def test_round_nearest_error_bound():
    q = F(1, 3)
    v, err = round_nearest(q, 30)
    assert err > 0
    assert abs(q - v) <= err


def test_round_up_dominates():
    rng = random.Random(1)
    for _ in range(100):
        q = F(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
        r = round_up(q)
        assert r >= q
        assert r / q < F(1001, 1000)


@pytest.mark.parametrize("sign", [1, -1])
def test_within_is_rad_at_most_mid_over_two_to_prec(sign):
    mid, prec = sign * F(3, 5), 20
    edge = abs(mid) / 2 ** prec
    assert Ball(mid, edge, 8).within(prec)
    assert not Ball(mid, edge + F(1, 2 ** 80), 8).within(prec)
    assert Ball(mid, 0, 8).within(10 ** 4)
    assert Ball(0, 0, 8).within(prec) and not Ball(0, F(1, 2 ** 80), 8).within(prec)


def test_exact_ball_keeps_rational():
    b = Ball(F(1, 3), 0, 64)
    assert b.rad == 0 and b.mid == F(1, 3)


def test_arithmetic_containment():
    rng = random.Random(42)
    for _ in range(100):
        a = F(rng.randint(-99, 99), rng.randint(1, 99))
        b = F(rng.randint(-99, 99), rng.randint(1, 99))
        ba = rounded_ball(a, 64)
        bb = rounded_ball(b, 64)
        assert contains(ba + bb, a + b)
        assert contains(ba - bb, a - b)
        assert contains(ba * bb, a * b)
        assert contains(ba * b, a * b)
        assert contains(-ba, -a)


def test_product_containment_with_wide_radii():
    # sample endpoints and midpoints of both factors: all products must land
    # inside the product ball
    rng = random.Random(77)
    for _ in range(60):
        ma = F(rng.randint(-50, 50), rng.randint(1, 9))
        mb = F(rng.randint(-50, 50), rng.randint(1, 9))
        ra = F(rng.randint(0, 40), rng.randint(1, 9))
        rb = F(rng.randint(0, 40), rng.randint(1, 9))
        prod = Ball(ma, ra, 64) * Ball(mb, rb, 64)
        for a in (ma - ra, ma, ma + ra):
            for b in (mb - rb, mb, mb + rb):
                assert contains(prod, a * b)


def test_sign():
    assert Ball(F(5), F(1), 53).sign() == 1
    assert Ball(F(-5), F(1), 53).sign() == -1
    assert Ball(F(0), F(1), 53).sign() == 0
    assert Ball(0, 0, 53).sign() == 0


def test_overlaps():
    a = Ball(F(0), F(1), 53)
    b = Ball(F(2), F(1), 53)
    c = Ball(F(3), F(1, 2), 53)
    assert overlaps(a, b)
    assert not overlaps(a, c)


def test_hull():
    h = Ball.hull(Ball(1, 0, 64), Ball(3, 0, 64))
    assert contains(h, F(1)) and contains(h, F(3)) and contains(h, F(2))


def test_from_endpoints_validates():
    with pytest.raises(ValueError):
        Ball.from_endpoints(F(2), F(1), 53)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        Ball(F(0), F(-1), 53)


def test_str_shows_midpoint_and_radius():
    s = str(Ball(F(1, 3), F(1, 10 ** 12), 64))
    assert "+/-" in s and s.startswith("0.3333333")


def test_mpf_tuple_to_fraction_zero_and_non_finite():
    assert _mpf_tuple_to_fraction(mp.zero._mpf_) == 0
    for value in (mp.inf, mp.ninf, mp.nan):
        with pytest.raises(ValueError, match="non-finite mpf value"):
            _mpf_tuple_to_fraction(value._mpf_)
