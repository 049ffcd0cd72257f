"""Certified polygamma enclosures and the quadrature cross-check."""

import importlib
import math
import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from cmgamma.ball import Ball
from cmgamma.errors import DomainError, PrecisionError
from cmgamma.polygamma import MAX_ORDER, polygamma, polygamma_quadrature_crosscheck
from oracles import contains, overlaps, polygamma_recurrence_shift

# the package attribute `cmgamma.polygamma` is the function, not the module
polygamma_module = importlib.import_module("cmgamma.polygamma")


def mid_mpf(ball):
    return mp.mpf(ball.mid.numerator) / ball.mid.denominator


def mp_psi(m, x, prec=400):
    with mp.workprec(prec):
        return mp.psi(m, mp.mpf(x.numerator) / x.denominator)


def test_trigamma_at_one_is_pi_squared_over_six():
    ball = polygamma(1, 1, 128)
    with mp.workprec(300):
        assert contains(ball, mp.pi ** 2 / 6)


def test_tetragamma_at_one_is_minus_two_zeta_three():
    ball = polygamma(2, 1, 128)
    with mp.workprec(300):
        assert contains(ball, -2 * mp.zeta(3))


def test_recursion_step_at_two():
    # psi'(2) = psi'(1) - 1
    at2 = polygamma(1, 2, 128)
    with mp.workprec(300):
        assert contains(at2, mp.pi ** 2 / 6 - 1)


def test_containment_against_independent_evaluation():
    rng = random.Random(2024)
    for _ in range(25):
        m = rng.randint(1, 6)
        x = F(rng.randint(1, 1000), rng.randint(1, 100))
        ball = polygamma(m, x, 128)
        assert contains(ball, mp_psi(m, x))


def test_relative_radius_meets_target():
    for m in (1, 2, 8, 16, 24, MAX_ORDER):
        for x in (F(1, 1024), F(1), F(50)):
            ball = polygamma(m, x, 128)
            assert ball.rad <= abs(ball.mid) * F(1, 2 ** 128)


def test_recurrence_invariant_randomized():
    # psi^(m)(x+1) == psi^(m)(x) + (-1)^m m! / x^(m+1) as overlapping balls
    rng = random.Random(77)
    for _ in range(20):
        m = rng.randint(1, 6)
        x = F(rng.randint(1, 100), rng.randint(1, 10))
        lhs = polygamma(m, x + 1, 96)
        step = F((-1) ** m * math.factorial(m)) / x ** (m + 1)
        rhs = polygamma(m, x, 96) + step
        assert overlaps(lhs, rhs)


def test_sign_invariant():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 8)
        x = F(rng.randint(1, 80), rng.randint(1, 8))
        ball = polygamma(m, x, 64)
        expected = 1 if m % 2 == 1 else -1
        assert ball.sign() == expected


def test_monotonic_precision():
    for m in (1, 3):
        for x in (F(1, 3), F(7)):
            r1 = polygamma(m, x, 64).rad
            r2 = polygamma(m, x, 128).rad
            assert r2 <= r1


def test_containment_at_4x_precision():
    rng = random.Random(31337)
    for _ in range(15):
        m = rng.randint(1, 5)
        x = F(rng.randint(1, 60), rng.randint(1, 6))
        coarse = polygamma(m, x, 64)
        fine = polygamma(m, x, 256)
        assert contains(coarse, fine)


def test_ball_argument_uses_monotonicity():
    x = Ball.from_endpoints(F(2), F(21, 10), 128)
    ball = polygamma(1, x, 96)
    for probe in (F(2), F(21, 10), F(41, 20)):
        assert contains(ball, mp_psi(1, probe))
    # the tuple form hulls each order over the same two endpoint series
    joint = polygamma((3, 1), x, 96)
    assert [(b.mid, b.rad) for b in joint] == [(b.mid, b.rad) for b in
                                               (polygamma(3, x, 96), ball)]


def test_exact_ball_argument_is_one_rational_call(monkeypatch):
    # a radius-0 Ball is its midpoint: one series, not one per endpoint
    calls = []
    rational = polygamma_module._polygamma_rational

    def recording(orders, x, prec):
        calls.append(x)
        return rational(orders, x, prec)

    monkeypatch.setattr(polygamma_module, "_polygamma_rational", recording)
    got = polygamma((2, 1), Ball(F(7, 3)), 96)
    assert calls == [F(7, 3)]
    want = polygamma((2, 1), F(7, 3), 96)
    assert [(b.mid, b.rad, b.prec) for b in got] == [(b.mid, b.rad, b.prec) for b in want]


def test_domain_errors():
    with pytest.raises(DomainError):
        polygamma(0, 1)
    with pytest.raises(DomainError):
        polygamma(1, 0)
    with pytest.raises(DomainError):
        polygamma(1, F(-3, 2))
    with pytest.raises(DomainError):
        polygamma(33, 1)
    for orders in ((), (1, 0), (2, 33), True, 1.0, (1, True)):  # bool: not an order
        with pytest.raises(DomainError):
            polygamma(orders, 1)


def test_policy_guard_bits(monkeypatch):
    # the series for psi^(m) runs at prec + 32 working bits for every order,
    # and a tuple of orders runs as one joint series at the same bits
    seen = []
    series = polygamma_module._zeta_like_sums

    def recording(orders, x, wbits):
        seen.append((tuple(orders), wbits))
        return series(orders, x, wbits)

    monkeypatch.setattr(polygamma_module, "_zeta_like_sums", recording)
    for m in (1, 3, 12, 32):
        polygamma(m, F(7, 5), 64)
    assert seen == [((m + 1,), 64 + 32) for m in (1, 3, 12, 32)]
    seen.clear()
    joint = polygamma((1, 3, 12, 32), F(7, 5), 64)
    assert seen == [((2, 4, 13, 33), 64 + 32)]
    alone = [polygamma(m, F(7, 5), 64) for m in (1, 3, 12, 32)]
    assert [(b.mid, b.rad, b.prec) for b in joint] == [(b.mid, b.rad, b.prec) for b in alone]
    with pytest.raises(DomainError, match="precision must be at least 8 bits"):
        polygamma(1, 1, 4)


def test_wide_series_radius_raises(monkeypatch):
    # a series radius of the sum itself is far wider than 2^-prec relative
    series = polygamma_module._zeta_like_sums

    def widened(orders, x, wbits):
        return {s: (total, total, fbits)
                for s, (total, _, fbits) in series(orders, x, wbits).items()}

    monkeypatch.setattr(polygamma_module, "_zeta_like_sums", widened)
    with pytest.raises(PrecisionError, match=r"polygamma\(2, 7/5\) enclosure "
                                             r"wider than 2\^-64 relative"):
        polygamma(2, F(7, 5), 64)


class TestRecurrenceShift:
    def test_identity_at_k_zero(self):
        direct = polygamma(1, 3, 128)
        shifted = polygamma_recurrence_shift(1, 3, 0, 128)
        assert shifted.mid == direct.mid and shifted.rad == direct.rad

    def test_shift_through_one(self):
        # psi'(1) computed via psi'(2) + 1
        ball = polygamma_recurrence_shift(1, 1, 1, 128)
        with mp.workprec(300):
            assert contains(ball, mp.pi ** 2 / 6)

    def test_half_integer_double_shift(self):
        shifted = polygamma_recurrence_shift(2, F(1, 2), 2, 128)
        direct = polygamma(2, F(1, 2), 128)
        assert overlaps(shifted, direct)
        # oracle: independent high-precision series evaluation
        assert contains(shifted, mp_psi(2, F(1, 2), prec=512))


class TestQuadratureCrosscheck:
    def test_classical_values(self):
        q1 = polygamma_quadrature_crosscheck(1, 1, 64)
        with mp.workprec(200):
            assert abs(mid_mpf(q1) - mp.pi ** 2 / 6) < mp.mpf(10) ** -10
        q2 = polygamma_quadrature_crosscheck(2, 1, 64)
        with mp.workprec(200):
            assert abs(mid_mpf(q2) - (-2 * mp.zeta(3))) < mp.mpf(10) ** -10

    def test_matches_series_path(self):
        series = polygamma(1, 10, 128)
        quad = polygamma_quadrature_crosscheck(1, 10, 64)
        assert abs(quad.mid - series.mid) < F(1, 10 ** 10)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            polygamma_quadrature_crosscheck(1, -1, 64)
