"""Property tests of the integer rounding, ball, series and partial-fraction paths.

The rounding functions and the Ball operations are checked bit for bit
against the plain-Fraction references below; the fixed-point series, alone
and as every order of a joint series, is checked bit for bit against a
reference copy of one order's loop that recomputes every remainder bound
and every term exactly, also with the tail's guard bits cut to 0-2 so
that its exact in-doubt branch runs; the tail's mantissa
interval is checked against the exact V_k, and its lower bound against the
exact remainder bound, at every step, and the tail's reach test for a
term's floor against taking the floor at both ends of the interval;
polygamma is checked for containment
of mpmath's psi and Hurwitz zeta at four times the precision, and its ball
for lying inside the one the same series gives with 16 extra guard bits per
order; the derivatives of g and H are checked for containment of mpmath's
psi plus the exact rational part at four times the precision, and each g
and H cell, formed in integers, bit for bit against the Leibniz sum of the
polygamma balls taken as Fractions (g) and the Ball chain psi^(k+1) - R^(k)
(H); the Bernoulli
numbers are checked against mpmath's; the integer partial-fraction
decomposition is checked against sympy's ``apart`` and by recomposing it;
the integer-numerator ``Poly`` and ``ExpPoly.deriv`` are checked against
plain Fraction-tuple formulas, and every ExpPoly derived without the public
constructor against that constructor's result; the partial-fraction merge
is checked against the term-by-term Fraction merge it replaced; the
equality and hash of every keyed value type are checked against a
reference key built from the inputs; the report
writer is checked byte for byte against ``json.dumps`` with the same layout.
"""

import inspect
import json
import math
import sys
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cmgamma import bounds
from cmgamma.algebra import (ExpPoly, PartialFractionForm, PartialFractionTerm,
                             Poly, pfd_decompose, pfd_recompose)
from cmgamma.ball import Ball, _mpf_tuple_to_fraction, round_nearest, round_up
from cmgamma.constants import (BOUND_DEN_FACTORS, REMAINDER_DEN_FACTORS,
                               SourceConstants, load_constants)
from cmgamma.errors import PrecisionError
from cmgamma.polygamma import (MAX_ORDER, _bernoulli, _sure_floor, _zeta_like_sums,
                               polygamma)
from cmgamma.reporting import SCHEMA, stable_json_dumps
from cmgamma.scan import GridSpec
from oracles import (contains, g_derivative_exact_sum, h_derivative_ball_chain,
                     polygamma_per_order_guard, rational_part_derivatives)

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


def ref_sign(ball: Ball) -> int:
    return 1 if ball.mid - ball.rad > 0 else -1 if ball.mid + ball.rad < 0 else 0


@SETTINGS
@given(balls, st.booleans())
@example(Ball(F(-3, 7), F(3, 7), 53), False)  # mid = -rad: touches zero
@example(Ball(F(3, 2 ** 70), F(3, 2 ** 70), 53), False)  # mid = rad
@example(Ball(0, 0, 53), False)  # exact zero
@example(Ball(F(-1, 3), 0, 53), False)  # exact nonzero, non-dyadic
@example(Ball(F(-5), F(4), 53), False)
def test_sign_matches_fraction_reference(ball, at_radius):
    # |mid| against rad as integer ratios, against the two Fraction tests;
    # at_radius moves the midpoint onto the radius, where the sign is 0
    if at_radius and ball.rad:
        ball = Ball(ball.rad if ball.mid >= 0 else -ball.rad, ball.rad, ball.prec)
    assert ball.sign() == ref_sign(ball)


positive_x = st.builds(lambda frac, k: frac * F(2) ** k,
                       st.fractions(min_value=1, max_value=2, max_denominator=10 ** 6),
                       st.integers(-20, 19))


@settings(SETTINGS, max_examples=30)
@given(st.integers(1, MAX_ORDER), positive_x, st.sampled_from([64, 256, 1024]))
@example(MAX_ORDER, F(1, 2 ** 20), 1024)
@example(MAX_ORDER, F(2 ** 20), 1024)
@example(13, F(1, 2 ** 20), 1024)
@example(13, F(2 ** 20), 1024)
@example(1, F(1, 2 ** 20), 1024)
@example(2, F(3, 7), 1024)
def test_polygamma_contains_mpmath(m, x, prec):
    ball = polygamma(m, x, prec)
    assert ball.rad <= abs(ball.mid) * F(1, 2 ** prec)
    with mp.workprec(4 * prec):
        assert contains(ball, mp.psi(m, mp.mpf(x.numerator) / x.denominator))


@settings(SETTINGS, max_examples=40)
@given(st.integers(1, MAX_ORDER),
       st.builds(lambda frac, k: frac * F(2) ** k,
                 st.fractions(min_value=1, max_value=2, max_denominator=10 ** 6),
                 st.integers(-20, 40)),
       st.sampled_from([8, 64, 256, 1024, 4096]))
@example(MAX_ORDER, F(1, 2 ** 20), 4096)
@example(MAX_ORDER, F(1, 1024), 8)
@example(MAX_ORDER, F(2 ** 40), 4096)
@example(1, F(1, 2 ** 20), 8)
@example(1, F(1, 1024), 4096)
@example(1, F(2 ** 40), 8)
@example(12, F(1, 1024), 8)  # the ball is strictly inside the reference
def test_polygamma_inside_per_order_guard_reference(m, x, prec):
    # one working precision, prec + 32, serves every order: the ball equals
    # or lies inside the one the series gives with 16 extra guard bits per order
    ball = polygamma(m, x, prec)
    assert contains(polygamma_per_order_guard(m, x, prec), ball)


moderate_x = st.one_of(
    st.builds(lambda m, e: F(m, 2 ** 12) * F(2) ** e,  # dyadic
              st.integers(2 ** 12, 2 ** 13), st.integers(-10, 9)),
    st.builds(lambda frac, e: frac * F(2) ** e,
              st.fractions(min_value=1, max_value=2, max_denominator=10 ** 4),
              st.integers(-10, 9)))


@settings(SETTINGS, max_examples=20)
@given(st.sampled_from("gH"), st.integers(0, 12), moderate_x, st.integers(64, 512))
@example("g", 12, F(1, 2 ** 10), 512)
@example("g", 12, F(2 ** 10), 512)
@example("H", 12, F(1, 2 ** 10), 512)
@example("g", 0, F(1), 64)
def test_derivatives_contain_mpmath(kind, k, x, prec):
    # oracle: mpmath's psi at 4x precision plus the exact rational part,
    # differentiated without partial fractions
    if kind == "g":
        ball = bounds.g_derivative(k, x, prec)
    else:
        ball = bounds.h_derivative(k, x, prec)
    rational = rational_part_derivatives(kind, x, k)[k]
    with mp.workprec(4 * prec):
        xm = mp.mpf(x.numerator) / x.denominator
        if kind == "g":
            psi_part = mp.fsum(math.comb(k, j) * mp.psi(1 + j, xm) * mp.psi(1 + k - j, xm)
                               for j in range(k + 1)) + mp.psi(k + 2, xm)
        else:
            psi_part = mp.psi(k + 1, xm)
        assert contains(ball, psi_part - mp.mpf(rational.numerator) / rational.denominator)


@settings(SETTINGS, max_examples=60)
@given(st.sampled_from("gH"), st.integers(0, 12), positive_x, st.sampled_from([8, 64, 512]))
@example("H", 0, F(10 ** 6), 64)  # cancels: the cell straddles zero at 64 bits
@example("H", 12, F(1, 2 ** 20), 512)
@example("H", 12, F(2 ** 19), 8)
@example("H", 5, F(1, 3), 8)  # non-dyadic x
@example("g", 0, F(10 ** 6), 64)  # cancels: the cell straddles zero at 64 bits
@example("g", 12, F(1, 2 ** 20), 512)  # MIN_X
@example("g", 8, F(1, 2 ** 20), 8)
@example("g", 12, F(2 ** 19), 8)
@example("g", 5, F(1, 3), 8)  # non-dyadic x
@example("g", 12, F(999983, 1000003), 512)
def test_cells_match_their_references(kind, k, x, prec):
    # the integer cell rounds by value once, as the references do: the same
    # midpoint, radius and precision as the Ball chain psi^(k+1) - R^(k)
    # (H) or the Leibniz sum of the polygamma balls as Fractions (g)
    if kind == "g":
        cell, ref = bounds.g_derivative(k, x, prec), g_derivative_exact_sum(k, x, prec)
    else:
        cell, ref = bounds.h_derivative(k, x, prec), h_derivative_ball_chain(k, x, prec)
    assert (cell.mid, cell.rad, cell.prec) == (ref.mid, ref.rad, ref.prec)


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
@example(33, F(22), 49)  # the bounds decrease slowly just before the stop
@example(18, F(17, 2), 7)
def test_series_matches_reference_loop(s, x, wbits):
    total, radius, fbits = _zeta_like_sums((s,), x, wbits)[s]
    assert (F(total, 2 ** fbits), F(radius, 2 ** fbits)) == ref_zeta_like_sum(s, x, wbits)


@settings(SETTINGS, max_examples=60)
@given(st.lists(st.integers(2, 33), min_size=1, max_size=6, unique=True), positive_x,
       st.integers(8, 1100))
@example([3, 2, 7], F(1, 3), 288)  # non-dyadic x, orders out of sequence
@example([16, 2, 9], F(999983, 1000003), 1100)
@example([2, 3, 16], F(2 ** 20), 1100)  # N = 0: no head terms
@example([2, 10, 11], F(1, 2 ** 20), 64)
@example([30, 2], F(9), 8)  # s = 30 diverges at the first N, s = 2 does not
# gapped orders: the head's passes run through the orders between them
@example([2, 5, 11], F(7, 5), 448)
@example([2, 5, 11], F(1, 3), 288)
@example([3, 33], F(1, 2 ** 20), 200)
def test_joint_series_matches_reference_loop(orders, x, wbits):
    # every order of one joint series is the sum its own series gives
    sums = _zeta_like_sums(tuple(orders), x, wbits)
    assert sorted(sums) == sorted(orders)
    for s in orders:
        total, radius, fbits = sums[s]
        assert (F(total, 2 ** fbits), F(radius, 2 ** fbits)) == ref_zeta_like_sum(s, x, wbits)


def test_joint_series_retries_only_the_diverged_orders(monkeypatch):
    # at x = 9 and 8 working bits the tail of s = 30 diverges at the first N
    # while s = 2 stops there; only s = 30 runs again, at the next N
    module = sys.modules["cmgamma.polygamma"]  # cmgamma.polygamma is the function
    heads = module._heads
    passes = []

    def recording(exps, n, d, n_terms, fbits):
        passes.append((list(exps), n_terms))
        return heads(exps, n, d, n_terms, fbits)

    monkeypatch.setattr(module, "_heads", recording)
    sums = _zeta_like_sums((30, 2), F(9), 8)
    assert [exps for exps, _ in passes] == [[2, 30], [30]]
    assert passes[0][1] < passes[1][1]
    for s in (2, 30):
        total, radius, fbits = sums[s]
        assert (F(total, 2 ** fbits), F(radius, 2 ** fbits)) == ref_zeta_like_sum(s, F(9), 8)


@settings(SETTINGS, max_examples=40)
@given(st.integers(2, 33), positive_x, st.integers(8, 1100), st.integers(0, 2),
       st.just(0))
# the scan workloads' largest orders and working precisions: psi^(13) at
# 752 bits (H, k <= 12, 512 bits) and psi^(10) at 448 bits (g, k <= 8,
# 256 bits); and the largest order at 4200 bits
@example(14, F(1, 16), 752, 0, 10)
@example(11, F(64), 448, 1, 10)
@example(33, F(3, 7), 4200, 2, 10)
def test_series_in_doubt_branch_matches_reference_loop(s, x, wbits, guard,
                                                       min_exact):
    # with 0-2 guard bits the mantissa often cannot decide a term's floor,
    # so the loop forms those terms exactly: one math.factorial call each
    exact = 0

    def count(frame, event, arg):
        nonlocal exact
        exact += event == "c_call" and arg is math.factorial

    module = sys.modules["cmgamma.polygamma"]  # cmgamma.polygamma is the function
    outer = sys.getprofile()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_TAIL_GUARD_BITS", guard)
        sys.setprofile(count)
        try:
            total, radius, fbits = _zeta_like_sums((s,), x, wbits)[s]
        finally:
            sys.setprofile(outer)
    assert (F(total, 2 ** fbits), F(radius, 2 ** fbits)) == ref_zeta_like_sum(s, x, wbits)
    assert exact >= min_exact


@settings(SETTINGS, max_examples=400)
@given(st.integers(-2 ** 400, 2 ** 400), st.integers(0, 2 ** 700),
       st.integers(0, 2 ** 20), st.integers(0, 600), st.integers(1, 2 ** 40))
# the remainder is within reach of the edge but not next to it, so a test of
# only rest == den - 1 (num > 0) or rest == 0 (num < 0) misses the doubt
@example(1, 17, 5, 0, 10)
@example(-1, 17, 5, 0, 10)
@example(2 ** 60 + 1, 3475090062471141626, 2 ** 21, 64, 2 ** 44 + 7)  # den err > 2^64
# the remainder exactly at reach of the edge, where the shifted ends' carry
# still moves the floor
@example(1, 3, 1, 1, 2)
@example(-1, 4, 1, 1, 2)
def test_sure_floor_matches_two_floor_reference(num, m, err, ex, den):
    # the term's floor is sure exactly when both ends of the mantissa
    # interval, num m and num (m + err), give it
    bm = num * m
    low = (bm >> ex) // den
    sure = low if low == ((bm + num * err) >> ex) // den else None
    assert _sure_floor(bm, num, err, ex, den) == sure


def _line_of(func, statement: str) -> int:
    lines, first = inspect.getsourcelines(func)
    hits = [first + i for i, line in enumerate(lines) if line.strip() == statement]
    assert len(hits) == 1, statement
    return hits[0]


@settings(SETTINGS, max_examples=40)
@given(st.integers(2, 33), positive_x, st.integers(8, 1100),
       st.sampled_from([0, 1, 2, 64]))
# the scan workloads' largest orders and working precisions (see above),
# with the shipped 64 guard bits and with 0-2
@example(14, F(1, 16), 752, 64)
@example(11, F(64), 448, 64)
@example(14, F(1, 16), 752, 0)
@example(11, F(64), 448, 1)
@example(33, F(3, 7), 4200, 2)
# the first N diverges: near there a step's ratio V_k/V_(k-1) no longer
# undoes the shift before it, so an error count that loses the shift shows
@example(30, F(9), 8, 64)
@example(33, F(12), 19, 0)
def test_series_tail_mantissa_encloses_exact_v(s, x, wbits, guard):
    # at every Euler-Maclaurin step, just before the term's floor is taken,
    # the loop's interval [m, m + err] must hold the exact
    # V_k 2^ex = rising(s, 2k-1) d^j 2^(F+ex) / ((2k)! A^j), j = s+2k-1,
    # and low must not exceed the exact remainder bound
    # X_k = 5 rising(s, 2k) d^(j+1) 2^(F+4k+2) / (2 25^(2k+1) A^(j+1))
    code, line = _zeta_like_sums.__code__, _line_of(_zeta_like_sums, "bm = num * m")
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == line:
            v = frame.f_locals
            k, j, m, err = v["k"], v["j"], v["m"], v["err"]
            d, big_a, fbits = v["d"], v["big_a"], v["fbits"]
            top = math.perm(j - 1, 2 * k - 1) * d ** j << (fbits + v["ex"])
            bottom = math.factorial(2 * k) * big_a ** j
            assert m * bottom <= top <= (m + err) * bottom, (k, m, err)
            assert (v["low"] * (2 * 25 ** (2 * k + 1) * big_a ** (j + 1))
                    <= 5 * math.perm(j, 2 * k) * d ** (j + 1) << (fbits + 4 * k + 2)), k
            steps += 1
        return local

    module = sys.modules["cmgamma.polygamma"]  # cmgamma.polygamma is the function
    outer = sys.gettrace()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_TAIL_GUARD_BITS", guard)
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            # jointly with s = 2, which shares k and ex but stops on its own
            _zeta_like_sums((2, s), x, wbits)
        finally:
            sys.settrace(outer)
    assert steps > 0


# the scan workloads' largest orders and working precisions (see above), and
# a first N that diverges: two ceilings compared there, then one at the stop
@pytest.mark.parametrize("s, x, wbits, exact_bounds", [
    (14, F(1, 16), 752, 1), (11, F(64), 448, 1), (30, F(9), 8, 3)])
def test_series_tail_decides_on_integers(s, x, wbits, exact_bounds):
    # no float log2 steers the stop or the divergence test, and the exact
    # remainder bound is formed only where the lower bound reaches the target
    # or the bound ratio exceeds 1
    calls = {"log2": 0, "exact_bound": 0}

    def count(frame, event, arg):
        if event == "c_call" and arg is math.log2:
            calls["log2"] += 1
        elif event == "call" and frame.f_code.co_name == "exact_bound":
            calls["exact_bound"] += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        _zeta_like_sums((s,), x, wbits)
    finally:
        sys.setprofile(outer)
    assert calls == {"log2": 0, "exact_bound": exact_bounds}


@settings(SETTINGS, max_examples=12)
@given(st.integers(2, 14), positive_x, st.sampled_from([64, 256, 1024]))
def test_series_radius_covers_hurwitz_zeta(s, x, wbits):
    # the raw series enclosure, before Ball renormalization widens it
    total, radius, fbits = _zeta_like_sums((s,), x, wbits)[s]
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
    return PartialFractionForm(terms)


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


# Poly against the Fraction-tuple formulas it replaced: every result must
# equal the reference coefficients, structurally and in hash.

def ref_norm(cs) -> tuple:
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ref_norm(out)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_norm(out)


def ref_scale(a, c):
    return ref_norm(c * x for x in a)


def ref_deriv(a):
    return ref_norm(i * c for i, c in enumerate(a) if i > 0)


def ref_call(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_shift(a, c):
    cs = list(a)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += c * cs[j + 1]
    return ref_norm(cs)


def assert_poly(p: Poly, ref: tuple):
    assert p.coeffs == ref
    assert p == Poly(ref) and hash(p) == hash(Poly(ref))
    assert p.degree == len(ref) - 1 and bool(p) == bool(ref)
    # canonical form: positive lowest-terms denominator, no trailing zero
    assert p._den > 0 and math.gcd(p._den, *p._num) == 1
    if ref:
        assert p._num[-1] != 0
    else:
        assert (p._num, p._den) == ((), 1)


coeff_values = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                         st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4),
                         st.builds(F, st.integers(-99, 99), st.integers(-50, -1)))  # negative den
coeff_inputs = st.one_of(coeff_values, coeff_values.map(str))
poly_inputs = st.builds(lambda cs, zeros: cs + zeros,
                        st.lists(coeff_inputs, max_size=7),
                        st.lists(st.sampled_from([0, F(0), "0", "0/5", "-0"]), max_size=2))
scalars = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6), coeff_values.map(F))


@SETTINGS
@given(poly_inputs, poly_inputs, scalars, st.integers(0, 3))
@example([], [0, F(0), "0"], 0, 0)
@example(["1/2", F(-3, 4)], [F(2, -3)], F(-6, 5), 2)
@example([1, 2], ["1/2", 1], 3, 1)  # equal numerators, different denominators
def test_poly_matches_fraction_reference(ca, cb, c, n):
    a, b = ref_norm(map(F, ca)), ref_norm(map(F, cb))
    pa, pb = Poly(ca), Poly(cb)
    assert_poly(pa, a)
    for i in range(-1, len(a) + 2):
        assert pa.coeff(i) == (a[i] if 0 <= i < len(a) else 0)
    assert_poly(pa + pb, ref_add(a, b))
    assert_poly(pa - pb, ref_add(a, ref_scale(b, -1)))
    assert_poly(-pa, ref_scale(a, -1))
    assert_poly(pa * pb, ref_mul(a, b))
    assert_poly(pa * c, ref_scale(a, F(c)))
    assert_poly(c * pa, ref_scale(a, F(c)))
    want = (F(1),)
    for _ in range(n):
        want = ref_mul(want, a)
    assert_poly(pa ** n, want)
    assert pa(c) == pa(str(c)) == ref_call(a, F(c))
    assert_poly(pa.shift(c), ref_shift(a, F(c)))
    assert (pa == pb) == (a == b)
    # equal values reached by different routes are equal and hash alike
    for same in ((pa + pb) - pb, pa * 1, Poly(a), Poly(map(str, a)), Poly(list(a) + [0])):
        assert same == pa and hash(same) == hash(pa)


def test_poly_rejects_floats():
    p = Poly([1, F(1, 2)])
    for bad in (lambda: Poly([1, 0.5]), lambda: Poly([0.0]), lambda: p(0.5),
                lambda: p.shift(0.5), lambda: p * 0.5, lambda: Poly.const(2.0),
                lambda: p + 1.5):
        with pytest.raises(TypeError):
            bad()


def assert_exppoly(e: ExpPoly, blocks: dict):
    """e equals, and hashes like, the public constructor's ExpPoly of blocks."""
    public = ExpPoly(blocks)
    assert e == public and hash(e) == hash(public)
    assert e.blocks() == public.blocks() and e.exponents() == public.exponents()


@SETTINGS
@given(st.dictionaries(st.integers(0, 4), poly_inputs, max_size=4),
       st.integers(0, 3), scalars)
@example({0: [5], 1: ["1/2", 0, F(-3, 7)], 3: [0, 0]}, 0, 1)
@example({0: [7]}, 2, 0)  # a constant e^0 block derives to zero
def test_exppoly_deriv_matches_reference(blocks, k, c):
    e = ExpPoly({j: Poly(cs) for j, cs in blocks.items()})
    want = {}
    for j, cs in blocks.items():
        a = ref_norm(map(F, cs))
        block = ref_add(ref_deriv(a), ref_scale(a, F(j)))
        if block:
            want[j] = block
    d = e.deriv()
    assert {j: p.coeffs for j, p in d.blocks()} == want
    assert d.eval_exact_at_zero() == sum((cs[0] for cs in want.values()), F(0))
    # derived ExpPolys skip the public constructor; they must equal its result
    assert_exppoly(d, {j: Poly(cs) for j, cs in want.items()})
    assert_exppoly(e.shift_exp(k), {j + k: p for j, p in e.blocks()})
    assert_exppoly(c * e, {j: p * c for j, p in e.blocks()})
    assert_exppoly(-e, {j: -p for j, p in e.blocks()})
    assert_exppoly(e + d, {j: e.block(j) + d.block(j)
                           for j in set(e.exponents()) | set(d.exponents())})
    if blocks == {0: [7]}:
        assert d == ExpPoly({}) and hash(d) == hash(ExpPoly({}))


# PartialFractionForm merges a coefficient into another only when its
# (shift, order) key repeats; the reference is the term-by-term Fraction
# merge it replaced.

def ref_merge(terms) -> tuple:
    merged = {}
    for t in terms:
        t = PartialFractionTerm(F(t[0]), int(t[1]), int(t[2]))
        key = (t.shift, t.order)
        merged[key] = merged.get(key, F(0)) + t.coeff
    return tuple(PartialFractionTerm(c, s, o)
                 for (s, o), c in sorted(merged.items()) if c != 0)


# few keys, so keys repeat; int, str and Fraction coefficients
pf_coeffs = st.one_of(st.integers(-20, 20), st.fractions(-5, 5, max_denominator=12))
pf_term_lists = st.lists(st.tuples(st.one_of(pf_coeffs, pf_coeffs.map(str)),
                                   st.integers(0, 3), st.integers(1, 4)), max_size=12)


@SETTINGS
@given(pf_term_lists, pf_term_lists)
@example([(1, 2, 3), ("1/2", 0, 1), (F(2), 2, 3)], [("-1/2", 0, 1), (-3, 2, 3)])
@example([(F(1, 3), 1, 2), ("1/6", 1, 2)], [(0, 0, 1), ("-1/2", 1, 2)])
@example([(5, 3, 4), (1, 0, 1)], [])  # unsorted, no key repeats
def test_pf_merge_matches_reference(ta, tb):
    both = PartialFractionForm(ta + tb)
    assert PartialFractionForm(ta).terms == ref_merge(ta)
    assert both.terms == ref_merge(ta + tb)
    assert all(type(t) is PartialFractionTerm and type(t.coeff) is F and t.coeff
               for t in both.terms)
    # the same function by every route: constructor, merged forms and
    # pfd_decompose
    num, _ = pfd_recompose(both)
    factors = {}
    for _, a, m in both.terms:
        factors[a] = max(factors.get(a, 0), m)
    fa, fb = PartialFractionForm(ta), PartialFractionForm(tb)
    for same in (PartialFractionForm(fa.terms + fb.terms),
                 PartialFractionForm(fb.terms + fa.terms),
                 PartialFractionForm(reversed(ta + tb)),
                 pfd_decompose(num, sorted(factors.items(), reverse=True))):
        assert same == both and hash(same) == hash(both)


@SETTINGS
@given(poly_inputs, st.integers(0, 3))
@example(["1/2", 0, -3], 0)
def test_pfd_at_shift_zero_is_the_coefficient_list(cs, extra):
    """num / x^m = sum a_i / x^(m-i): the exact oracle of a decomposition
    whose only shift is 0, where no Taylor shift is made."""
    num = Poly(cs)
    m = max(num.degree + 1, 1) + extra
    want = PartialFractionForm([(c, 0, m - i) for i, c in enumerate(num.coeffs)])
    assert pfd_decompose(num, ((0, m),)) == want


# The keyed value types compare by one rule: the same type and equal keys.
# Each strategy draws (value, reference key) from few small inputs, so equal
# keys come up often; the reference key is tagged with the type.
def _ref_poly(cs) -> tuple:
    return ref_norm(map(F, cs))


few_coeffs = st.lists(st.sampled_from([0, 1, -1, F(1, 2)]), max_size=3)
KEYED_VALUES = (
    few_coeffs.map(lambda cs: (Poly(cs), ("Poly", _ref_poly(cs)))),
    st.dictionaries(st.integers(0, 2), few_coeffs, max_size=2).map(
        lambda bs: (ExpPoly({k: Poly(cs) for k, cs in bs.items()}),
                    ("ExpPoly", tuple(sorted((k, _ref_poly(cs)) for k, cs in bs.items()
                                             if _ref_poly(cs)))))),
    st.lists(st.tuples(st.sampled_from([1, -1, F(1, 2)]), st.integers(0, 1),
                       st.integers(1, 2)), max_size=3).map(
        lambda ts: (PartialFractionForm(ts), ("PartialFractionForm", ref_merge(ts)))),
    st.lists(st.sampled_from([F(1), F(2), F(1, 3)]), min_size=1, max_size=3,
             unique=True).map(
        lambda pts: (GridSpec.explicit(pts), ("GridSpec", tuple(sorted(pts))))),
)

# the same value built again by another route
REBUILT = {
    Poly: lambda p: Poly(p.coeffs + (0,)),
    ExpPoly: lambda e: ExpPoly(dict(reversed(e.blocks()))),
    PartialFractionForm: lambda f: PartialFractionForm(reversed(f.terms)),
    GridSpec: lambda g: GridSpec.explicit(reversed(g.points)),
}


@SETTINGS
@given(st.one_of(*(st.tuples(s, s) for s in KEYED_VALUES)), st.one_of(*KEYED_VALUES))
@example(((Poly([1, 2]), ("Poly", (F(1), F(2)))), (Poly([1]), ("Poly", (F(1),)))),
         (ExpPoly({0: [1, 2]}), ("ExpPoly", ((0, (F(1), F(2))),))))
@example(((ExpPoly({}), ("ExpPoly", ())),) * 2,  # equal empty keys, another type
         (PartialFractionForm([]), ("PartialFractionForm", ())))
@example(((GridSpec.explicit([1]), ("GridSpec", (F(1),))),) * 2,
         (Poly([1]), ("Poly", (F(1),))))
def test_keyed_values_compare_and_hash_by_key(pair, other):
    for (va, ka), (vb, kb) in (pair, (pair[0], other)):
        assert (va == vb) is (ka == kb) and (va != vb) is (ka != kb)
        if ka == kb:
            assert hash(va) == hash(vb)
    va, ka = pair[0]
    same = REBUILT[type(va)](va)
    assert same is not va and same == va and hash(same) == hash(va)
    # no value of another type compares equal, not even the value's own key
    for stranger in (ka[1], ka, None, Ball(1, 0, 64)):
        assert va != stranger and not va == stranger


def test_unkeyed_values_compare_by_identity():
    consts = load_constants()
    twins = ((Ball(1, 0, 64), Ball(1, 0, 64)),
             (consts, SourceConstants(**{n: getattr(consts, n)
                                         for n in SourceConstants.__slots__})))
    for v, twin in twins:
        assert v == v and v != twin and not v == twin
        assert hash(v) == object.__hash__(v) and type(v).__eq__ is object.__eq__


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200) | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@SETTINGS
@given(st.dictionaries(st.text(), json_values, max_size=5), st.text())
@example({}, "")
@example({"a": [], "b": {}, "c": (), "d": [[], {}]}, "cm_scan")
@example({"\u00e9\x00\n\"\\": ["\ud83d\ude00", "\x1f\x7f"]}, "caf\u00e9")
@example({"n": [-2 ** 100, 0, True, False, None, (1, (2,))]}, "certificate")
def test_report_writer_matches_json(payload, kind):
    doc = {"schema": SCHEMA, "kind": kind, "payload": payload}
    expected = json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    assert stable_json_dumps(payload, kind) == expected


@pytest.mark.parametrize("value", [{1, 2}, b"x", object(), 1j, 0.5, {1: "a"}])
def test_report_writer_refuses_unsupported_types(value):
    # json refuses the first four too; reports hold no floats and only str keys
    with pytest.raises(TypeError):
        stable_json_dumps({"v": [value]}, "cm_scan")
