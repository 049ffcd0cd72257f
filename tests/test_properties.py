"""Property tests of the integer rounding, ball, series and partial-fraction paths.

The rounding functions and the Ball operations are checked bit for bit
against the plain-Fraction references below; the fixed-point series, alone
and as every order of a joint series, is checked bit for bit against a
plain-loop reference of one order that takes beta_k from mpmath's
Bernoulli numbers and decides its stop and rise by exact Fractions at every
k, and its radius against the exact truncated expansion and remainder
bound; every interval of the shared U_j table is checked to hold the exact
U_j, the stop to be the least k, and the series to make no float;
polygamma is checked for containment
of mpmath's psi and Hurwitz zeta at four times the precision, and its ball
for lying inside the one the same series gives with 16 extra guard bits per
order; the derivatives of g and H are checked for containment of mpmath's
psi plus the exact rational part at four times the precision, and each g
and H cell, formed in integers, bit for bit against the Leibniz sum of the
polygamma balls taken as Fractions (g) and the Ball chain psi^(k+1) - R^(k)
(H); the floors of the Bernoulli numbers over (2k)! are checked against
mpmath's; the integer partial-fraction
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
from cmgamma.polygamma import MAX_ORDER, _betas, _psi_sums, _stop, _Table, polygamma
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
    # b_k = floor(B_2k/(2k)! 2^G), from the tangent numbers, against mpmath's
    # Bernoulli numbers, and the weights |b_k| + 1 of the tail's error count
    for gbits in (0, 64, 1000):
        betas, weights = _betas(gbits, 256)
        for k in range(1, 201):
            p, q = mpmath.bernfrac(2 * k)
            assert betas[k - 1] == math.floor(F(int(p), int(q)) / math.factorial(2 * k)
                                              * 2 ** gbits)
            assert weights[k - 1] == abs(betas[k - 1]) + 1


def ref_series_scale(x: F, wbits: int, s: int) -> int:
    e = x.numerator.bit_length() - x.denominator.bit_length() + 1
    return max(0, wbits + 40 + s * e)


def ref_table(d: int, big_a: int, gbits: int, top: int,
              lo: list[int] | None = None, err: list[int] | None = None):
    """u_1..u_top and E_1..E_top (index 0 unused) by the module docstring's
    recurrences, each ceiling taken of an exact Fraction; lo and err, if
    given, are extended in place."""
    if lo is None:
        lo, err = [0, (d << gbits) // big_a], [0, 1]
    for j in range(len(lo) - 1, top):
        lo.append(lo[j] * j * d // big_a)
        err.append(math.ceil(F(err[j] * j * d, big_a)) + 1)
    return lo, err


def ref_psi_sum(m: int, x: F, wbits: int) -> tuple[int, int, int, int, int, int]:
    """One order's series by plain loops: the head term by term, the table by
    its recurrences, beta_k from mpmath's Bernoulli numbers, and the stop and
    the rise decided at every k by exact Fraction comparisons, with no
    screen.  Returns (total, radius, F_s) as _psi_sums gives them, then K,
    the head length N and A = d (x + N)."""
    n, d, s = x.numerator, x.denominator, m + 1
    fbits = ref_series_scale(x, wbits, s)
    gbits = max(ref_series_scale(x, wbits, 2), ref_series_scale(x, wbits, MAX_ORDER + 1))
    fac, shift = math.factorial(m), gbits - fbits
    for attempt in range(4):
        n_terms = max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d)
        head = sum((d ** s << fbits) // (n + i * d) ** s for i in range(n_terms))
        big_a = n + n_terms * d
        lo, err = ref_table(d, big_a, gbits, m + 1)
        target = ((fac * head << shift) + lo[m]) >> (wbits + 8)
        previous = None
        for k in range(1, 100001):
            j = m + 2 * k + 1
            ref_table(d, big_a, gbits, j, lo, err)
            bound = F(5, 2) * F(4, 25) ** (2 * k + 1) * (lo[j] + err[j])
            if bound <= target or (previous is not None and bound > previous):
                break
            previous = bound
        if bound > target:
            continue  # the bounds rose first: the next N
        betas = []
        for i in range(1, k + 1):
            p, q = mpmath.bernfrac(2 * i)
            betas.append(math.floor(F(int(p), int(q)) / math.factorial(2 * i) * 2 ** gbits))
        js = range(m + 2, m + 2 * k + 1, 2)
        tail = sum(b * lo[j] for b, j in zip(betas, js))
        spread = sum((abs(b) + 1) * err[j] + lo[j] for b, j in zip(betas, js))
        tail = lo[m] + lo[m + 1] // 2 + math.floor(F(tail, 2 ** gbits))
        error = (err[m] + err[m + 1] + math.floor(F(spread, 2 ** gbits)) + 2
                 + math.ceil(bound))
        return (fac * head + math.floor(F(tail, 2 ** shift)),
                n_terms * fac + math.floor(F(error, 2 ** shift)) + 2, fbits,
                k, n_terms, big_a)
    raise PrecisionError("not certifiable")


def exact_tail(m: int, d: int, big_a: int, k: int) -> tuple[F, F]:
    """The exact truncated expansion past the head, U_m + U_(m+1)/2 +
    sum_{i<=k} beta_i U_(m+2i) with U_j = (j-1)! (d/A)^j, and its remainder
    bound X_k = (5/2)(4/25)^(2k+1) U_(m+2k+1)."""
    def u(j):
        return math.factorial(j - 1) * F(d, big_a) ** j

    value = u(m) + u(m + 1) / 2
    for i in range(1, k + 1):
        p, q = mpmath.bernfrac(2 * i)
        value += F(int(p), int(q)) / math.factorial(2 * i) * u(m + 2 * i)
    return value, F(5, 2) * F(4, 25) ** (2 * k + 1) * u(m + 2 * k + 1)


@settings(SETTINGS, max_examples=150)
@given(st.integers(1, 15), positive_x, st.integers(64, 1100))
@example(15, F(1, 2 ** 20), 1100)
@example(1, F(2 ** 20), 1100)  # N = 0: no head terms
@example(6, F(999983, 1000003), 64)
@example(29, F(9), 8)  # the first N diverges: the loop retries with a larger N
@example(30, F(9), 8)
@example(32, F(12), 19)
@example(32, F(22), 49)  # the bounds decrease slowly just before the stop
@example(17, F(17, 2), 7)
# the scan workloads' largest orders and working precisions: psi^(13) at
# 752 bits (H, k <= 12, 512 bits) and psi^(10) at 448 bits (g, k <= 8,
# 256 bits); and the largest order at 4200 bits
@example(13, F(1, 16), 752)
@example(10, F(64), 448)
@example(32, F(3, 7), 4200)
def test_series_matches_reference_loop(m, x, wbits):
    total, radius, fbits, k, n_terms, big_a = ref_psi_sum(m, x, wbits)
    assert _psi_sums((m,), x, wbits)[m] == (total, radius, fbits)
    # past the head's N m! floor units, the radius covers the distance to the
    # exact truncated expansion and the remainder bound X_K
    value, bound = exact_tail(m, x.denominator, big_a, k)
    head = total - (math.factorial(m) * sum((x.denominator ** (m + 1) << fbits)
                                            // (x.numerator + i * x.denominator) ** (m + 1)
                                            for i in range(n_terms)))
    assert (abs(value * 2 ** fbits - head) + bound * 2 ** fbits
            <= radius - n_terms * math.factorial(m))


@settings(SETTINGS, max_examples=60)
@given(st.lists(st.integers(1, 32), min_size=1, max_size=6, unique=True), positive_x,
       st.integers(8, 1100))
@example([2, 1, 6], F(1, 3), 288)  # non-dyadic x, orders out of sequence
@example([15, 1, 8], F(999983, 1000003), 1100)
@example([1, 2, 15], F(2 ** 20), 1100)  # N = 0: no head terms
@example([1, 9, 10], F(1, 2 ** 20), 64)
@example([29, 1], F(9), 8)  # 29 diverges at the first N, 1 does not
# gapped orders: the head's passes run through the orders between them
@example([1, 4, 10], F(7, 5), 448)
@example([1, 4, 10], F(1, 3), 288)
@example([2, 32], F(1, 2 ** 20), 200)
@example([1, 13, 32], F(2 ** 40), 4200)
def test_joint_series_matches_reference_loop(orders, x, wbits):
    # every order of one joint series is the sum its own series gives
    sums = _psi_sums(tuple(orders), x, wbits)
    assert sorted(sums) == sorted(orders)
    for m in orders:
        assert sums[m] == ref_psi_sum(m, x, wbits)[:3]


def test_joint_series_retries_only_the_diverged_orders(monkeypatch):
    # at x = 9 and 8 working bits the tail of psi^(29) diverges at the first
    # N while psi' stops there; only order 29 runs again, at the next N
    module = sys.modules["cmgamma.polygamma"]  # cmgamma.polygamma is the function
    heads = module._heads
    passes = []

    def recording(exps, n, d, n_terms, fbits):
        passes.append((list(exps), n_terms))
        return heads(exps, n, d, n_terms, fbits)

    monkeypatch.setattr(module, "_heads", recording)
    sums = _psi_sums((29, 1), F(9), 8)
    assert [exps for exps, _ in passes] == [[2, 30], [30]]
    assert passes[0][1] < passes[1][1]
    for m in (1, 29):
        assert sums[m] == ref_psi_sum(m, F(9), 8)[:3]


@pytest.mark.parametrize("wbits", [0, 8, 40, 752])
def test_series_needs_at_most_two_head_lengths(monkeypatch, wbits):
    # the retries end: every order up to 32 stops by the second N, where the
    # module docstring says so
    module = sys.modules["cmgamma.polygamma"]  # cmgamma.polygamma is the function
    heads, passes = module._heads, []

    def recording(exps, n, d, n_terms, fbits):
        passes.append(n_terms)
        return heads(exps, n, d, n_terms, fbits)

    monkeypatch.setattr(module, "_heads", recording)
    for x in (F(1, 2 ** 20), F(1, 3), F(1), F(6), F(9), F(40), F(2 ** 20), F(2 ** 40)):
        passes.clear()
        assert sorted(_psi_sums(tuple(range(1, MAX_ORDER + 1)), x, wbits)) == list(
            range(1, MAX_ORDER + 1))
        assert len(passes) <= 2, x


@settings(SETTINGS, max_examples=80)
@given(st.integers(1, 32), positive_x, st.integers(8, 1100), st.integers(0, 3),
       st.integers(1, 160))
# the scan workloads' largest orders and working precisions (see above), the
# largest order at 4200 bits, and a small a = x + N whose U_j grow past j = a
@example(13, F(1, 16), 752, 0, 160)
@example(10, F(64), 448, 0, 160)
@example(32, F(3, 7), 4200, 0, 160)
@example(29, F(9), 8, 0, 160)
def test_series_table_encloses_exact_u(m, x, wbits, attempt, top):
    # every interval [lo_j, hi_j] of the table holds the exact
    # U_j 2^G = (j-1)! d^j 2^G / A^j, its width err_j grows by at most one
    # per step while (j-1) d <= A, and the screened bit lengths and rise
    # flags are the exact ones
    n, d = x.numerator, x.denominator
    gbits = max(ref_series_scale(x, wbits, 2), ref_series_scale(x, wbits, MAX_ORDER + 1))
    big_a = n + max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d) * d
    table = _Table(d, big_a, gbits)
    table.grow(top)
    lo, err = ref_table(d, big_a, gbits, top)
    assert (table.lo[1:], table.err[1:]) == (lo[1:], err[1:])
    for j in range(1, top + 1):
        exact = math.factorial(j - 1) * d ** j << gbits
        assert lo[j] * big_a ** j <= exact <= (lo[j] + err[j]) * big_a ** j, j
        assert table.hi[j] == lo[j] + err[j] and table.bits[j] == table.hi[j].bit_length()
        if j > 1 and (j - 1) * d <= big_a:
            assert err[j] <= err[j - 1] + 1
        if j > 2:
            assert table.rising[j] == (16 * table.hi[j] > 625 * table.hi[j - 2]), j


def ref_stop(table, m: int, target: int) -> int | None:
    """The least k >= 1 whose remainder bound X_k = (5/2)(4/25)^(2k+1)
    hi_(m+2k+1) is at most target, by exact Fractions at every k, or None
    when X_k > X_(k-1) at some k >= 2 before that."""
    previous = None
    for k in range(1, 100001):
        j = m + 2 * k + 1
        table.grow(j)
        bound = F(5, 2) * F(4, 25) ** (2 * k + 1) * table.hi[j]
        if bound <= target:
            return k
        if previous is not None and bound > previous:
            return None
        previous = bound
    raise AssertionError("no stop and no rise")


@settings(SETTINGS, max_examples=400)
@given(st.integers(1, 32), positive_x, st.integers(8, 1100), st.integers(0, 2),
       st.integers(0, 24))
@example(13, F(1, 16), 752, 0, 8)
@example(10, F(64), 448, 0, 8)
@example(29, F(9), 8, 0, 8)  # the bounds rise first
@example(30, F(9), 8, 0, 8)
@example(32, F(3, 7), 4200, 0, 8)
@example(1, F(2 ** 20), 1100, 0, 8)
def test_stop_is_the_least_k(m, x, wbits, attempt, cut):
    # _stop returns ref_stop's k; the target is that of the series (at
    # least 2^32 units), cut by 0-24 bits
    n, d, s = x.numerator, x.denominator, m + 1
    fbits = ref_series_scale(x, wbits, s)
    gbits = max(ref_series_scale(x, wbits, 2), ref_series_scale(x, wbits, MAX_ORDER + 1))
    n_terms = max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d)
    head = sum((d ** s << fbits) // (n + i * d) ** s for i in range(n_terms))
    table = _Table(d, n + n_terms * d, gbits)
    table.grow(m + 1)
    target = ((math.factorial(m) * head << gbits - fbits) + table.lo[m]) >> (wbits + 8 + cut)
    assert _stop(table, m, target) == ref_stop(_Table(d, n + n_terms * d, gbits), m, target)


def _line_of(func, statement: str) -> int:
    lines, first = inspect.getsourcelines(func)
    hits = [first + i for i, line in enumerate(lines) if line.strip() == statement]
    assert len(hits) == 1, statement
    return hits[0]


# the scan workloads' largest orders and working precisions (see above), and
# a first N that diverges, each by its exponent s = m + 1; each series makes
# one exact stop comparison, the screen proving the outcome at every other k
@pytest.mark.parametrize("s, x, wbits, exact", [
    (14, F(1, 16), 752, 1), (11, F(64), 448, 1), (30, F(9), 8, 1)])
def test_series_tail_decides_on_integers(s, x, wbits, exact):
    # no float is made in the series: no local of its frames and no value
    # they return is a float, and no float function of math is called; the
    # exact stop comparison runs once per N, where the screen cannot decide
    module = sys.modules["cmgamma.polygamma"]  # cmgamma.polygamma is the function
    floats, compared = [], 0
    line = _line_of(module._stop,
                    "if 5 * hi[m + 2 * k + 1] << (4 * k + 2) <= 2 * 25 ** (2 * k + 1) * target:")

    def local(frame, event, arg):
        nonlocal compared
        values = list(frame.f_locals.values()) + ([arg] if event == "return" else [])
        floats.extend(v for v in values if isinstance(v, float))
        compared += event == "line" and frame.f_code is module._stop.__code__ \
            and frame.f_lineno == line
        return local

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__module__", None) == "math" \
                and arg.__name__ in ("log", "log2", "log10", "exp", "sqrt", "pow"):
            floats.append(arg)

    outer, outer_profile = sys.gettrace(), sys.getprofile()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_globals is vars(module) else None)
    sys.setprofile(profile)
    try:
        _psi_sums((s - 1,), x, wbits)
    finally:
        sys.settrace(outer)
        sys.setprofile(outer_profile)
    assert floats == [] and compared == exact


@settings(SETTINGS, max_examples=12)
@given(st.integers(1, 13), positive_x, st.sampled_from([64, 256, 1024]))
def test_series_radius_covers_hurwitz_zeta(m, x, wbits):
    # the raw series enclosure of |psi^(m)(x)| = m! zeta(m+1, x), before
    # Ball renormalization widens it, against mpmath at four times the bits
    total, radius, fbits = _psi_sums((m,), x, wbits)[m]
    mid, rad = F(total, 2 ** fbits), F(radius, 2 ** fbits)
    assert rad <= mid / 2 ** (wbits + 4)
    with mp.workprec(4 * wbits):
        ref = _mpf_tuple_to_fraction((math.factorial(m) * mp.zeta(
            m + 1, mp.mpf(x.numerator) / x.denominator))._mpf_)
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
