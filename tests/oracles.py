"""Reference computations and Ball predicates used only by the tests.

Each reference reaches a value by a route that cmgamma's certified paths do
not take, so agreement between the two is evidence for both; the one
exception, polygamma_per_order_guard, runs the same series with more guard
bits, to show that the guard polygamma uses is enough.
"""

import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import mpmath
from mpmath import iv, mp

from cmgamma.ball import Ball, _mpf_tuple_to_fraction
from cmgamma.constants import (BOUND_DEN_FACTORS, REMAINDER_DEN_FACTORS,
                               SCALE_P, SCALE_Q, load_constants)
from cmgamma.polygamma import _psi_sums, polygamma


def contains(ball, value):
    """Whether value lies in [ball.lower, ball.upper]: a Ball must lie
    inside whole; an mpmath mpf is converted exactly, without re-rounding."""
    if isinstance(value, Ball):
        return ball.lower <= value.lower and value.upper <= ball.upper
    if hasattr(value, "_mpf_"):
        value = _mpf_tuple_to_fraction(value._mpf_)
    return ball.lower <= value <= ball.upper


def overlaps(a, b):
    """Whether the intervals of two Balls intersect."""
    return abs(a.mid - b.mid) <= a.rad + b.rad


def polygamma_per_order_guard(m, x, prec, per_order=16):
    """psi^(m)(x) from polygamma's series and single rounding, but at
    prec + 32 + per_order * m working bits instead of prec + 32, so higher
    orders get more guard bits.  The ball of polygamma(m, x, prec) must
    equal it or lie inside it.
    """
    total, radius, fbits = _psi_sums((m,), Fraction(x), prec + 32 + per_order * m)[m]
    one = 1 << fbits
    return Ball._make((-1) ** (m + 1) * total, one, radius, one, prec)


def polygamma_recurrence_shift(m, x, k, prec=128):
    """psi^(m)(x) as psi^(m)(x+k) minus the exact telescoped shift,

        psi^(m)(x) = psi^(m)(x+k) - sum_{j<k} (-1)^m m! / (x+j)^(m+1);

    k = 0 is the identity.  Must overlap the direct series enclosure.
    """
    x = Fraction(x)
    step = (-1) ** m * math.factorial(m)
    return polygamma(m, x + k, prec) - sum(step / (x + j) ** (m + 1)
                                           for j in range(k))


def exppoly_interval(e, t, prec=128):
    """mpmath interval enclosing the exponential polynomial e at rational t.

    The polynomial factors are evaluated exactly; each e^(k t) with k, t != 0
    comes from mpmath's outward-rounded interval exp at prec bits, so the
    value at t = 0 and the e^0 block stay exact.
    """
    t = Fraction(t)
    ctx = type(iv)()  # a private context: mpmath's shared iv keeps its precision
    ctx.prec = prec
    exact = sum(p(t) for k, p in e.blocks() if k == 0 or t == 0)
    acc = ctx.mpf(exact.numerator) / exact.denominator
    for k, p in e.blocks():
        if k and t:
            v = p(t)
            acc += (ctx.mpf(v.numerator) / v.denominator
                    * ctx.exp(k * ctx.mpf(t.numerator) / t.denominator))
    return acc


def rational_part_derivatives(kind, x, n, constants=None):
    """[f(x), f'(x), ..., f^(n)(x)] exactly, for the rational part f of g or H,

        B(x) = p(x)/900 * x^-4 (x+1)^-10          (kind "g"),
        R(x) = q(x)/1800 * x^-2 (x+1)^-10 (x+2)^-10  (kind "H"),

    by the Leibniz rule over the factors: the polynomial is differentiated
    from its coefficients and d^i (x+s)^-e = (-e)(-e-1)...(-e-i+1) (x+s)^(-e-i).
    No partial fractions are involved.
    """
    c = constants if constants is not None else load_constants()
    poly, scale, factors = {"g": (c.p, SCALE_P, BOUND_DEN_FACTORS),
                            "H": (c.q, SCALE_Q, REMAINDER_DEN_FACTORS)}[kind]
    x = Fraction(x)
    coeffs = list(poly.coeffs)
    derivs = []
    for _ in range(n + 1):
        derivs.append(sum((a * x ** i for i, a in enumerate(coeffs)), Fraction(0)) / scale)
        coeffs = [i * a for i, a in enumerate(coeffs)][1:]
    for s, e in factors:
        factor, falling = [], 1
        for i in range(n + 1):
            factor.append(falling * (x + s) ** (-e - i))
            falling *= -e - i
        derivs = [sum(math.comb(m, i) * derivs[i] * factor[m - i] for i in range(m + 1))
                  for m in range(n + 1)]
    return derivs


def g_derivative_ball_chain(k, x, psi, rational_part):
    """g^(k)(x) as a chain of Ball operations, each rounded on its own:

        sum_j C(k,j) psi^(1+j) psi^(1+k-j) + psi^(k+2) - B^(k)(x),

    with psi mapping each order m to the ball of psi^(m)(x) and
    rational_part the exact B^(k)(x).  This is how cmgamma formed the cell
    before the Leibniz sum was taken in integers and rounded once; the
    integer cell must overlap it and be no wider.
    """
    acc = None
    for j in range(k + 1):
        term = math.comb(k, j) * (psi[1 + j] * psi[1 + k - j])
        acc = term if acc is None else acc + term
    acc = acc + psi[k + 2]
    return acc - rational_part


def h_derivative_ball_chain(k, x, prec, constants=None):
    """H^(k)(x) as psi^(k+1)(x) - R^(k)(x) in Ball arithmetic: the ball of
    polygamma(k + 1, x, prec) minus the exact R^(k)(x), differentiated
    without partial fractions.  This is how cmgamma formed the cell before
    it was taken from the jet's integers; the two must be the same ball.
    """
    return (polygamma(k + 1, x, prec)
            - rational_part_derivatives("H", x, k, constants)[k])


def g_derivative_exact_sum(k, x, prec, constants=None):
    """g^(k)(x) from the balls polygamma(m, x, prec), m = 1..k+2, taken as
    exact Fractions: the Leibniz sum of their midpoints

        sum_j C(k,j) psi^(1+j) psi^(1+k-j) + psi^(k+2) - B^(k)(x),

    B^(k)(x) differentiated without partial fractions, and the radius
    sum_j C(k,j) (|m_a| r_b + r_a |m_b| + r_a r_b) + r_(k+2), rounded by one
    Ball._make.  This is the value the integer cell forms over the jet's
    common denominator; the two must be the same ball.
    """
    psi = {m: polygamma(m, x, prec) for m in range(1, k + 3)}
    mid = psi[k + 2].mid - rational_part_derivatives("g", x, k, constants)[k]
    rad = psi[k + 2].rad
    for j in range(k + 1):
        a, b, c = psi[1 + j], psi[1 + k - j], math.comb(k, j)
        mid += c * a.mid * b.mid
        rad += c * (abs(a.mid) * b.rad + a.rad * abs(b.mid) + a.rad * b.rad)
    return Ball._make(mid.numerator, mid.denominator, rad.numerator,
                      rad.denominator, prec)


def decimal_ref(q, dps):
    """The dps leading digits of the exact rational q, rounded half away from
    zero by one decimal division, laid out by mpmath's nstr: what
    `ball.decimal_str(q, dps)` must print."""
    ctx = Context(prec=dps, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    digits = ctx.divide(Decimal(q.numerator), Decimal(q.denominator))
    # nstr prints a dps-digit decimal, held to 4 dps + 64 bits, as itself
    with mp.workprec(4 * dps + 64):
        return mpmath.nstr(mp.mpf(str(digits)), dps)
