"""Certified enclosures for the polygamma functions psi^(m), m >= 1, x > 0.

With s = m + 1 and f(t) = (x + t)^(-s),

    psi^(m)(x) = (-1)^(m+1) * m! * sum_{i >= 0} f(i).

The series is summed in fixed point: with x = n/d, every term is a floor
division of integers scaled by 2^F, where F is chosen so that one unit 2^-F
is at most 2^-(w+40) of the sum, and the working precision is
w = prec + 32 bits for a prec-bit result, whatever the order m: the terms
are positive, so nothing cancels, and m! scales the sum and its radius
alike.  The head sum_{i < N} is sum floor(d^s 2^F / (n + i d)^s).  The
tail sum_{i >= N} is enclosed by Euler-Maclaurin around a = x + N = A/d:

    T = a^(-m)/m + f(N)/2
        + sum_{k=1..K} B_{2k}/(2k)! * rising(s, 2k-1) * a^(-s-2k+1)  +  R_K,

where a^(-m)/m is the integral comparison term and the remainder satisfies

    |R_K| <= max|periodized B_{2K+1}| / (2K+1)! * integral of |f^(2K+1)|
           = 2*zeta(2K+1)/(2pi)^(2K+1) * rising(s, 2K+1)/(s+2K) * a^(-s-2K).

We weaken that rationally with 2*pi > 25/4 and zeta(2K+1) <= 5/4 (K >= 1)
and round it up to whole units.  Each floor division is short by less than
one unit, so the radius is (number of divisions + remainder units) * 2^-F,
counted exactly.  N is chosen so the Euler-Maclaurin terms can reach ~2^-w
before diverging; small x needs no special handling because F is set from
the size of the leading term x^(-s).

Term k of the tail is floor(B_2k V_k) with V_k = rising(s, 2k-1) d^j 2^F /
((2k)! A^j), j = s+2k-1.  V_k is not formed from its powers: it is carried
as an integer mantissa interval, V_k 2^ex in [m, m + err], which each step
multiplies by the small ratio V_k/V_(k-1) = (j-2)(j-1) d^2 / ((2k-1)(2k) A^2).
One floor division gives the new m; the upper end (m + err) ratio is below
floor(m ratio) + 1 + floor(err ratio) + 1, which is the new err, so err
counts the accumulated error in units of 2^-ex.  Before a step the mantissa
is shifted left, exactly, until 2^ex exceeds |B_2k| 2^64 (the tail's 64
guard bits), so the interval is narrower than err 2^-64 units once
multiplied by B_2k.  The term's floor is taken with B_2k's numerator and its
small denominator at both ends of the interval; only if the two floors
differ, because the term lies within the error of an integer, is it formed
exactly from d^j, A^j and (2k)!.  So the sum is bit-identical to the exact
floor of every term, at the cost of short products instead of divisions of
numbers thousands of bits long.

The Bernoulli numbers B_2k come exactly from the tangent numbers T_k, by
the O(k^2) integer recurrence of Brent & Harvey ("Fast computation of
Bernoulli, Tangent and Secant numbers"), in a table that grows on demand.
With X_k the weakened remainder bound in units, the sum stops at the first
K with ceil(X_K) at most the target 2^-(w+8) of the sum, and gives up on
this N when ceil(X_k) > ceil(X_(k-1)).  Both tests are exact, on integers:
a floored lower bound low <= X_k follows the ratio X_k/X_(k-1) =
16 (j-1) j d^2 / (625 A^2) from X_1 = V_1 64 (s+1) d / (3125 A), and the
long division ceil(X_k) is formed only where low reaches the target, or
where the ratio exceeds 1, the only steps where the ceilings can grow.

The integral-representation quadrature (`polygamma_quadrature_crosscheck`)
is a heuristic cross-check only: its radius is an error *estimate* from the
adaptive scheme, not a proof.  It is the one mpmath user in the package and
imports mpmath when it is called, so the certified path and every command
except `eval --crosscheck` run without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import as_positive_fraction
from .ball import Ball, _mpf_tuple_to_fraction
from .errors import CmGammaError, DomainError, PrecisionError, QuadratureFailure

MAX_ORDER = 32

_BASE_GUARD_BITS = 32


@lru_cache(maxsize=None)
def _tangent_numbers(count: int) -> tuple[int, ...]:
    """T_1..T_count by the in-place recurrence of Brent & Harvey."""
    t = [0, 1] + [0] * (count - 1)
    for j in range(2, count + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1:])


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n for even n >= 2: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

    The tangent numbers come from a table whose size doubles on demand.
    """
    k = n // 2
    t = _tangent_numbers(max(32, 1 << (k - 1).bit_length()))[k - 1]
    return Fraction((-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1))


_TAIL_GUARD_BITS = 64  # bits of the tail mantissa below a unit of the term


def _zeta_like_sum(s: int, x: Fraction, wbits: int) -> tuple[int, int, int]:
    """Enclosure of sum_{i>=0} (x+i)^(-s) as (total, radius, F): the sum is
    within radius of total, both integers in units of 2^-F."""
    n, d = x.numerator, x.denominator
    round_bits = wbits + 24
    # x < 2^e, so the sum exceeds 2^(-s*e) and one unit is at most
    # 2^-(round_bits+16) of it
    e = n.bit_length() - d.bit_length() + 1
    fbits = max(0, round_bits + s * e + 16)
    for attempt in range(4):
        n_terms = max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d)
        ds = d ** s << fbits
        head = sum(ds // (n + i * d) ** s for i in range(n_terms))
        big_a = n + n_terms * d  # a = x + N = big_a / d
        integral = (d ** (s - 1) << fbits) // ((s - 1) * big_a ** (s - 1))
        total = head + integral + ds // (2 * big_a ** s)
        floors = n_terms + 2  # each floor division is short by < 1 unit
        target = (head + integral) >> (wbits + 8)  # the sum exceeds head + integral

        def exact_bound(k: int) -> int:
            """ceil of the remainder bound X_k after k terms, in units."""
            j = s + 2 * k - 1
            return -(-(5 * math.perm(j, 2 * k) * d ** (j + 1) << (fbits + 4 * k + 2))
                     // (2 * 25 ** (2 * k + 1) * big_a ** (j + 1)))

        d2, a2 = d * d, big_a * big_a
        # V = rising(s, 2k-1) d^j 2^F / ((2k)! A^j), j = s+2k-1, lies in
        # [m, m + err] 2^-ex; the term is floor(B_2k V)
        ex = _TAIL_GUARD_BITS
        m, err = (s * d ** (s + 1) << (fbits + ex)) // (2 * big_a ** (s + 1)), 1
        # X_1 = V_1 64 (s+1) d / (3125 A), and low <= X_k stays a lower bound
        low = (m * 64 * (s + 1) * d // (3125 * big_a)) >> ex
        for k in range(1, 100001):
            j = s + 2 * k - 1
            num, den = _bernoulli(2 * k).as_integer_ratio()
            if k > 1:
                # 2^ex > |B_2k| 2^guard before this step rounds
                shift = _TAIL_GUARD_BITS + num.bit_length() - den.bit_length() + 1 - ex
                if shift > 0:
                    m, err, ex = m << shift, err << shift, ex + shift
                p, q = (j - 2) * (j - 1) * d2, (2 * k - 1) * (2 * k) * a2
                m, err = m * p // q, err * p // q + 2
                bp, bq = 16 * (j - 1) * j * d2, 625 * a2  # X_k / X_(k-1)
                low = low * bp // bq
            bm = num * m
            term = (bm >> ex) // den
            if term != ((bm + num * err) >> ex) // den:
                # the floor is in doubt: form the term exactly
                term = ((num * math.perm(j - 1, 2 * k - 1) * d ** j << fbits)
                        // (den * math.factorial(2 * k) * big_a ** j))
            total += term
            floors += 1
            if low <= target:
                bound = exact_bound(k)
                if bound <= target:
                    return total, floors + bound, fbits
            if k > 1 and bp > bq and exact_bound(k) > exact_bound(k - 1):
                break  # the asymptotic terms started diverging; need larger N
    raise PrecisionError(
        f"series tail for s={s}, x={x} not certifiable at {wbits} working bits")


def _polygamma_rational(m: int, x: Fraction, prec: int) -> Ball:
    wbits = prec + _BASE_GUARD_BITS
    total, radius, fbits = _zeta_like_sum(m + 1, x, wbits)
    fac = math.factorial(m)
    sign = 1 if m % 2 == 1 else -1
    one = 1 << fbits
    ball = Ball._make(sign * fac * total, one, fac * radius, one, prec)
    mid, rad = ball.mid, ball.rad
    # rad > |mid| 2^-prec, cross-multiplied
    if mid and rad.numerator * mid.denominator << prec > abs(mid.numerator) * rad.denominator:
        raise PrecisionError(
            f"polygamma({m}, {x}) enclosure wider than 2^-{prec} relative")
    return ball


def _check_order(m) -> None:
    if not isinstance(m, int) or m < 1:
        raise DomainError("derivative order m must be an integer >= 1")


def polygamma(m: int, x, prec: int = 128) -> Ball:
    """Certified enclosure of psi^(m)(x) for integer m >= 1 and x > 0 whose
    relative radius is at most 2^-prec (prec >= 8 bits), else PrecisionError.

    x may be an exact rational or a Ball; Ball arguments are handled through
    the strict monotonicity of psi^(m) (its derivative psi^(m+1) is
    sign-definite), by evaluating at the interval endpoints and hulling.
    """
    _check_order(m)
    if m > MAX_ORDER:
        raise DomainError(f"m > {MAX_ORDER} unsupported")
    if prec < 8:
        raise ValueError("prec must be at least 8 bits")
    if isinstance(x, Ball):
        as_positive_fraction(x.lower)
        if x.is_exact():
            return _polygamma_rational(m, x.mid, prec)
        lo = _polygamma_rational(m, x.lower, prec)
        hi = _polygamma_rational(m, x.upper, prec)
        return Ball.hull(lo, hi)
    return _polygamma_rational(m, as_positive_fraction(x), prec)


def polygamma_quadrature_crosscheck(m: int, x, prec: int = 64) -> Ball:
    """Non-certified quadrature of the integral form of psi^(m).

    Integrates (-1)^(m+1) * t^m e^(-x t) / (1 - e^(-t)) over (0, inf) with
    tanh-sinh quadrature.  The returned radius is the scheme's own error
    estimate, NOT a rigorous bound; use only to cross-validate the series.
    It needs mpmath, which only the `crosscheck` and `test` extras install.
    """
    _check_order(m)
    x = as_positive_fraction(x)
    try:
        from mpmath import mp
    except ImportError:
        raise CmGammaError("the quadrature cross-check needs mpmath: install "
                           "the 'crosscheck' extra (pip install cmgamma[crosscheck])"
                           ) from None
    with mp.workprec(prec + 48):
        xf = mp.mpf(x.numerator) / mp.mpf(x.denominator)

        def integrand(t):
            if t == 0:
                return mp.mpf(1) if m == 1 else mp.mpf(0)
            return t ** m * mp.exp(-xf * t) / (-mp.expm1(-t))

        try:
            val, err = mp.quad(integrand, [0, 1, 10, mp.inf],
                               error=True, maxdegree=10)
        except Exception as exc:  # mpmath failures surface as various types
            raise QuadratureFailure(str(exc)) from exc
        if not mp.isfinite(val) or not mp.isfinite(err):
            raise QuadratureFailure("quadrature produced a non-finite result")
        if err > abs(val) * mp.mpf(2) ** (-prec) * 64 + mp.mpf(2) ** (-prec - 48):
            raise QuadratureFailure(
                f"estimated error {err} too large for {prec}-bit request")
    sign = 1 if m % 2 == 1 else -1
    mid = sign * _mpf_tuple_to_fraction(val._mpf_)
    rad = abs(_mpf_tuple_to_fraction(err._mpf_))
    return Ball._make(mid.numerator, mid.denominator, rad.numerator, rad.denominator, prec)
