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
multiplied by B_2k = num/den.  The term's floor is taken with num and the
small den at the lower end of the interval, and at the other end only when
that floor's remainder lies within (|num| err) >> ex of the edge the
interval moves toward, the only place the two floors can differ
(`_sure_floor`); only if they differ, because the term lies within the
error of an integer, is it formed exactly from d^j, A^j and (2k)!.  So the
sum is bit-identical to the exact floor of every term, at the cost of short
products instead of divisions of numbers thousands of bits long.

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
The floored recurrence for low stays, one short floor division per step:
the two division-free stop tests tried in its place were both slower at
high precision (CPython 3.11, 2 vCPU).  Reading the stop from the term
already formed was even on the scans but 9% slower over orders 2..33 at
4096 bits; bounding X_k through the exact Bernoulli ratio was 1% slower
on the scans and 27% slower at 4096 bits.

Every order of one (x, prec) has the same w, so the same N and the same
A; only F_s depends on s.  So all requested orders are summed as one
series (`polygamma` takes a tuple of orders), in the manner of Johansson,
"Rigorous high-precision computation of the Hurwitz zeta function and its
derivatives" (Numer. Algorithms 69, 2015).  The head takes one long
division per term: with W = d^S 2^H, S the largest s and H the largest F_s,
and b = n + i d, two exact nested-floor identities give every order from it,

    floor(floor(W/b^s) / b) = floor(W/b^(s+1)),
    floor(floor(W/b^s) / (d^(S-s) 2^(H-F_s))) = floor(d^s 2^F_s / b^s),

so each higher order costs one short division by b, and each term is the
same floor as in a series of its own; when d is a power of two, d^(S-s) is
folded into the shift.  Each order takes one pass over all N terms, in
`map` and `sum` over the list of the previous order's floors, so no Python
loop runs per term.  The tail runs one loop over k that shares the B_2k
lookup, the guard shift (ex depends on k only), q = (2k-1) 2k A^2 and
625 A^2, while each order keeps its own mantissa interval, err, low, stop
and divergence test.  The orders that diverge at one N retry together at
the next; the others keep the sums they stopped with.  Every sum is
bit-identical to the one its order's series gives alone.

The integral-representation quadrature (`polygamma_quadrature_crosscheck`)
is a heuristic cross-check only: its radius is an error *estimate* from the
adaptive scheme, not a proof.  It is the one mpmath user in the package and
imports mpmath when it is called, so the certified path and every command
except `eval --crosscheck` run without it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import floordiv, rshift

from .algebra import as_positive_fraction
from .ball import Ball, _mpf_tuple_to_fraction, check_prec
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


def _heads(exps: list[int], n: int, d: int, n_terms: int,
           fbits: dict[int, int]) -> dict[int, int]:
    """sum_{i < N} floor(d^s 2^F_s / (n + i d)^s) for each s of the ascending
    exps, from one long division floor(W/b^lo) per term b = n + i d and the
    nested-floor identities of the module docstring, one pass over all N
    terms per order."""
    lo, top = exps[0], exps[-1]
    high = max(fbits[s] for s in exps)
    t = d.bit_length() - 1
    wanted = set(exps)
    terms = range(n, n + n_terms * d, d)
    v = list(map(floordiv, repeat(d ** top << high), map(pow, terms, repeat(lo))))
    sums = {}
    for s in range(lo, top + 1):
        if s > lo:
            v = list(map(floordiv, v, terms))
        if s in wanted:
            shift = high - fbits[s]
            if d == 1 << t:  # d^(S-s) is a shift too
                sums[s] = sum(map(rshift, v, repeat(shift + t * (top - s))))
            else:
                cut = map(floordiv, v, repeat(d ** (top - s))) if s < top else v
                sums[s] = sum(map(rshift, cut, repeat(shift)))
    return sums


def _sure_floor(bm: int, num: int, err: int, ex: int, den: int) -> int | None:
    """floor((bm >> ex) / den), the term's floor at the mantissa's lower end
    bm = num m, or None if the floor at the other end bm + num err differs.

    That floor is formed only when the first one's remainder lies within
    reach = (|num| err) >> ex of the edge the interval moves toward: the two
    shifted ends differ by at most reach + 1, as floor(a + b) <= floor(a) +
    floor(b) + 1, so a farther remainder leaves both ends in one interval
    [term den, (term + 1) den) and the floors equal."""
    term, rest = divmod(bm >> ex, den)
    if (den - 1 - rest if num > 0 else rest) > (abs(num) * err) >> ex:
        return term
    return term if term == ((bm + num * err) >> ex) // den else None


def _zeta_like_sums(orders: Iterable[int], x: Fraction,
                    wbits: int) -> dict[int, tuple[int, int, int]]:
    """Enclosures of sum_{i>=0} (x+i)^(-s) for each exponent s >= 2 in
    orders, as {s: (total, radius, F)}: each sum is within radius of total,
    both integers in units of 2^-F."""
    n, d = x.numerator, x.denominator
    round_bits = wbits + 24
    # x < 2^e, so the sum exceeds 2^(-s*e) and one unit is at most
    # 2^-(round_bits+16) of it
    e = n.bit_length() - d.bit_length() + 1
    pending = sorted(set(orders))
    fbits_of = {s: max(0, round_bits + s * e + 16) for s in pending}
    done: dict[int, tuple[int, int, int]] = {}
    for attempt in range(4):
        n_terms = max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d)
        heads = _heads(pending, n, d, n_terms, fbits_of)
        big_a = n + n_terms * d  # a = x + N = big_a / d

        def exact_bound(s: int, k: int, fbits: int) -> int:
            """ceil of the remainder bound X_k after k terms, in units."""
            j = s + 2 * k - 1
            return -(-(5 * math.perm(j, 2 * k) * d ** (j + 1) << (fbits + 4 * k + 2))
                     // (2 * 25 ** (2 * k + 1) * big_a ** (j + 1)))

        d2, a2 = d * d, big_a * big_a
        ex = _TAIL_GUARD_BITS
        live = []
        for s in pending:
            fbits, head = fbits_of[s], heads[s]
            integral = (d ** (s - 1) << fbits) // ((s - 1) * big_a ** (s - 1))
            total = head + integral + (d ** s << fbits) // (2 * big_a ** s)
            target = (head + integral) >> (wbits + 8)  # the sum exceeds head + integral
            # V = rising(s, 2k-1) d^j 2^F / ((2k)! A^j), j = s+2k-1, lies in
            # [m, m + err] 2^-ex; the term is floor(B_2k V)
            m = (s * d ** (s + 1) << (fbits + ex)) // (2 * big_a ** (s + 1))
            # X_1 = V_1 64 (s+1) d / (3125 A), and low <= X_k stays a lower bound
            low = (m * 64 * (s + 1) * d // (3125 * big_a)) >> ex
            live.append((s, fbits, target, m, 1, low, total))
        bq = 625 * a2  # X_k / X_(k-1) = bp / bq
        for k in range(1, 100001):
            num, den = _bernoulli(2 * k).as_integer_ratio()
            if k > 1:
                # 2^ex > |B_2k| 2^guard before this step rounds
                shift = max(0, _TAIL_GUARD_BITS + num.bit_length() - den.bit_length() + 1 - ex)
                ex += shift
                q = (2 * k - 1) * (2 * k) * a2
            going = []
            for s, fbits, target, m, err, low, total in live:
                j = s + 2 * k - 1
                if k > 1:
                    p = (j - 2) * (j - 1) * d2
                    m, err = (m << shift) * p // q, (err << shift) * p // q + 2
                    bp = 16 * (j - 1) * j * d2
                    low = low * bp // bq
                bm = num * m
                term = _sure_floor(bm, num, err, ex, den)
                if term is None:
                    # the floor is in doubt: form the term exactly
                    term = ((num * math.perm(j - 1, 2 * k - 1) * d ** j << fbits)
                            // (den * math.factorial(2 * k) * big_a ** j))
                total += term
                if low <= target:
                    bound = exact_bound(s, k, fbits)
                    if bound <= target:
                        # each of the n_terms + 2 + k floor divisions is
                        # short by < 1 unit
                        done[s] = (total, n_terms + 2 + k + bound, fbits)
                        continue
                if k > 1 and bp > bq and exact_bound(s, k, fbits) > exact_bound(s, k - 1, fbits):
                    continue  # the asymptotic terms started diverging; need larger N
                going.append((s, fbits, target, m, err, low, total))
            live = going
            if not live:
                break
        pending = [s for s in pending if s not in done]
        if not pending:
            return done
    raise PrecisionError(f"series tail for s={pending[0]}, x={x} not certifiable "
                         f"at {wbits} working bits")


def _polygamma_rational(orders: tuple[int, ...], x: Fraction,
                        prec: int) -> tuple[Ball, ...]:
    wbits = prec + _BASE_GUARD_BITS
    sums = _zeta_like_sums([m + 1 for m in orders], x, wbits)
    balls = []
    for m in orders:
        total, radius, fbits = sums[m + 1]
        fac = math.factorial(m)
        sign = 1 if m % 2 == 1 else -1
        one = 1 << fbits
        ball = Ball._make(sign * fac * total, one, fac * radius, one, prec)
        if not ball.within(prec):
            raise PrecisionError(
                f"polygamma({m}, {x}) enclosure wider than 2^-{prec} relative")
        balls.append(ball)
    return tuple(balls)


def _check_order(m) -> None:
    if type(m) is not int or m < 1:  # a bool or a float is refused too
        raise DomainError("derivative order m must be an integer >= 1")


def polygamma(m: int | tuple[int, ...], x, prec: int = 128) -> Ball | tuple[Ball, ...]:
    """Certified enclosure of psi^(m)(x) for integer m >= 1 and x > 0 whose
    relative radius is at most 2^-prec (`check_prec`), else PrecisionError.

    m may also be a nonempty tuple of orders; the result is then the tuple of
    their enclosures, all from one joint series.  x may be an exact rational
    or a Ball; Ball arguments are handled through the strict monotonicity of
    psi^(m) (its derivative psi^(m+1) is sign-definite), by evaluating at the
    interval endpoints and hulling.
    """
    orders = m if isinstance(m, tuple) else (m,)
    if not orders:
        raise DomainError("need at least one derivative order")
    for order in orders:
        _check_order(order)
        if order > MAX_ORDER:
            raise DomainError(f"m > {MAX_ORDER} unsupported")
    check_prec(prec)
    if isinstance(x, Ball):
        as_positive_fraction(x.lower)
        if x.is_exact():
            balls = _polygamma_rational(orders, x.mid, prec)
        else:
            lo = _polygamma_rational(orders, x.lower, prec)
            hi = _polygamma_rational(orders, x.upper, prec)
            balls = tuple(Ball.hull(a, b) for a, b in zip(lo, hi))
    else:
        balls = _polygamma_rational(orders, as_positive_fraction(x), prec)
    return balls if isinstance(m, tuple) else balls[0]


def polygamma_quadrature_crosscheck(m: int, x, prec: int = 64) -> Ball:
    """Non-certified quadrature of the integral form of psi^(m).

    Integrates (-1)^(m+1) * t^m e^(-x t) / (1 - e^(-t)) over (0, inf) with
    tanh-sinh quadrature.  The returned radius is the scheme's own error
    estimate, NOT a rigorous bound; use only to cross-validate the series.
    It needs mpmath, which only the `crosscheck` and `test` extras install.
    """
    _check_order(m)
    check_prec(prec)
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
