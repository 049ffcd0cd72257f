"""Certified enclosures for the polygamma functions psi^(m), m >= 1, x > 0.

For x = n/d, N head terms and a = x + N = A/d, the Euler-Maclaurin
expansion (DLMF 5.15.8; Johansson, "Rigorous high-precision computation of
the Hurwitz zeta function and its derivatives", Numer. Algorithms 69, 2015)
reads, with U_j = (j-1)!/a^j and beta_k = B_2k/(2k)!,

    (-1)^(m+1) psi^(m)(x) = m! sum_{i<N} (x+i)^-(m+1) + U_m + U_(m+1)/2
                            + sum_{k=1..K} beta_k U_(m+2k) + R_K,
    |R_K| <= 2 zeta(2K+1)/(2 pi)^(2K+1) U_(m+2K+1)
          <= X_K = (5/2) (4/25)^(2K+1) U_(m+2K+1),

weakened rationally with 2 pi > 25/4 and zeta(2K+1) <= 5/4 (K >= 1).  It
is m! times the Euler-Maclaurin sum of (x+t)^-(m+1) over t >= N; the m!
absorbs each derivative's rising factorial, so every order reads the same
sequence U_j.

The sum is formed in integer fixed point at w = prec + 32 working bits for
every order (the terms are positive, so nothing cancels).  For x < 2^e,
one unit 2^-F_s, F_s = w + 40 + s e, is at most 2^-(w+40) of
sum_i (x+i)^-s > 2^(-s e), s = m + 1; the tail's unit 2^-G, G = max(F_2,
F_33), is the finest of them, so G depends on x and w alone.  The head
sum_{i<N} floor(d^s 2^F_s / (n + i d)^s) is short by less than N units.

The tail reads one table per (x, w, N): U_j 2^G as the integer interval
[u_j, u_j + E_j], from u_1 = floor(d 2^G / A), E_1 = 1 and

    u_(j+1) = floor(u_j j d / A),    E_(j+1) = ceil(E_j j d / A) + 1,

one short multiply and one floor division per j, so E_j counts the floors
(it grows by at most one per step while j <= a).  b_k = floor(beta_k 2^G)
comes from the tangent numbers T_k of Brent & Harvey ("Fast computation of
Bernoulli, Tangent and Secant numbers"), beta_k = (-1)^(k-1) T_k / (4^k
(4^k - 1) (2k-1)!), cached per G and shifted from the floors at the next
multiple of 1024 bits.  Order m's K terms are one dot product in C,
S = sum_k b_k u_(m+2k) in units of 2^-2G, and in units of 2^-G the tail
past the head is t = u_m + floor(u_(m+1)/2) + floor(S/2^G), with an error
of at most the exact count E_m + E_(m+1) + floor(D/2^G) + 2 + ceil(X_K
2^G): D = sum_k (|b_k| + 1) E_(m+2k) + u_(m+2k) bounds the error of the
products of intervals (b_k is short by < 1, u_j by <= E_j), the 2 counts
the shift and the rounding of D, and X_K is read from the upper end
u_j + E_j, j = m + 2K + 1.  One more shift brings t and its error to the
order's unit 2^-F_s: the sum is m! head + floor(t/2^(G-F_s)) and its
radius N m! + floor(error/2^(G-F_s)) + 2.  So each ball is the one the
order's own scale gives: where F_s clamps at 0 (x = 2^-20 at low
precision), the tail is below one unit and the midpoint m! head is exact.

K is the least k >= 1 with ceil(X_k) <= the target, 2^-(w+8) of the lower
bound m! head 2^(G-F_s) + u_m of the sum.  Each test is the exact integer
comparison 5 (u_j + E_j) 4^(2k+1) <= 2 25^(2k+1) target, which a
bit-length screen skips only where the bit lengths prove it false;
`itertools.compress` scans the screen and the table's rise flags in C.
The bound rises, X_k > X_(k-1), exactly where 16 (u_j + E_j) > 625 (u_(j-2)
+ E_(j-2)).  If it rises at some k >= 2 before any k meets the target, the
terms have started diverging and the order tries again with a larger N,
which grows with every attempt, until 25a/4 exceeds the indices j its
target needs; for orders 1 to 32, working bits 0 to 752 and x from 2^-20
to 2^40 the second N always sufficed.  No float enters a decision.

Every order of one (x, w) has the same G and, at one attempt, the same N
and table, whose entries depend on j alone, and `_heads` gives each order
the floors its series gives alone, so all requested orders are summed as
one series (`polygamma` takes a tuple of orders) and each order's sum is
bit-identical to the one it gives alone.  The head takes one long division
per term: with W = d^S 2^H, S the largest s and H the largest F_s, and
b = n + i d, two exact nested-floor identities give every order from it,

    floor(floor(W/b^s) / b) = floor(W/b^(s+1)),
    floor(floor(W/b^s) / (d^(S-s) 2^(H-F_s))) = floor(d^s 2^F_s / b^s),

so each higher order costs one short division by b; when d is a power of
two, d^(S-s) is folded into the shift.  Each order takes one pass over all
N terms, in `map` and `sum` over the list of the previous order's floors,
so no Python loop runs per term.  The orders that diverge at one N retry
together at the next; the others keep the sums they stopped with.

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
from itertools import compress, count, repeat
from operator import add, floordiv, lt, mul, rshift

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


@lru_cache(maxsize=8)
def _beta_floors(gbits: int, count: int) -> tuple[int, ...]:
    """floor(beta_k 2^gbits) for k = 1..count, from beta_k = B_2k/(2k)! =
    (-1)^(k-1) T_k / (4^k (4^k - 1) (2k-1)!)."""
    tangents, floors, fact = _tangent_numbers(count), [], 1
    for k in range(1, count + 1):
        fact *= (2 * k - 2) * (2 * k - 1) if k > 1 else 1  # (2k-1)!
        floors.append(((-1) ** (k - 1) * tangents[k - 1] << gbits)
                      // ((((1 << 2 * k) - 1) * fact) << 2 * k))
    return tuple(floors)


@lru_cache(maxsize=64)
def _betas(gbits: int, count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(b_1..b_count, |b_1|+1..|b_count|+1), b_k = floor(beta_k 2^gbits),
    shifted from the floors at the next multiple of 1024 bits, which the
    nested floor floor(floor(y 2^H) / 2^(H-G)) = floor(y 2^G) allows."""
    top = -(-gbits // 1024) * 1024
    betas = tuple(map(rshift, _beta_floors(top, count), repeat(top - gbits)))
    return betas, tuple(abs(b) + 1 for b in betas)


@lru_cache(maxsize=None)
def _screens(count: int) -> tuple[int, ...]:
    """c_k = bitlen(25^(2k+1)) - 4k - 2 for k < count: where bitlen(u_j + E_j)
    >= bitlen(target) + c_k, the stop test's left side exceeds its right."""
    return tuple((25 ** (2 * k + 1)).bit_length() - 4 * k - 2 for k in range(count))


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


class _Table:
    """The intervals [lo_j, hi_j = lo_j + err_j] that hold U_j 2^G, j >= 1, for
    a = A/d, grown on demand (module docstring); bits_j is the bit length of
    hi_j and rising_j whether 16 hi_j > 625 hi_(j-2), where X_k rises."""

    __slots__ = ("d", "big_a", "lo", "err", "hi", "bits", "rising")

    def __init__(self, d: int, big_a: int, gbits: int):
        lo = (d << gbits) // big_a
        self.d, self.big_a = d, big_a
        self.lo, self.err, self.hi = [0, lo], [0, 1], [1, lo + 1]
        self.bits, self.rising = [1, (lo + 1).bit_length()], [False, False]

    def grow(self, top: int) -> None:
        lo, err, hi, bits = self.lo, self.err, self.hi, self.bits
        for j in range(len(lo), top + 1):
            step = (j - 1) * self.d
            u = lo[-1] * step // self.big_a
            e = -(-err[-1] * step // self.big_a) + 1
            lo.append(u)
            err.append(e)
            hi.append(u + e)
            bits.append((u + e).bit_length())
            # 625 hi_(j-2) >= 625 2^(bits_(j-2) - 1) exceeds 16 hi_j unless
            # bits_j > bits_(j-2) + 4
            self.rising.append(bits[j] > bits[j - 2] + 4 and 16 * hi[j] > 625 * hi[j - 2])


def _stop(table: _Table, m: int, target: int) -> int | None:
    """K, the least k >= 1 with ceil(X_k) <= target, or None if X_k rises at
    some k >= 2 before that.  X_k is read from hi_j, j = m + 2k + 1."""
    reach, hi, k = target.bit_length(), table.hi, 1
    while True:
        j = m + 2 * k + 1
        table.grow(j + 32)
        top = (len(hi) - 2 - m) // 2  # the last k this stretch of the table holds
        low = max(k, 2)
        rise = next(compress(count(low), table.rising[m + 2 * low + 1::2]), top + 1)
        # the k whose stop test the bit lengths cannot prove false
        screens = _screens(1 << len(hi).bit_length())[k:]
        for k in compress(count(k), map(lt, table.bits[j::2], map(add, screens, repeat(reach)))):
            if k > rise:
                break
            if 5 * hi[m + 2 * k + 1] << (4 * k + 2) <= 2 * 25 ** (2 * k + 1) * target:
                return k
        if rise <= top:
            return None
        k = top + 1


def _psi_sums(orders: Iterable[int], x: Fraction,
              wbits: int) -> dict[int, tuple[int, int, int]]:
    """Enclosures of |psi^(m)(x)| for each order m >= 1 in orders, as
    {m: (total, radius, F_s)}: |psi^(m)(x)| lies within radius of total,
    both integers in units of 2^-F_s, s = m + 1."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length() + 1  # x < 2^e

    def scale(s: int) -> int:
        return max(0, wbits + 40 + s * e)

    gbits = max(scale(2), scale(MAX_ORDER + 1))
    pending = sorted(set(orders))
    fbits = {m + 1: scale(m + 1) for m in pending}
    done: dict[int, tuple[int, int, int]] = {}
    for attempt in count():
        n_terms = max(0, ((wbits + 16) * (1 + attempt)) // 3 + 1 - n // d)
        heads = _heads([m + 1 for m in pending], n, d, n_terms, fbits)
        table = _Table(d, n + n_terms * d, gbits)
        lo, err = table.lo, table.err  # grown in place
        for m in pending:
            s, fac = m + 1, math.factorial(m)
            shift = gbits - fbits[s]
            table.grow(m + 1)
            k = _stop(table, m, ((fac * heads[s] << shift) + lo[m]) >> (wbits + 8))
            if k is None:
                continue  # the terms diverge before the target: a larger N
            betas, weights = _betas(gbits, max(32, 1 << (k - 1).bit_length()))
            terms = slice(m + 2, m + 2 * k + 1, 2)
            u = lo[terms]
            products = sum(map(mul, betas, u))
            spread = sum(map(mul, weights, err[terms])) + sum(u)
            rest = -(-(5 * table.hi[m + 2 * k + 1] << (4 * k + 2))
                     // (2 * 25 ** (2 * k + 1)))
            # the tail and its error in units of 2^-G, brought to 2^-F_s
            tail = lo[m] + (lo[m + 1] >> 1) + (products >> gbits)
            error = err[m] + err[m + 1] + (spread >> gbits) + 2 + rest
            done[m] = (fac * heads[s] + (tail >> shift),
                       n_terms * fac + (error >> shift) + 2, fbits[s])
        pending = [m for m in pending if m not in done]
        if not pending:
            return done


def _polygamma_rational(orders: tuple[int, ...], x: Fraction,
                        prec: int) -> tuple[Ball, ...]:
    sums = _psi_sums(orders, x, prec + _BASE_GUARD_BITS)
    balls = []
    for m in orders:
        total, radius, fbits = sums[m]
        one = 1 << fbits
        ball = Ball._make(total if m % 2 == 1 else -total, one, radius, one, prec)
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
            # tanh-sinh nodes stop short of an interval's ends, so t > 0
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
