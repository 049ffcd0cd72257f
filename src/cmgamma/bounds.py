"""The numeric layer: B, g and H, their derivatives and the telescoping check.

    B(x) = p(x) / (900 x^4 (x+1)^10)          the rational lower bound
    g(x) = trigamma(x)^2 + tetragamma(x) - B(x)
    R(x) = the 22-term partial-fraction remainder (= q(x)/(1800 x^2 (1+x)^10 (2+x)^10))
    H(x) = trigamma(x) - R(x)                 satisfies g(x) - g(x+1) = (2/x^2) H(x)

Both rational parts are held as exact partial-fraction forms, canonical and
proper (merged c/(x+a)^m terms, no polynomial part), and differentiated in
closed form: the k-th derivative of a rational part is one
`eval_exact(x, k)` call, which scales each c/(x+a)^m to
(-1)^k (m)_k c/(x+a)^(m+k) inside its integer Horner sum.  Derivatives of
the transcendental part use the exact Leibniz expansion of d^k[trigamma^2]:
its sum, the propagated radius and the exact rational part are formed in
integers at one dyadic scale, so an enclosure radius is the polygamma balls'
radii carried exactly through the expansion, plus one final rounding (an H
cell likewise).  Every psi^(m)(x) they read comes from a `_Jet` of x, which
fills each precision once, with one joint `polygamma` series of all its orders.
`cm_scan` passes one jet per grid point.  The partial fractions of B are
memoised on p, the value they read, like every exact memo (see `replay`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import (PartialFractionForm, _over_lcm, as_positive_fraction,
                      pfd_decompose)
from .ball import Ball
from .constants import (BOUND_DEN_FACTORS, SCALE_P, SourceConstants,
                        constants_or_default)
from .errors import DomainError, PrecisionError
from .polygamma import polygamma

#: g has competing ~x^-4 terms; far below this the cancellation outgrows any
#: reasonable precision, so reject by default.
MIN_X = Fraction(1, 2 ** 20)

#: Leibniz needs polygamma orders up to k+2; keep within the supported range.
MAX_DERIVATIVE_ORDER = 12

#: Highest precision a retry may double up to (scan cells and g/H values).
ESCALATION_CAP_BITS = 4096


@lru_cache(maxsize=4)
def _bound_pf(p) -> PartialFractionForm:
    """Exact partial fractions of B(x) = p(x)/(900 x^4 (x+1)^10), p a Poly."""
    return pfd_decompose(p * Fraction(1, SCALE_P), BOUND_DEN_FACTORS)


def bound_exact(x, constants: SourceConstants | None = None) -> Fraction:
    """B(x) as an exact rational."""
    p = constants_or_default(constants).p
    return _bound_pf(p).eval_exact(as_positive_fraction(x))


def _escalate(evaluate: Callable[[int], Ball], prec: int,
              done: Callable[[Ball], object]) -> tuple[Ball, int]:
    """evaluate(prec), retried at 2x the precision until done(ball) holds
    or the next step would pass ESCALATION_CAP_BITS.  Returns (ball,
    prec_used)."""
    ball = evaluate(prec)
    while not done(ball) and prec * 2 <= ESCALATION_CAP_BITS:
        prec *= 2
        ball = evaluate(prec)
    return ball, prec


def _value(name: str, derivative, x, prec: int,
           constants: SourceConstants | None) -> Ball:
    """f(x) whose radius is at most |mid| 2^-prec.  The terms of g and H
    cancel, so the terms' precision is escalated until the sum meets the
    target; PrecisionError if it does not at ESCALATION_CAP_BITS."""
    ball, used = _escalate(lambda p: derivative(0, x, p, constants), prec,
                           lambda b: b.within(prec))
    if not ball.within(prec):
        raise PrecisionError(f"{name}({x}) not within 2^-{prec} relative "
                             f"at {used} bits")
    return ball


def g_eval(x, prec: int = 128, constants: SourceConstants | None = None) -> Ball:
    """Enclosure of g(x) = trigamma(x)^2 + tetragamma(x) - B(x) with a
    relative radius of at most 2^-prec."""
    return _value("g", g_derivative, x, prec, constants)


def h_eval(x, prec: int = 128, constants: SourceConstants | None = None) -> Ball:
    """Enclosure of H(x) = trigamma(x) - R(x) with a relative radius of at
    most 2^-prec."""
    return _value("H", h_derivative, x, prec, constants)


#: cell k of each kind reads psi orders 1..k + this (g: k + 2, H: k + 1)
_TOP_ORDER_OVER_K = {"g": 2, "H": 1}


class _Jet(dict):
    """psi^(1..top)(x) = (P_m +/- R_m)/D by precision, as the integers
    (D, P_1..P_top, R_1..R_top), D a power of two for polygamma's dyadic
    balls; a missing precision is filled with one joint series of every order."""

    def __init__(self, x: Fraction, top: int):
        super().__init__()
        self.x, self.top = x, top

    def __missing__(self, prec: int) -> tuple[int, list[int], list[int]]:
        balls = polygamma(tuple(range(1, self.top + 1)), self.x, prec)
        num, den = _over_lcm([b.mid for b in balls] + [b.rad for b in balls])
        scale = self[prec] = den, num[:self.top], num[self.top:]
        return scale


def g_derivative(k: int, x, prec: int = 128,
                 constants: SourceConstants | None = None, *,
                 _jet: _Jet | None = None) -> Ball:
    """Enclosure of the k-th derivative of g at rational x >= MIN_X.

    d^k[trigamma^2] expands by Leibniz into sum_j C(k,j) psi^(1+j) psi^(1+k-j),
    d^k[tetragamma] is psi^(k+2), and the rational part is differentiated in
    closed form through its partial-fraction form.  The orders m = 1..k+2
    are read from _jet, internal to `cm_scan`, which passes the jet of this
    x (trusted as given); without it they come from a fresh jet.

    With every psi^(m) ball written as (P_m +/- R_m)/D over one common
    denominator D = 2^S, which the jet forms once per precision, the sum
    and its radius
    sum_j C(k,j) (|P_a| R_b + R_a |P_b| + R_a R_b) are exact integers over
    D^2 (the j and k-j terms are equal, so each pair is formed once);
    psi^(k+2) and the exact rational part join them and the cell is rounded
    once.
    """
    if not 0 <= k <= MAX_DERIVATIVE_ORDER:
        raise DomainError(f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}")
    x = as_positive_fraction(x)
    if x < MIN_X:
        raise DomainError(f"x below cutoff {MIN_X} rejected (cancellation blow-up)")
    jet = _jet if _jet is not None else _Jet(x, k + _TOP_ORDER_OVER_K["g"])
    den, mids, rads = jet[prec]
    total = rad = 0
    for j in range(k // 2 + 1):
        a, b = j, k - j  # list indices of the orders 1+j and 1+k-j
        c = math.comb(k, j) if a == b else 2 * math.comb(k, j)
        pa, pb, ra, rb = mids[a], mids[b], rads[a], rads[b]
        total += c * pa * pb
        rad += c * (abs(pa) * rb + ra * abs(pb) + ra * rb)
    total += mids[k + 1] * den
    rad += rads[k + 1] * den
    rational_part = _bound_pf(constants_or_default(constants).p).eval_exact(x, k)
    u, v = rational_part.numerator, rational_part.denominator
    den2 = den * den
    return Ball._make(total * v - u * den2, v * den2, rad, den2, prec)


def h_derivative(k: int, x, prec: int = 128,
                 constants: SourceConstants | None = None, *,
                 _jet: _Jet | None = None) -> Ball:
    """Enclosure of the k-th derivative of H at rational x > 0: psi^(k+1),
    read from _jet as in `g_derivative`, minus the exact rational part u/v,
    as (P_(k+1) v - u D)/(D v) with the radius R_(k+1)/D, rounded once."""
    if not 0 <= k <= MAX_DERIVATIVE_ORDER:
        raise DomainError(f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}")
    x = as_positive_fraction(x)
    jet = _jet if _jet is not None else _Jet(x, k + _TOP_ORDER_OVER_K["H"])
    den, mids, rads = jet[prec]
    rational_part = constants_or_default(constants).remainder_expansion.eval_exact(x, k)
    u, v = rational_part.numerator, rational_part.denominator
    return Ball._make(mids[k] * v - u * den, den * v, rads[k], den, prec)


class TelescopingReport(NamedTuple):
    """Numerical verdict of g(x) - g(x+1) == (2/x^2) H(x) at one point."""

    x: Fraction
    lhs: Ball
    rhs: Ball
    gap: Fraction
    combined_radius: Fraction

    @property
    def passed(self) -> bool:
        return self.gap <= self.combined_radius

    def detail(self) -> str:
        verdict = "overlap" if self.passed else "DISJOINT"
        return (f"x={self.x}: g(x)-g(x+1) = {self.lhs}; (2/x^2)H(x) = {self.rhs}; "
                f"gap {float(self.gap):.3e} vs radii {float(self.combined_radius):.3e} "
                f"-> {verdict}")


def telescoping_identity_check(x, prec: int = 192,
                               constants: SourceConstants | None = None) -> TelescopingReport:
    """Check g(x) - g(x+1) against (2/x^2) H(x) as overlapping enclosures."""
    x = as_positive_fraction(x)
    lhs = g_eval(x, prec, constants) - g_eval(x + 1, prec, constants)
    rhs = h_eval(x, prec, constants) * (2 / x ** 2)
    return TelescopingReport(x, lhs, rhs, abs(lhs.mid - rhs.mid),
                             lhs.rad + rhs.rad)
