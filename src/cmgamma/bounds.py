"""The numeric layer: B, g and H, their derivatives and the telescoping check.

    B(x) = p(x) / (900 x^4 (x+1)^10)          the rational lower bound
    g(x) = trigamma(x)^2 + tetragamma(x) - B(x)
    R(x) = the 22-term partial-fraction remainder (= q(x)/(1800 x^2 (1+x)^10 (2+x)^10))
    H(x) = trigamma(x) - R(x)                 satisfies g(x) - g(x+1) = (2/x^2) H(x)

g and H are the two rows of `_ROWS`: psi products and psi orders used alone,
minus a rational part held as an exact canonical partial-fraction form, whose
k-th derivative is one closed-form `eval_exact(x, k)` call.  One evaluator,
`_cell`, forms f^(k)(x) from a row by the Leibniz rule in integers at one
dyadic scale, so a radius is the polygamma balls' radii carried exactly
through the expansion, plus one final rounding.  Every psi^(m)(x) it reads
comes from a `_Jet` of x, which fills each precision once, with one joint
`polygamma` series of all its orders; `cm_scan` passes one jet per grid
point.  The partial fractions of B are memoised on p, the value they read,
like every exact memo (see `replay`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import (PartialFractionForm, _over_lcm, as_positive_fraction,
                      pfd_decompose)
from .ball import MAX_PREC, Ball
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
ESCALATION_CAP_BITS = MAX_PREC


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


def _value(kind: str, x, prec: int, constants: SourceConstants | None) -> Ball:
    """f(x) whose radius is at most |mid| 2^-prec.  The terms of g and H
    cancel, so the terms' precision is escalated until the sum meets the
    target; PrecisionError if it does not at ESCALATION_CAP_BITS."""
    ball, used = _escalate(lambda p: _cell(kind, 0, x, p, constants, None),
                           prec, lambda b: b.within(prec))
    if not ball.within(prec):
        raise PrecisionError(f"{kind}({x}) not within 2^-{prec} relative "
                             f"at {used} bits")
    return ball


def g_eval(x, prec: int = 128, constants: SourceConstants | None = None) -> Ball:
    """Enclosure of g(x) = trigamma(x)^2 + tetragamma(x) - B(x) with a
    relative radius of at most 2^-prec."""
    return _value("g", x, prec, constants)


def h_eval(x, prec: int = 128, constants: SourceConstants | None = None) -> Ball:
    """Enclosure of H(x) = trigamma(x) - R(x) with a relative radius of at
    most 2^-prec."""
    return _value("H", x, prec, constants)


class _Row(NamedTuple):
    """f = sum psi^(a) psi^(b) + sum psi^(a) - rational part, for x >= min_x."""

    min_x: Fraction
    products: tuple[tuple[int, int], ...]  # the (a, b) of each psi^(a) psi^(b)
    alone: tuple[int, ...]  # each a of a psi^(a) used alone
    rational: Callable[[SourceConstants], PartialFractionForm]

    @property
    def top(self) -> int:  # cell k reads the psi orders 1..k + top
        return max(self.alone + sum(self.products, ()))


_ROWS = {"g": _Row(MIN_X, ((1, 1),), (2,), lambda c: _bound_pf(c.p)),
         "H": _Row(Fraction(0), (), (1,), lambda c: c.remainder_expansion)}


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


def _cell(kind: str, k: int, x, prec: int, constants: SourceConstants | None,
          jet: _Jet | None) -> Ball:
    """f^(k)(x), f the row `kind`: with psi^(m) = (P_m +/- R_m)/D, the Leibniz
    sum d^k[psi^(a) psi^(b)] = sum_j C(k,j) P_(a+j) P_(b+k-j) and its radius
    sum_j C(k,j) (|P| R' + R |P'| + R R') are exact integers over D^2, psi^(a)
    alone gives P_(a+k) over D; minus the exact rational part, rounded once."""
    row = _ROWS[kind]
    if type(k) is not int or not 0 <= k <= MAX_DERIVATIVE_ORDER:  # bool, float
        raise DomainError(f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}")
    x = as_positive_fraction(x)
    if x < row.min_x:
        raise DomainError(f"x below cutoff {row.min_x} rejected (cancellation blow-up)")
    den, mids, rads = (jet if jet is not None else _Jet(x, k + row.top))[prec]
    scale = den if row.products else 1  # products are over D^2, orders alone over D
    total = rad = 0
    for a, b in row.products:  # the list index of order m is m - 1
        for j in range(k + 1):
            c = math.comb(k, j)
            pa, pb = mids[a + j - 1], mids[b + k - j - 1]
            ra, rb = rads[a + j - 1], rads[b + k - j - 1]
            total += c * pa * pb
            rad += c * (abs(pa) * rb + ra * abs(pb) + ra * rb)
    for a in row.alone:
        total += mids[a + k - 1] * scale
        rad += rads[a + k - 1] * scale
    rational_part = row.rational(constants_or_default(constants)).eval_exact(x, k)
    u, v = rational_part.numerator, rational_part.denominator
    den *= scale
    return Ball._make(total * v - u * den, v * den, rad, den, prec)


def g_derivative(k: int, x, prec: int = 128,
                 constants: SourceConstants | None = None, *,
                 _jet: _Jet | None = None) -> Ball:
    """Enclosure of the k-th derivative of g at rational x >= MIN_X.  The psi
    orders are read from _jet, internal to `cm_scan`, which passes the jet
    of this x (trusted as given); without it they come from a fresh jet."""
    return _cell("g", k, x, prec, constants, _jet)


def h_derivative(k: int, x, prec: int = 128,
                 constants: SourceConstants | None = None, *,
                 _jet: _Jet | None = None) -> Ball:
    """Enclosure of the k-th derivative of H at rational x > 0,
    psi^(k+1) - R^(k)(x), with psi^(k+1) read as in `g_derivative`."""
    return _cell("H", k, x, prec, constants, _jet)


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
