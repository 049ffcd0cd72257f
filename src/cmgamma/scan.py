"""Grid-based complete-monotonicity scans.

Each cell (derivative order k, grid point x) gets a three-valued verdict for
the sign of (-1)^k f^(k)(x): "positive", "negative", or "indeterminate".  An
enclosure that straddles zero is retried up the precision ladder (target,
2x, 4x, ... up to a cap) and only then reported indeterminate; a sign is
never coerced.  A single negative verdict marks the whole scan failed: this
is the desk-scale falsification surface for the monotonicity claims.  The
k = 0 cells of the g scan are the inequality psi'(x)^2 + psi''(x) > B(x).

The scan runs with x as the outer loop and gives each point one
`bounds._Jet`, so one jet is alive at a time: psi^(m)(x) is computed once
per order and precision and shared by every cell of that point (an
escalated cell fills the entries of its precision); entries stay k-major.

Grids are explicit point lists, exact geometric progressions, or log-spaced
spans whose interior points are rounded to 24-bit dyadics; the span points
are computed in decimal arithmetic with an exact integer check near a
rounding midpoint, so building a grid needs no mpmath.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import bounds
from .algebra import Frozen, MAX_POINT_BITS, as_fraction, fits_point_bits
from .ball import Ball, _dyadic, _scale
from .constants import SourceConstants
from .errors import DomainError
from .reporting import stable_json_dumps

#: Largest grid a scan accepts: at k <= 8 and 256 bits this is already
#: about 10^5 cells, minutes of work.
MAX_GRID_POINTS = 10_000

_SPAN_BITS = 24  # mantissa bits of an interior span point
_SPAN_DIGITS = 50  # decimal digits of the log-space estimate of a span point

_KINDS: dict[str, Callable] = {
    "g": bounds.g_derivative,
    "H": bounds.h_derivative,
}


class GridSpec(Frozen):
    """A finite list of positive rational evaluation points (immutable)."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[Fraction, ...]):
        if not points:
            raise DomainError("grid must be nonempty")
        _check_grid_size(len(points))
        if any(p <= 0 for p in points):
            raise DomainError("grid points must be positive")
        object.__setattr__(self, "points", points)

    def __eq__(self, other):
        if type(other) is not GridSpec:
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"GridSpec(points={self.points!r})"

    @classmethod
    def explicit(cls, points: Iterable) -> "GridSpec":
        return cls(tuple(sorted(as_fraction(p) for p in points)))

    @classmethod
    def geometric(cls, start, ratio, count: int) -> "GridSpec":
        """start * ratio^j for j = 0..count-1, exact rationals.

        The numerator and denominator sizes of the points are convex in j,
        so the first and last points are the largest; both must stay within
        MAX_POINT_BITS, which is checked before any point is built.
        """
        start = as_fraction(start)
        ratio = as_fraction(ratio)
        if count < 1 or ratio <= 0:
            raise DomainError("need count >= 1 and ratio > 0")
        _check_grid_size(count)
        # the last point's numerator is at least rn^(count-1) / sd, and its
        # denominator at least rd^(count-1) / sn: reject before the power
        last_may_fit = all(
            (count - 1) * (r.bit_length() - 1) < MAX_POINT_BITS + s.bit_length()
            for r, s in ((ratio.numerator, start.denominator),
                         (ratio.denominator, start.numerator)))
        if not (fits_point_bits(start) and last_may_fit
                and fits_point_bits(start * ratio ** (count - 1))):
            raise DomainError(f"grid point with a numerator or denominator "
                              f"above {MAX_POINT_BITS} bits")
        pts = [start * ratio ** j for j in range(count)]
        return cls.explicit(pts)

    @classmethod
    def geometric_span(cls, start, stop, count: int) -> "GridSpec":
        """count log-spaced points from start to stop, inclusive.

        Interior point j is start * (stop/start)^(j/(count-1)) rounded to
        the nearest 24-bit dyadic rational, ties to even (the exact value is
        usually irrational); the endpoints stay exact.
        """
        start = as_fraction(start)
        stop = as_fraction(stop)
        if start <= 0 or stop <= 0:
            raise DomainError("grid points must be positive")
        if count < 1:
            raise DomainError("need count >= 1")
        _check_grid_size(count)
        if count < 2:
            return cls.explicit([start])
        return cls.explicit([start] + _span_interior(start, stop, count) + [stop])


def _check_grid_size(count: int) -> None:
    if count > MAX_GRID_POINTS:
        raise DomainError(f"grid of {count} points exceeds the limit of "
                          f"{MAX_GRID_POINTS} points")


def _span_interior(a: Fraction, b: Fraction, count: int) -> list[Fraction]:
    """The 24-bit roundings of a * (b/a)^(j/(count-1)), j = 1..count-2.

    Each point is estimated as exp(ln a + (ln b - ln a) j/(count-1)) in
    50-digit decimal arithmetic, whose ln and exp are correctly rounded.
    With M the largest |ln| of the four integers, the roundings move the
    exponent by at most 15M 10^-49 in all and exp adds half a unit, so the
    estimate is within a relative 20(M + 1) 10^-49 of the exact point.
    That decides the rounding unless the estimate is that close to a
    midpoint between two 24-bit dyadics; the midpoint c is then compared
    with the exact point through integer powers: with j/(count-1) = p/q in
    lowest terms, the point exceeds c exactly when a^(q-p) b^p > c^q.
    """
    ctx = decimal.Context(prec=_SPAN_DIGITS, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    logs = [ctx.ln(n) for n in (a.numerator, a.denominator,
                                 b.numerator, b.denominator)]
    la = ctx.subtract(logs[0], logs[1])
    span = ctx.subtract(ctx.subtract(logs[2], logs[3]), la)
    # relative error of an estimate <= slack / scale
    slack = 20 * (int(max(abs(v) for v in logs)) + 1)
    scale = 10 ** (_SPAN_DIGITS - 1)
    points = []
    for j in range(1, count - 1):
        est = ctx.exp(ctx.add(la, ctx.divide(ctx.multiply(span, j), count - 1)))
        e, num, den = _scale(*est.as_integer_ratio(), _SPAN_BITS)
        m, r = divmod(num, den)  # est = num/den * 2^e, num/den in [2^23, 2^24)
        # the estimate is within num/den * slack/scale < 2^24 slack/scale of
        # the exact scaled point; the midpoint m + 1/2 lies |2r - den|/(2 den) away
        if abs(2 * r - den) * scale > 2 * den * (slack << _SPAN_BITS):
            up = 2 * r > den
        else:
            p, q = Fraction(j, count - 1).as_integer_ratio()
            c = _dyadic(2 * m + 1, e - 1)
            lhs = a.numerator ** (q - p) * b.numerator ** p * c.denominator ** q
            rhs = c.numerator ** q * a.denominator ** (q - p) * b.denominator ** p
            up = lhs > rhs or (lhs == rhs and m % 2 == 1)  # ties to even
        points.append(_dyadic(m + up, e))
    return points


def default_grid() -> GridSpec:
    """25 log-spaced points from 1/16 to 64: spans the cancellation-hard
    small-x region and the tiny-margin large-x region in seconds."""
    return GridSpec.geometric_span(Fraction(1, 16), Fraction(64), 25)


class ScanEntry(NamedTuple):
    k: int
    x: Fraction
    ball: Ball
    verdict: str  # sign of (-1)^k f^(k)(x)
    prec_used: int

    def to_json_dict(self) -> dict:
        return {"k": self.k, "x": str(self.x), "mid": self.ball.decimal_str(),
                "rad": self.ball.radius_str(), "verdict": self.verdict,
                "prec_used": self.prec_used}


class CmScanReport(NamedTuple):
    kind: str
    k_max: int
    prec: int
    entries: tuple[ScanEntry, ...]

    @property
    def negative_count(self) -> int:
        return sum(e.verdict == "negative" for e in self.entries)

    @property
    def indeterminate_count(self) -> int:
        return sum(e.verdict == "indeterminate" for e in self.entries)

    @property
    def failed(self) -> bool:
        return self.negative_count > 0

    @property
    def max_k_verified(self) -> int:
        """Largest k with every grid cell of order <= k positive; -1 if none."""
        best = -1
        for k in range(self.k_max + 1):
            cells = [e for e in self.entries if e.k == k]
            if cells and all(e.verdict == "positive" for e in cells):
                best = k
            else:
                break
        return best

    def summary(self) -> dict:
        return {"kind": self.kind, "k_max": self.k_max,
                "target_bits": self.prec,
                "cells": len(self.entries),
                "negative": self.negative_count,
                "indeterminate": self.indeterminate_count,
                "max_k_verified": self.max_k_verified,
                "failed": self.failed}

    def to_json(self) -> str:
        payload = {"summary": self.summary(),
                   "entries": [e.to_json_dict() for e in self.entries]}
        return stable_json_dumps(payload, "cm_scan")

    def to_csv(self) -> str:
        lines = ["k,x,mid,rad,verdict"]
        for e in self.entries:
            lines.append(f"{e.k},{e.x},{e.ball.decimal_str()},"
                         f"{e.ball.radius_str()},{e.verdict}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        s = self.summary()
        lines = [f"cm-scan {s['kind']}: k <= {s['k_max']}, {s['cells']} cells, "
                 f"target {s['target_bits']} bits"]
        for e in self.entries:
            if e.verdict != "positive":
                lines.append(f"  [{e.verdict}] k={e.k} x={e.x} -> {e.ball}")
        lines.append(f"negative: {s['negative']}, indeterminate: "
                     f"{s['indeterminate']}, max k fully verified: {s['max_k_verified']}")
        lines.append("result: " + ("FAIL" if self.failed else "PASS"))
        return "\n".join(lines) + "\n"


def _certified_sign(evaluate: Callable[[int], Ball],
                    prec: int) -> tuple[int, Ball, int]:
    """Evaluate at prec bits, escalating 2x per retry until the sign is
    determined or bounds.ESCALATION_CAP_BITS is passed.  Returns (sign, ball,
    prec_used)."""
    ball, prec = bounds._escalate(evaluate, prec, Ball.sign)
    return ball.sign(), ball, prec


def cm_scan(kind: str, k_max: int, grid: GridSpec | None = None,
            prec: int = 256,
            constants: SourceConstants | None = None) -> CmScanReport:
    """Sign-check (-1)^k f^(k)(x) for f in {g, H} over all k <= k_max and x,
    starting each cell at prec bits."""
    if kind not in _KINDS:
        raise DomainError(f"unknown scan kind {kind!r}; expected one of {sorted(_KINDS)}")
    if not 0 <= k_max <= bounds.MAX_DERIVATIVE_ORDER:
        raise DomainError(f"k_max must be in 0..{bounds.MAX_DERIVATIVE_ORDER}")
    grid = grid if grid is not None else default_grid()
    deriv = _KINDS[kind]
    columns = []
    for x in grid.points:
        jet = bounds._Jet(x)
        column = []
        for k in range(k_max + 1):
            flip = -1 if k % 2 else 1
            sign, ball, used = _certified_sign(
                lambda p, k=k, x=x, jet=jet: deriv(k, x, p, constants, _jet=jet),
                prec)
            signed = sign * flip
            verdict = ("positive" if signed > 0
                       else "negative" if signed < 0 else "indeterminate")
            column.append(ScanEntry(k, x, ball, verdict, used))
        columns.append(column)
    entries = tuple(e for row in zip(*columns) for e in row)  # k-major
    return CmScanReport(kind, k_max, prec, entries)
