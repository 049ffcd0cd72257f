"""Grid-based complete-monotonicity scans.

Each cell (derivative order k, grid point x) gets a three-valued verdict for
the sign of (-1)^k f^(k)(x): "positive", "negative", or "indeterminate".  An
enclosure that straddles zero is retried up the precision ladder (target,
2x, 4x, ... up to a cap) and only then reported indeterminate; a sign is
never coerced.  A single negative verdict marks the whole scan failed: this
is the desk-scale falsification surface for the monotonicity claims.  The
k = 0 cells of the g scan are the inequality psi'(x)^2 + psi''(x) > B(x).

The scan runs with x as the outer loop.  Each grid point gets one polygamma
jet per precision it uses: psi^(m)(x) is computed once per order and shared
by every cell of that point, and an escalated cell fills the jet of its
higher precision.  The report still lists its entries k-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from mpmath import mp

from . import bounds
from .algebra import as_fraction
from .ball import Ball, _mpf_tuple_to_fraction, round_nearest
from .constants import SourceConstants
from .errors import DomainError
from .reporting import frac_str, stable_json_dumps

ESCALATION_CAP_BITS = 4096

#: Largest grid a scan accepts: at k <= 8 and 256 bits this is already
#: about 10^5 cells, minutes of work.
MAX_GRID_POINTS = 10_000

_KINDS: dict[str, Callable] = {
    "g": bounds.g_derivative,
    "H": bounds.h_derivative,
}


@dataclass(frozen=True)
class GridSpec:
    """A finite list of positive rational evaluation points."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.points:
            raise DomainError("grid must be nonempty")
        _check_grid_size(len(self.points))
        if any(p <= 0 for p in self.points):
            raise DomainError("grid points must be positive")

    @classmethod
    def explicit(cls, points: Iterable) -> "GridSpec":
        return cls(tuple(sorted(as_fraction(p) for p in points)))

    @classmethod
    def geometric(cls, start, ratio, count: int) -> "GridSpec":
        """start * ratio^j for j = 0..count-1, exact rationals."""
        start = as_fraction(start)
        ratio = as_fraction(ratio)
        if count < 1 or ratio <= 0:
            raise DomainError("need count >= 1 and ratio > 0")
        _check_grid_size(count)
        pts = [start * ratio ** j for j in range(count)]
        return cls.explicit(pts)

    @classmethod
    def geometric_span(cls, start, stop, count: int) -> "GridSpec":
        """count log-spaced points from start to stop, inclusive.

        Interior points are rounded to 24-bit dyadic rationals (the exact
        common ratio is usually irrational); the endpoints stay exact.
        """
        start = as_fraction(start)
        stop = as_fraction(stop)
        if start <= 0 or stop <= 0:
            raise DomainError("grid points must be positive")
        _check_grid_size(count)
        if count < 2:
            return cls.explicit([start])
        pts = [start]
        with mp.workprec(96):
            la = mp.log(mp.mpf(start.numerator)) - mp.log(mp.mpf(start.denominator))
            lb = mp.log(mp.mpf(stop.numerator)) - mp.log(mp.mpf(stop.denominator))
            for j in range(1, count - 1):
                v = mp.e ** (la + (lb - la) * j / (count - 1))
                pts.append(round_nearest(_mpf_tuple_to_fraction(v._mpf_), 24)[0])
        pts.append(stop)
        return cls.explicit(pts)


def _check_grid_size(count: int) -> None:
    if count > MAX_GRID_POINTS:
        raise DomainError(f"grid of {count} points exceeds the limit of "
                          f"{MAX_GRID_POINTS} points")


def default_grid() -> GridSpec:
    """25 log-spaced points from 1/16 to 64: spans the cancellation-hard
    small-x region and the tiny-margin large-x region in seconds."""
    return GridSpec.geometric_span(Fraction(1, 16), Fraction(64), 25)


@dataclass(frozen=True)
class ScanEntry:
    k: int
    x: Fraction
    ball: Ball
    verdict: str  # sign of (-1)^k f^(k)(x)
    prec_used: int

    def to_json_dict(self) -> dict:
        return {"k": self.k, "x": frac_str(self.x), "mid": self.ball.decimal_str(),
                "rad": self.ball.radius_str(), "verdict": self.verdict,
                "prec_used": self.prec_used}


@dataclass(frozen=True)
class CmScanReport:
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
            lines.append(f"{e.k},{frac_str(e.x)},{e.ball.decimal_str()},"
                         f"{e.ball.radius_str()},{e.verdict}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        s = self.summary()
        lines = [f"cm-scan {s['kind']}: k <= {s['k_max']}, {s['cells']} cells, "
                 f"target {s['target_bits']} bits"]
        for e in self.entries:
            if e.verdict != "positive":
                lines.append(f"  [{e.verdict}] k={e.k} x={frac_str(e.x)} -> {e.ball}")
        lines.append(f"negative: {s['negative']}, indeterminate: "
                     f"{s['indeterminate']}, max k fully verified: {s['max_k_verified']}")
        lines.append("result: " + ("FAIL" if self.failed else "PASS"))
        return "\n".join(lines) + "\n"


def _certified_sign(evaluate: Callable[[int], Ball],
                    prec: int) -> tuple[int, Ball, int]:
    """Evaluate at prec bits, escalating 2x per retry until the sign is
    determined or ESCALATION_CAP_BITS is passed.  Returns (sign, ball,
    prec_used)."""
    ball = evaluate(prec)
    while ball.sign() == 0 and prec * 2 <= ESCALATION_CAP_BITS:
        prec *= 2
        ball = evaluate(prec)
    return ball.sign(), ball, prec


class _Jet(dict):
    """psi^(m)(x) at prec bits by order m, each order computed on first use."""

    def __init__(self, x: Fraction, prec: int):
        super().__init__()
        self.x, self.prec = x, prec

    def __missing__(self, m: int) -> Ball:
        ball = self[m] = bounds.polygamma(m, self.x, self.prec)
        return ball


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
        jets: dict[int, _Jet] = {}  # precision -> jet at x
        column = []
        for k in range(k_max + 1):
            flip = -1 if k % 2 else 1
            sign, ball, used = _certified_sign(
                lambda p, k=k, x=x, jets=jets: deriv(
                    k, x, p, constants,
                    _psi=jets.setdefault(p, _Jet(x, p))), prec)
            signed = sign * flip
            verdict = ("positive" if signed > 0
                       else "negative" if signed < 0 else "indeterminate")
            column.append(ScanEntry(k, x, ball, verdict, used))
        columns.append(column)
    entries = tuple(e for row in zip(*columns) for e in row)  # k-major
    return CmScanReport(kind, k_max, prec, entries)
