"""Midpoint-radius enclosures over exact dyadic rationals.

A Ball stores an exact Fraction midpoint and an exact nonnegative Fraction
radius; the contract is that the true real value lies in
[mid - rad, mid + rad].  Arithmetic (+, -, *) is performed exactly on the
rationals and therefore never loses containment; to keep numerators and
denominators from growing without bound, results with a nonzero radius are
renormalized to a dyadic midpoint of ~prec significant bits, with the
rounding error pushed into the radius (rounded up).

The only transcendental entry point is exp_of(), which encloses e^q for
rational q via mpmath's outward-rounded interval context and converts the
binary endpoints back to exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath
from mpmath import iv, mp

from .algebra import as_fraction

Rat = Union[int, Fraction]

_RAD_BITS = 16  # mantissa bits kept for radii
_MID_GUARD = 16  # extra mantissa bits kept for midpoints beyond prec


def _dyadic(m: int, e: int) -> Fraction:
    """m * 2^e as an exact Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _scaled(q: Fraction, e: int) -> tuple[int, int]:
    """(N, D) with N/D = q * 2^-e, by shifting without gcd reduction."""
    n, d = q.numerator, q.denominator
    return (n << -e, d) if e <= 0 else (n, d << e)


def _ilog2(q: Fraction) -> int:
    """floor(log2(q)) for q > 0, by integer comparisons."""
    n, d = q.numerator, q.denominator
    k = n.bit_length() - d.bit_length()
    # 2^k <= q  <=>  n >= d * 2^k
    if (n >= d << k) if k >= 0 else (n << -k >= d):
        if (n >= d << (k + 1)) if k + 1 >= 0 else (n << -(k + 1) >= d):
            return k + 1
        return k
    return k - 1


def round_nearest(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Round q to a dyadic with <= bits mantissa bits.

    Returns (value, error_bound); the bound is 0 when the rounding was exact,
    else the half-ulp power of two.
    """
    if q == 0:
        return Fraction(0), Fraction(0)
    e = _ilog2(abs(q)) - bits + 1
    n, d = _scaled(q, e)
    m, r = divmod(n, d)
    if r == 0:
        return q, Fraction(0)
    if 2 * r > d or (2 * r == d and m & 1):  # ties to even
        m += 1
    return _dyadic(m, e), _dyadic(1, e - 1)


def round_up(q: Fraction, bits: int = _RAD_BITS) -> Fraction:
    """Smallest dyadic with <= bits mantissa bits that is >= q (q >= 0)."""
    if q == 0:
        return Fraction(0)
    e = _ilog2(q) - bits + 1
    n, d = _scaled(q, e)
    return _dyadic(-(-n // d), e)


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite interval endpoint")
    return _dyadic(-int(man) if sign else int(man), int(exp))


class Ball:
    """Certified enclosure [mid - rad, mid + rad] with exact rational fields."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid: Rat, rad: Rat = 0, prec: int = 53):
        mid = as_fraction(mid)
        rad = as_fraction(rad)
        if rad < 0:
            raise ValueError("radius must be nonnegative")
        if prec < 8:
            raise ValueError("precision must be at least 8 bits")
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "rad", rad)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("Ball is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, q: Rat, prec: int = 53) -> "Ball":
        """Radius-zero ball around an exact rational (midpoint kept exact)."""
        return cls(as_fraction(q), 0, prec)

    @classmethod
    def from_fraction(cls, q: Rat, prec: int) -> "Ball":
        """Dyadic rounding of q with the rounding error in the radius."""
        mid, err = round_nearest(as_fraction(q), prec + _MID_GUARD)
        return cls(mid, err, prec)

    @classmethod
    def from_endpoints(cls, lo: Rat, hi: Rat, prec: int) -> "Ball":
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        if hi < lo:
            raise ValueError("endpoints out of order")
        return cls._make((lo + hi) / 2, (hi - lo) / 2, prec)

    @classmethod
    def hull(cls, *balls: "Ball") -> "Ball":
        lo = min(b.lower for b in balls)
        hi = max(b.upper for b in balls)
        return cls.from_endpoints(lo, hi, min(b.prec for b in balls))

    @classmethod
    def exp_of(cls, q: Rat, prec: int) -> "Ball":
        """Certified enclosure of e^q for rational q."""
        q = as_fraction(q)
        if q == 0:
            return cls.exact(1, prec)
        saved = iv.prec
        try:
            iv.prec = prec + _MID_GUARD + 8
            val = iv.exp(iv.mpf(q.numerator) / iv.mpf(q.denominator))
            lo_t, hi_t = val._mpi_
        finally:
            iv.prec = saved
        return cls.from_endpoints(_mpf_tuple_to_fraction(lo_t),
                                  _mpf_tuple_to_fraction(hi_t), prec)

    @classmethod
    def _make(cls, mid: Fraction, rad: Fraction, prec: int) -> "Ball":
        """Normalize: exact balls stay exact, others get dyadic compression."""
        if rad == 0:
            return cls(mid, 0, prec)
        mid2, err = round_nearest(mid, prec + _MID_GUARD)
        return cls(mid2, round_up(rad + err), prec)

    # -- interval views ------------------------------------------------------

    @property
    def lower(self) -> Fraction:
        return self.mid - self.rad

    @property
    def upper(self) -> Fraction:
        return self.mid + self.rad

    def is_exact(self) -> bool:
        return self.rad == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Ball":
        if isinstance(other, Ball):
            return Ball._make(self.mid + other.mid, self.rad + other.rad,
                              min(self.prec, other.prec))
        if isinstance(other, (int, Fraction)):
            return Ball._make(self.mid + as_fraction(other), self.rad, self.prec)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad, self.prec)

    def __sub__(self, other) -> "Ball":
        if isinstance(other, Ball):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-as_fraction(other))
        return NotImplemented

    def __rsub__(self, other) -> "Ball":
        return (-self) + other

    def __mul__(self, other) -> "Ball":
        if isinstance(other, Ball):
            mid = self.mid * other.mid
            rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
                   + self.rad * other.rad)
            return Ball._make(mid, rad, min(self.prec, other.prec))
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return Ball._make(self.mid * c, self.rad * abs(c), self.prec)
        return NotImplemented

    __rmul__ = __mul__

    def square(self) -> "Ball":
        return self * self

    # -- predicates ----------------------------------------------------------

    def sign(self) -> int:
        """+1 / -1 when the enclosure is strictly one-signed, else 0."""
        if self.mid - self.rad > 0:
            return 1
        if self.mid + self.rad < 0:
            return -1
        return 0

    def contains(self, value) -> bool:
        if isinstance(value, Ball):
            return self.lower <= value.lower and value.upper <= self.upper
        if isinstance(value, (int, Fraction, str)):
            value = as_fraction(value)
        elif isinstance(value, float):
            value = Fraction(*value.as_integer_ratio())
        elif hasattr(value, "_mpf_"):  # mpmath mpf: exact, no re-rounding
            value = _mpf_tuple_to_fraction(value._mpf_)
        else:
            raise TypeError(f"cannot test containment of {type(value)!r}")
        return self.lower <= value <= self.upper

    def overlaps(self, other: "Ball") -> bool:
        return abs(self.mid - other.mid) <= self.rad + other.rad

    # -- output --------------------------------------------------------------

    def to_mpf(self):
        with mp.workprec(self.prec + _MID_GUARD):
            return mp.mpf(self.mid.numerator) / mp.mpf(self.mid.denominator)

    def decimal_str(self, digits: int | None = None) -> str:
        if digits is None:
            digits = max(6, min(40, int(self.prec * 0.30103)))
        with mp.workprec(max(self.prec, 64) + _MID_GUARD):
            m = mp.mpf(self.mid.numerator) / mp.mpf(self.mid.denominator)
            return mpmath.nstr(m, digits)

    def radius_str(self) -> str:
        if self.rad == 0:
            return "0"
        with mp.workprec(64):
            r = mp.mpf(self.rad.numerator) / mp.mpf(self.rad.denominator)
            return mpmath.nstr(r, 3)

    def __str__(self) -> str:
        return f"{self.decimal_str()} +/- {self.radius_str()}"

    def __repr__(self) -> str:
        return f"Ball({self}, prec={self.prec})"
