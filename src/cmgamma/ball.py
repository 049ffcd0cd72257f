"""Midpoint-radius enclosures over exact dyadic rationals, and their digits.

A Ball stores an exact Fraction midpoint and an exact nonnegative Fraction
radius; the contract is that the true real value lies in
[mid - rad, mid + rad].  Arithmetic (+, -, *) builds the exact result as
unreduced integer ratios (numerator and denominator products, no gcd) and
therefore never loses containment; a result with a nonzero radius is then
rounded once, to a dyadic midpoint of ~prec significant bits, with the
rounding error pushed into the radius (rounded up).  Exact (radius-0)
results keep their exact rational midpoint.  `Ball.within` is the one
relative-width test.  A Ball has no transcendental functions of its own:
the polygamma module builds its enclosures through Ball._make.

`decimal_str` is the package's one decimal printer: the leading digits of
an exact rational, rounded once, half away from zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .algebra import Frozen, as_fraction
from .errors import DomainError

Rat = Union[int, Fraction]

#: Highest precision, in bits, of a Ball and of every numeric entry point,
#: which all obey `check_prec`.
MAX_PREC = 4096

_RAD_BITS = 16  # mantissa bits kept for radii
_MID_GUARD = 16  # extra mantissa bits kept for midpoints beyond prec

_ZERO = Fraction(0)


def check_prec(prec) -> None:
    """DomainError unless prec is an int (not a bool) from 8 to MAX_PREC."""
    if type(prec) is not int:
        raise DomainError(f"precision {prec!r} is not an integer")
    if prec < 8:
        raise DomainError("precision must be at least 8 bits")
    if prec > MAX_PREC:
        raise DomainError(f"precision above the limit of {MAX_PREC} bits")


def _dyadic(m: int, e: int) -> Fraction:
    """m * 2^e as an exact Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _scale(n: int, d: int, bits: int) -> tuple[int, int, int]:
    """(e, N, D) with 2^(bits-1) <= |N/D| < 2^bits and N/D = (n/d) * 2^-e.

    n != 0 and d > 0; the ratio need not be reduced.  e is found by integer
    comparisons and applied by shifting, without gcd reduction.
    """
    a = abs(n)
    k = a.bit_length() - d.bit_length()  # floor(log2(a/d)) is k or k - 1
    if not ((a >= d << k) if k >= 0 else (a << -k >= d)):
        k -= 1
    e = k - bits + 1
    return (e, n << -e, d) if e <= 0 else (e, n, d << e)


def round_nearest(q: Rat, bits: int, den: int = 1) -> tuple[Fraction, Fraction]:
    """Round q/den to a dyadic with <= bits mantissa bits, ties to even.

    q may be an int or a Fraction and den a positive int; the ratio need not
    be reduced.  Returns (value, error_bound); the bound is 0 when the
    rounding was exact, else the half-ulp power of two.
    """
    if q == 0:
        return _ZERO, _ZERO
    e, n, d = _scale(q.numerator, q.denominator * den, bits)
    m, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and m & 1):  # ties to even
        m += 1
    return _dyadic(m, e), _dyadic(1, e - 1) if r else _ZERO


def round_up(q: Rat, bits: int = _RAD_BITS, den: int = 1) -> Fraction:
    """Smallest dyadic with <= bits mantissa bits that is >= q/den (q >= 0)."""
    if q == 0:
        return _ZERO
    e, n, d = _scale(q.numerator, q.denominator * den, bits)
    return _dyadic(-(-n // d), e)


def _add_ratios(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d as an unreduced ratio."""
    return (a + c, b) if b == d else (a * d + c * b, b * d)


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _bc = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite mpf value")
    return _dyadic(-int(man) if sign else int(man), int(exp))


# -- decimal output ----------------------------------------------------------


def _digits(n: int, d: int, dps: int) -> tuple[str, int]:
    """The dps leading decimal digits of n/d (n, d > 0, not necessarily
    reduced), rounded half away from zero, and the decimal exponent of the
    first one."""
    top = 10 ** dps
    # floor(log10) estimated from the bit lengths, corrected by comparison
    e10 = (n.bit_length() - d.bit_length()) * 1233 >> 12
    while True:
        shift = dps - 1 - e10
        x = (2 * n * 10 ** shift // d if shift >= 0
             else 2 * n // (d * 10 ** -shift))
        # x = floor(2 v 10^shift) for v = n/d, and v 10^shift must have dps
        # digits before the point
        if x >= 2 * top:
            e10 += 1
        elif x < top // 5:
            e10 -= 1
        else:
            break
    q = (x + 1) >> 1  # v 10^shift rounded half up
    if q == top:  # the nines carry into a new leading digit
        q //= 10
        e10 += 1
    return str(q), e10


def decimal_str(q: Fraction, dps: int) -> str:
    """The dps leading digits of q (dps >= 1), rounded once from its exact
    value, half away from zero, in the layout of mpmath's nstr: trailing
    zeros dropped but one kept after the point, fixed point for decimal
    exponents strictly between min(-(dps // 3), -5) and dps, scientific
    notation (`e+N`, `e-N`) otherwise."""
    num = q.numerator
    if num == 0:
        return "0.0"
    digits, exponent = _digits(abs(num), q.denominator, dps)
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    sign = "-" if num < 0 else ""
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


class Ball(Frozen):
    """Certified enclosure [mid - rad, mid + rad] with exact rational fields."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid: Rat, rad: Rat = 0, prec: int = 53):
        mid = as_fraction(mid)
        rad = as_fraction(rad)
        if rad < 0:
            raise ValueError("radius must be nonnegative")
        check_prec(prec)
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "rad", rad)
        object.__setattr__(self, "prec", prec)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_endpoints(cls, lo: Rat, hi: Rat, prec: int) -> "Ball":
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        if hi < lo:
            raise ValueError("endpoints out of order")
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        return cls._make(a * d + c * b, 2 * b * d, c * b - a * d, 2 * b * d, prec)

    @classmethod
    def hull(cls, *balls: "Ball") -> "Ball":
        lo = min(b.lower for b in balls)
        hi = max(b.upper for b in balls)
        return cls.from_endpoints(lo, hi, min(b.prec for b in balls))

    @classmethod
    def _make(cls, mid_num: int, mid_den: int, rad_num: int, rad_den: int,
              prec: int) -> "Ball":
        """Ball of the unreduced ratios mid_num/mid_den and rad_num/rad_den
        (positive denominators, rad_num >= 0): exact balls stay exact, others
        get one dyadic rounding of the midpoint and an upward-rounded radius."""
        if rad_num == 0:
            return cls(Fraction(mid_num, mid_den), 0, prec)
        mid, err = round_nearest(mid_num, prec + _MID_GUARD, mid_den)
        if err:
            rad_num, rad_den = _add_ratios(rad_num, rad_den,
                                           err.numerator, err.denominator)
        return cls(mid, round_up(rad_num, _RAD_BITS, rad_den), prec)

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
        a, b = self.mid.numerator, self.mid.denominator
        r, s = self.rad.numerator, self.rad.denominator
        if isinstance(other, Ball):
            return Ball._make(*_add_ratios(a, b, other.mid.numerator, other.mid.denominator),
                              *_add_ratios(r, s, other.rad.numerator, other.rad.denominator),
                              min(self.prec, other.prec))
        if isinstance(other, (int, Fraction)):
            return Ball._make(*_add_ratios(a, b, other.numerator, other.denominator),
                              r, s, self.prec)
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
        a, b = self.mid.numerator, self.mid.denominator
        r, s = self.rad.numerator, self.rad.denominator
        if isinstance(other, Ball):
            c, d = other.mid.numerator, other.mid.denominator
            u, v = other.rad.numerator, other.rad.denominator
            # |a/b| u/v + |c/d| r/s + (r/s)(u/v)
            rad = _add_ratios(*_add_ratios(abs(a) * u, b * v, abs(c) * r, d * s),
                              r * u, s * v)
            return Ball._make(a * c, b * d, *rad, min(self.prec, other.prec))
        if isinstance(other, (int, Fraction)):
            c, d = other.numerator, other.denominator
            return Ball._make(a * c, b * d, r * abs(c), s * d, self.prec)
        return NotImplemented

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------------

    def within(self, prec: int) -> bool:
        """Whether rad <= |mid| 2^-prec, cross-multiplied in integers."""
        return (self.rad.numerator * self.mid.denominator << prec
                <= abs(self.mid.numerator) * self.rad.denominator)

    def sign(self) -> int:
        """+1 / -1 when the enclosure is strictly one-signed, else 0."""
        a, b = self.mid.numerator, self.mid.denominator
        # |mid| > rad, cross-multiplied
        if abs(a) * self.rad.denominator > self.rad.numerator * b:
            return 1 if a > 0 else -1
        return 0

    # -- output --------------------------------------------------------------

    def decimal_str(self) -> str:
        """The midpoint to about prec bits of decimal digits (6 to 40)."""
        return decimal_str(self.mid, max(6, min(40, self.prec * 30103 // 100000)))

    def radius_str(self) -> str:
        """The radius to 3 digits."""
        return "0" if self.rad == 0 else decimal_str(self.rad, 3)

    def __str__(self) -> str:
        return f"{self.decimal_str()} +/- {self.radius_str()}"

    def __repr__(self) -> str:
        return f"Ball({self}, prec={self.prec})"
