"""Independent reference values for the scan cells.

The transcendental part comes from mpmath's own polygamma (`mp.psi`) at
at least twice the working precision of the scan; the rational part is
differentiated exactly with sympy polynomials from the collapsed forms

    B(x) = p(x) / (900 x^4 (x+1)^10)
    R(x) = q(x) / (1800 x^2 (x+1)^10 (x+2)^10)

so neither cmgamma's polygamma series, its Ball type nor its partial
fractions are involved.  Only p and q are read from the constants file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy
from mpmath import mp

_X = sympy.Symbol("x")

# kind -> (polynomial name, scale, ((shift, power), ...)) of the rational part
RATIONAL_PARTS = {
    "g": ("p", 900, ((0, 4), (1, 10))),
    "H": ("q", 1800, ((0, 2), (1, 10), (2, 10))),
}

# cmgamma's working precision for psi^(m) is target + 32 + 16 m bits
_BASE_GUARD_BITS = 32
_GUARD_BITS_PER_ORDER = 16


def read_poly(text: str, name: str) -> list[Fraction]:
    """Coefficients (index = power) of one [poly NAME] block of a constants file."""
    coeffs: dict[int, Fraction] = {}
    scale = Fraction(1)
    inside = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == f"[poly {name}]"
            continue
        if inside and line:
            key, value = line.split()
            if key == "scale":
                scale = Fraction(value)
            else:
                coeffs[int(key)] = Fraction(value)
    if not coeffs:
        raise ValueError(f"no [poly {name}] block")
    return [scale * coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


class RationalDerivatives:
    """k-th derivatives of N(x) / (c * prod (x+s)^e), exact at rational x.

    Uses d/dx [N / prod (x+s)^e] = [N' L - N sum e L/(x+s)] / prod (x+s)^(e+1)
    with L = prod (x+s), so the k-th numerator is a polynomial and every
    value is an exact rational.
    """

    def __init__(self, numerator: list[Fraction], scale: int,
                 factors: tuple[tuple[int, int], ...]):
        self._scale = scale
        self._factors = factors
        self._nums = [sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                  for c in reversed(numerator)], _X, domain="QQ")]
        linear = [sympy.Poly(_X + s, _X, domain="QQ") for s, _ in factors]
        self._full = sympy.prod(linear)  # L
        self._cofactors = [sympy.div(self._full, f)[0] for f in linear]  # L/(x+s)

    def _numerator(self, k: int):
        while len(self._nums) <= k:
            j = len(self._nums) - 1  # the powers are e + j at this step
            num = self._nums[-1]
            acc = num.diff(_X) * self._full
            for (_, e), cofactor in zip(self._factors, self._cofactors):
                acc -= num * (e + j) * cofactor
            self._nums.append(acc)
        return self._nums[k]

    def value(self, k: int, x: Fraction) -> Fraction:
        num = self._numerator(k).eval(sympy.Rational(x.numerator, x.denominator))
        den = self._scale * math.prod((x + s) ** (e + k) for s, e in self._factors)
        return Fraction(int(num.p), int(num.q)) / den


@dataclass(frozen=True)
class Reference:
    """A reference value with an error bound far below the scan's radius."""

    value: object  # mpf
    err: object  # mpf
    bits: int


def oracle_bits(prec_used: int, kmax: int) -> int:
    """Twice cmgamma's largest working precision for a cell at prec_used."""
    top_order = kmax + 2
    return 2 * (prec_used + _BASE_GUARD_BITS + _GUARD_BITS_PER_ORDER * top_order)


def reference_values(kind: str, kmax: int, points: list[Fraction],
                     constants_text: str, bits: int) -> dict[tuple[int, Fraction], Reference]:
    """(-1)^k-unsigned values of f^(k)(x), f in {g, H}, for k <= kmax and x in points."""
    name, scale, factors = RATIONAL_PARTS[kind]
    rational = RationalDerivatives(read_poly(constants_text, name), scale, factors)
    out = {}
    with mp.workprec(bits):
        ulp = mp.mpf(2) ** (16 - bits)  # generous: mpmath is not rigorous
        for x in points:
            xm = mp.mpf(x.numerator) / x.denominator
            psi = {m: mp.psi(m, xm) for m in range(1, kmax + 3)}
            for k in range(kmax + 1):
                if kind == "g":
                    terms = [math.comb(k, j) * psi[1 + j] * psi[1 + k - j]
                             for j in range(k + 1)] + [psi[k + 2]]
                else:
                    terms = [psi[k + 1]]
                r = rational.value(k, x)
                terms.append(-(mp.mpf(r.numerator) / r.denominator))
                value = mp.fsum(terms)
                err = ulp * mp.fsum(abs(t) for t in terms)
                out[(k, x)] = Reference(value, err, bits)
    return out


def check_cell(cell: dict, ref: Reference) -> str | None:
    """Why one exact scan cell is wrong, or None if it is right.

    A cell holds k, verdict and the exact ball mid/rad as Fractions.  It is
    wrong if its verdict is not positive, if its ball does not exclude zero
    on the side the verdict claims, or if the ball misses the reference.
    """
    if cell["verdict"] != "positive":
        return f"verdict {cell['verdict']}"
    mid, rad = cell["mid"], cell["rad"]
    if (-1) ** cell["k"] * mid - rad <= 0:
        return "ball does not certify the positive verdict"
    with mp.workprec(ref.bits):
        gap = abs(mp.mpf(mid.numerator) / mid.denominator - ref.value)
        if gap > mp.mpf(rad.numerator) / rad.denominator + ref.err:
            return f"ball misses the reference by {mp.nstr(gap, 5)}"
    return None


def certainty_bits(cell: dict) -> float:
    """log2(|mid| / rad) of one cell."""
    mid, rad = abs(cell["mid"]), cell["rad"]
    return math.log2(mid.numerator) - math.log2(mid.denominator) \
        - math.log2(rad.numerator) + math.log2(rad.denominator)
