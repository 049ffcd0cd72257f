"""Exact rational algebra: polynomials, exponential polynomials, partial fractions.

Everything in this module is exact.  A polynomial is dense (index = power)
and stores integer numerators over one positive common denominator in lowest
terms, so sums, products, evaluation and shifts run on integers and a
``fractions.Fraction`` is made only where a coefficient or a value is handed
out.  An exponential polynomial is a finite sum

    sum_k  p_k(t) * e^(k*t),   k a nonnegative integer, p_k a rational Poly,

differentiated exactly block by block.

The partial-fraction machinery is restricted to denominators that are products
of (x+a)^m with nonnegative integer shifts a, which is all the downstream
code ever needs; this keeps every decomposition exact over the rationals.
A partial-fraction form is canonical and proper: merged terms c/(x+a)^m
with c != 0 and no polynomial part.  It is differentiated in closed form
when it is evaluated (the k-th derivative of c/(x+a)^m is
(-1)^k (m)_k c/(x+a)^(m+k)), and it recomposes over prod (x+a)^M_a in
lowest terms without a polynomial gcd.

Exact values read from outside (command-line arguments, constants-file
tokens) all pass through `parse_rational`, which rejects a numerator or
denominator above MAX_POINT_BITS bits, and a decimal exponent too large for
that limit before 10^exponent is built.  `Frozen` is the base of every
immutable value type in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import DegreeError, DomainError

Rat = Union[int, Fraction]

_ZERO = Fraction(0)


def as_fraction(v) -> Fraction:
    """Coerce ints, strings like '3/4' or '0.25', and Fractions to Fraction.

    A string is read by parse_rational, so it obeys the MAX_POINT_BITS
    limit; ints and Fractions are taken as they are."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(parse_rational(v))
    if isinstance(v, float):
        raise TypeError("refusing to coerce float to exact Fraction; pass a string")
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


def as_positive_fraction(v) -> Fraction:
    """as_fraction(v), which must be > 0 (DomainError otherwise)."""
    x = as_fraction(v)
    if x <= 0:
        raise DomainError("x must be strictly positive")
    return x


#: Largest numerator or denominator, in bits, of an exact value read from
#: outside and of a geometric grid point.  At that size every exact value
#: the package prints stays far below Python's 4300-digit limit on
#: int-to-str conversion.
MAX_POINT_BITS = 512


def fits_point_bits(q: Rat) -> bool:
    """Whether q's numerator and denominator have at most MAX_POINT_BITS bits."""
    return max(q.numerator.bit_length(), q.denominator.bit_length()) <= MAX_POINT_BITS


def parse_rational(text: str) -> Rat:
    """An exact rational read from text such as '3', '-3/4', '0.25' or
    '1e-3': an int for an integer, else a Fraction.

    DomainError if the text is not a rational or if its numerator or
    denominator has more than MAX_POINT_BITS bits.
    """
    try:
        x = int(text)
    except ValueError:
        # Fraction expands 10^exponent before anything could check it; an
        # exponent beyond the digits of the text plus MAX_POINT_BITS leaves
        # more than MAX_POINT_BITS bits in the numerator or denominator
        _, e, exponent = text.lower().rpartition("e")
        try:
            if not e or abs(int(exponent)) <= len(text) + MAX_POINT_BITS:
                x = Fraction(text)
                if fits_point_bits(x):
                    return x
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse {text!r} as an exact rational") from None
    else:
        if x.bit_length() <= MAX_POINT_BITS:
            return x
    raise DomainError(f"exact argument {text!r} with a numerator or "
                      f"denominator above {MAX_POINT_BITS} bits")


class Frozen:
    """Base of the immutable value types: a subclass sets its slots once,
    through object.__setattr__, and they are never rebound or deleted."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Poly(Frozen):
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators over one positive common denominator in
    lowest terms: coefficient i is ``Fraction(num[i], den)``, the numerators
    carry no trailing zeros, gcd(den, *num) == 1, and the zero polynomial is
    ((), 1).  The form is canonical, so ``==`` and ``hash`` are structural.
    ``coeffs`` is the tuple of Fraction coefficients (index = power), built
    on first use.  Instances are immutable.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if type(c) is int else as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        # reduced Fractions over their lcm already have gcd(den, *num) == 1
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list, den: int) -> None:
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _make(cls, num: list, den: int = 1) -> "Poly":
        """Poly with coefficients num[i]/den (den != 0), brought to canonical form."""
        if den != 1:
            if den < 0:
                num, den = [-c for c in num], -den
            g = math.gcd(den, *num)
            if g != 1:
                num, den = [c // g for c in num], den // g
        self = object.__new__(cls)
        self._set(num, den)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def const(cls, c: Rat) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, c: Rat, power: int) -> "Poly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (c,))

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            den = self._den
            object.__setattr__(self, "_coeffs",
                               tuple(Fraction(c, den) for c in self._num))
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        if not self._num:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}" if i == 0 else f"{c}*t^{i}")
        return "Poly(" + " + ".join(parts) + ")"

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return _ZERO

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b, den = self._num, other._num, self._den
        if den != other._den:
            a, b = [c * other._den for c in a], [c * den for c in b]
            den *= other._den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._make(out, den)

    def __neg__(self) -> "Poly":
        return Poly._make([-c for c in self._num], self._den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self._num, other._num
            if not a or not b:
                return Poly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return Poly._make(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return Poly._make([other.numerator * a for a in self._num],
                              other.denominator * self._den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Rat) -> Fraction:
        """Exact Horner evaluation: with x = n/d, one integer Horner sum
        over the numerators and one Fraction at the end."""
        x = as_fraction(x)
        n, d = x.numerator, x.denominator
        acc, dpow = 0, 1
        for c in reversed(self._num):  # sum of num[i] n^i d^(deg-i)
            acc = acc * n + c * dpow
            dpow *= d
        return Fraction(acc * d, self._den * dpow)  # dpow = d^(deg+1)

    def shift(self, c: Rat) -> "Poly":
        """Taylor shift: returns the polynomial q with q(x) = self(x + c).

        With c = u/v, self(x + c) = sum_i num[i] v^(deg-i) (v x + u)^i
        / (den v^deg): an integer Taylor shift by u, then x^j scaled by v^j.
        """
        if not self._num:
            return self
        c = as_fraction(c)
        u, v = c.numerator, c.denominator
        deg = self.degree
        cs = [a * v ** (deg - i) for i, a in enumerate(self._num)]
        _taylor_shift(cs, u)
        return Poly._make([a * v ** j for j, a in enumerate(cs)], self._den * v ** deg)


def _taylor_shift(cs: list, c: int) -> None:
    """In place: cs[i] becomes the x^i coefficient of sum_j cs[j] (x + c)^j.

    Horner's scheme run n - 1 times on integers; after pass i, cs[i] is
    final.
    """
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += c * cs[j + 1]


class ExpPoly(Frozen):
    """Exponential polynomial: finite sum over k >= 0 of p_k(t) * e^(k*t)."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Mapping[int, Poly] = ()):
        clean: dict[int, Poly] = {}
        for k, p in dict(blocks).items():
            if not isinstance(k, int) or k < 0:
                raise ValueError("exponents must be nonnegative integers")
            if not isinstance(p, Poly):
                p = Poly(p)
            if not p.is_zero():
                clean[k] = p
        object.__setattr__(self, "_blocks", clean)

    @classmethod
    def term(cls, k: int, poly: Poly | Iterable[Rat]) -> "ExpPoly":
        return cls({k: poly if isinstance(poly, Poly) else Poly(poly)})

    def blocks(self) -> tuple[tuple[int, Poly], ...]:
        """Blocks as ((exponent, poly), ...) sorted by exponent."""
        return tuple(sorted(self._blocks.items()))

    def block(self, k: int) -> Poly:
        return self._blocks.get(k, Poly.zero())

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self._blocks))

    def is_zero(self) -> bool:
        return not self._blocks

    def __eq__(self, other) -> bool:
        if isinstance(other, ExpPoly):
            return self._blocks == other._blocks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.blocks())

    def __repr__(self) -> str:
        if not self._blocks:
            return "ExpPoly(0)"
        parts = [f"({p!r})*e^{k}t" if k else f"{p!r}" for k, p in self.blocks()]
        return "ExpPoly[" + " + ".join(parts) + "]"

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self._blocks)
        for k, p in other._blocks.items():
            out[k] = out.get(k, Poly.zero()) + p
        return ExpPoly(out)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({k: -p for k, p in self._blocks.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return ExpPoly({k: p * c for k, p in self._blocks.items()})
        return NotImplemented

    __rmul__ = __mul__

    def deriv(self) -> "ExpPoly":
        """Exact derivative: d/dt [p(t) e^(kt)] = (p'(t) + k p(t)) e^(kt).

        Block by block on the integer numerators: the t^i coefficient of
        p' + k p is (i+1) a[i+1] + k a[i] over the block's denominator.
        """
        out = {}
        for k, p in self._blocks.items():
            a = p._num
            num = [(i + 1) * a[i + 1] + k * a[i] for i in range(len(a) - 1)]
            num.append(k * a[-1])
            out[k] = Poly._make(num, p._den)
        return ExpPoly(out)

    def eval_exact_at_zero(self) -> Fraction:
        """Exact value at t = 0 (every e^(k*0) is 1): the sum of the blocks'
        constant numerators over their denominators."""
        num, den = 0, 1
        for p in self._blocks.values():
            num, den = num * p._den + p._num[0] * den, den * p._den
        return Fraction(num, den)

    def shift_exp(self, k: int) -> "ExpPoly":
        """Multiply by e^(k*t): all exponents move up by k."""
        return ExpPoly({j + k: p for j, p in self._blocks.items()})


class PartialFractionTerm(NamedTuple):
    """One term coeff / (x + shift)^order with integer shift >= 0, order >= 1."""

    coeff: Fraction
    shift: int
    order: int


class PartialFractionForm(Frozen):
    """A canonical proper rational function: a sum of coeff/(x+shift)^order
    terms and no polynomial part.

    Terms are merged on (shift, order), zero coefficients dropped, and the
    tuple kept sorted by (shift, order), so equal forms compare equal
    structurally.
    """

    __slots__ = ("terms", "_shift_groups")

    def __init__(self, terms: Iterable[PartialFractionTerm]):
        merged: dict[tuple[int, int], Fraction] = {}
        for t in terms:
            t = PartialFractionTerm(as_fraction(t[0]), int(t[1]), int(t[2]))
            if t.order < 1:
                raise ValueError("partial-fraction order must be >= 1")
            if t.shift < 0:
                raise ValueError("shift must be a nonnegative integer")
            key = (t.shift, t.order)
            merged[key] = merged.get(key, _ZERO) + t.coeff
        canon = tuple(
            PartialFractionTerm(c, s, o)
            for (s, o), c in sorted(merged.items()) if c != 0)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_shift_groups", None)

    def __eq__(self, other) -> bool:
        if isinstance(other, PartialFractionForm):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        bits = []
        for c, a, m in self.terms:
            base = "x" if a == 0 else f"(x+{a})"
            bits.append(f"{c}/{base}^{m}" if m > 1 else f"{c}/{base}")
        return "PF[" + " + ".join(bits or ["0"]) + "]"

    def __add__(self, other: "PartialFractionForm") -> "PartialFractionForm":
        if not isinstance(other, PartialFractionForm):
            return NotImplemented
        return PartialFractionForm(self.terms + other.terms)

    def eval_exact(self, x: Rat, k: int = 0) -> Fraction:
        """Exact k-th derivative at rational x (x must avoid the poles).

        Term by term, d^k/dx^k c/(x+a)^m = (-1)^k (m)_k c/(x+a)^(m+k), with
        the rising factorial (m)_k = m (m+1) ... (m+k-1).  With x = n/d, the
        terms of one shift a with orders lo..hi sum to
        (-1)^k d^(lo+k) P / (L u^(hi+k)), u = n + a d, where P is a Horner
        sum over the integer coefficients c*L*(m)_k (L clears the
        denominators of c); the shifts are combined as integer ratios and
        one Fraction is made at the end.
        """
        x = as_fraction(x)
        n, d = x.numerator, x.denominator
        groups = self._groups()
        for a, _, _, _, _ in groups:
            if n + a * d == 0:
                raise DomainError(f"evaluation at pole x = {x}")
        num, den = 0, 1
        for a, lo, hi, lcm, coeffs in groups:
            u = n + a * d
            acc, dpow = 0, 1
            for m, c in enumerate(coeffs, lo):  # sum of C_m (m)_k d^(m-lo) u^(hi-m)
                acc = acc * u + c * math.perm(m + k - 1, k) * dpow
                dpow *= d
            term_den = lcm * u ** (hi + k)
            num, den = num * term_den + d ** (lo + k) * acc * den, den * term_den
        return Fraction(-num if k % 2 else num, den)

    def _groups(self) -> tuple[tuple[int, int, int, int, tuple[int, ...]], ...]:
        """(shift, lowest order, highest order, L, integer coefficients c*L
        for every order in between), computed once per form."""
        if self._shift_groups is None:
            by_shift: dict[int, dict[int, Fraction]] = {}
            for c, a, m in self.terms:
                by_shift.setdefault(a, {})[m] = c
            groups = []
            for a, cs in by_shift.items():
                lo, hi = min(cs), max(cs)
                lcm = math.lcm(*(c.denominator for c in cs.values()))
                groups.append((a, lo, hi, lcm, tuple(
                    int(cs.get(m, 0) * lcm) for m in range(lo, hi + 1))))
            object.__setattr__(self, "_shift_groups", tuple(groups))
        return self._shift_groups


def pfd_decompose(num: Poly,
                  den_factors: Sequence[tuple[int, int]]) -> PartialFractionForm:
    """Exact partial fractions of num(x) / prod (x+a)^m over distinct shifts.

    Only proper fractions are accepted: deg(num) must be below the total
    denominator degree (split any polynomial part off first).
    """
    shifts = [a for a, _ in den_factors]
    if len(set(shifts)) != len(shifts):
        raise ValueError("denominator shifts must be pairwise distinct")
    for a, m in den_factors:
        if not isinstance(a, int) or a < 0:
            raise ValueError("shifts must be nonnegative integers")
        if m < 1:
            raise ValueError("multiplicities must be >= 1")
    total = sum(m for _, m in den_factors)
    if num.degree >= total:
        raise DegreeError(
            f"numerator degree {num.degree} >= denominator degree {total}")
    # Work on integers: num = N / L with N its numerators, and around x = -a
    # (u = x + a) expand N(u - a) / rest(u) = sum_j s_j u^j, where
    # rest(u) = prod_{b != a} (u + b - a)^m_b.  The u^j coefficient feeds
    # order m - j.  With r = rest(0) != 0 the scaled S_j = s_j r^(j+1) obey
    #     S_j = N_j r^j - sum_{i<j} S_i rest_(j-i) r^(j-i-1),
    # so the only Fraction made per term is S_j / (L r^(j+1)).
    lcm_den, int_num = num._den, num._num
    terms: list[PartialFractionTerm] = []
    for a, m in den_factors:
        num_u = list(int_num)
        _taylor_shift(num_u, -a)
        num_u += [0] * (m - len(num_u))
        rest = [1] + [0] * (m - 1)  # first m coefficients only
        for b, mb in den_factors:
            if b == a:
                continue
            factor = [math.comb(mb, k) * (b - a) ** (mb - k)
                      for k in range(min(mb, m - 1) + 1)]
            prod = [0] * m
            for i, ri in enumerate(rest):
                if ri:
                    for k, fk in enumerate(factor[:m - i]):
                        prod[i + k] += ri * fk
            rest = prod
        r0 = rest[0]
        r_pow = [1]
        for _ in range(m):
            r_pow.append(r_pow[-1] * r0)
        scaled: list[int] = []
        for j in range(m):
            s = num_u[j] * r_pow[j]
            for i in range(j):
                s -= scaled[i] * rest[j - i] * r_pow[j - i - 1]
            scaled.append(s)
            if s:
                coeff = Fraction(s, lcm_den * r_pow[j + 1])
                terms.append(PartialFractionTerm(coeff, a, m - j))
    return PartialFractionForm(terms)


def pfd_recompose(form: PartialFractionForm) -> tuple[Poly, Poly]:
    """Collapse a form to one fraction num/den in lowest terms.

    den = prod (x+a)^M_a over the form's shifts a, M_a the highest order at
    a, so den is monic with integer coefficients (den = 1 when the form has
    no terms).  The form is canonical, so the coefficient of (x+a)^-M_a is
    nonzero; it is the only term left in num(-a), so num(-a) != 0 and num
    and den are coprime.
    """
    max_order: dict[int, int] = {}
    for t in form.terms:
        max_order[t.shift] = max(max_order.get(t.shift, 0), t.order)
    den = Poly.const(1)
    for a, m in sorted(max_order.items()):
        den = den * Poly((a, 1)) ** m
    num = Poly.zero()
    for c, a, m in form.terms:
        cof = Poly.const(c)
        for b, mb in sorted(max_order.items()):
            power = mb - m if b == a else mb
            if power:
                cof = cof * Poly((b, 1)) ** power
        num = num + cof
    return num, den
