"""Loader for the transcribed exact constants (single source of truth).

The constants live in ``data/source_constants.txt``; the file documents its
own line-oriented grammar ([poly NAME] / [pf NAME] / [values NAME] sections
holding exact rationals).  Everything downstream (the bound functions, the
kernel build, the derivative-chain fixtures, the initial-value table)
reads from this one file, so a transcription error is caught by the exact
identity tests instead of propagating silently.

Every rational token goes through `algebra.parse_rational`, the reader of
command-line arguments, so it obeys the same MAX_POINT_BITS limit.  Every
integer token is bounded by the file's structure: a [poly] power above
Q_DEGREE (21, the degree of q) is rejected before it sizes a coefficient
list, a theta block exponent above MAX_BLOCK_EXPONENT (3) is rejected, and
the remainder's (shift, order) pairs must be exactly the 22 slots of
REMAINDER_DEN_FACTORS, so no shift or order reaches an evaluation.  A
section that no constant reads, such as a misspelt duplicate of a table,
is rejected.  A malformed file raises ConstantsFormatError naming the file
and the line or section, and `constants_or_default` is the one place a
missing constants argument becomes the packaged file.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .algebra import (ExpPoly, Frozen, PartialFractionForm,
                      PartialFractionTerm, Poly, parse_rational)
from .errors import ConstantsFormatError, DomainError

DEFAULT_CONSTANTS_PATH = Path(__file__).parent / "data" / "source_constants.txt"

# Denominator structure of the two displayed rational functions:
#   B(x) = p(x) / (SCALE_P * x^4 (x+1)^10)
#   R(x) = q(x) / (SCALE_Q * x^2 (1+x)^10 (2+x)^10)
SCALE_P = 900
BOUND_DEN_FACTORS = ((0, 4), (1, 10))
SCALE_Q = 1800
REMAINDER_DEN_FACTORS = ((0, 2), (1, 10), (2, 10))

#: The degree of q, and the highest power a [poly] line may carry.
Q_DEGREE = 21

# The kernel normalization: H(x) = (1/KERNEL_SCALE) * integral of
# theta(t) e^(-(x+2)t)/(e^t - 1);  KERNEL_SCALE = SCALE_Q * 9! and the
# exponent lift below shifts every decaying integrand term into e^(k t),
# k >= 0, territory before multiplying out.
KERNEL_SCALE = 653184000
KERNEL_LIFT = 2

#: theta's top block is e^((1+KERNEL_LIFT)t), and every later stage divides
#: e^t out, so no block of a theta display has a higher exponent.
MAX_BLOCK_EXPONENT = KERNEL_LIFT + 1

CHAIN_LENGTHS = {"theta": 10, "theta1": 10, "theta2": 9}


class SourceConstants(Frozen):
    """All transcribed exact fixtures, parsed and assembled.

    Immutable; equality and hash are by identity, because the loader caches
    one instance per file and the bounds caches key on it.
    """

    __slots__ = ("p", "q", "remainder_expansion", "theta", "theta_prime",
                 "theta1", "theta1_prime", "theta2", "theta2_d9",
                 "initial_values", "source_path")

    p: Poly
    q: Poly
    remainder_expansion: PartialFractionForm
    theta: ExpPoly
    theta_prime: ExpPoly
    theta1: ExpPoly
    theta1_prime: ExpPoly
    theta2: ExpPoly
    theta2_d9: ExpPoly
    initial_values: dict[str, dict[int, int]]
    source_path: Path

    def __init__(self, **fields):
        if set(fields) != set(self.__slots__):
            raise TypeError(f"SourceConstants needs exactly the fields {self.__slots__}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def _parse_rational(tok: str, path, lineno: int) -> int | Fraction:
    """An int for an integer token, else a Fraction (see parse_rational)."""
    try:
        return parse_rational(tok)
    except DomainError as exc:
        raise ConstantsFormatError(f"{path}:{lineno}: {exc}") from None


def _parse_int(tok: str, path, where: int | str) -> int:
    """An integer token; ``where`` is a line number or a section name and is
    formatted into the location only when the token is rejected."""
    try:
        return int(tok)
    except ValueError as exc:
        loc = f"{path}:{where}" if isinstance(where, int) else f"{path}: [{where}]"
        raise ConstantsFormatError(f"{loc}: bad integer {tok!r}") from exc


def parse_constants_text(text: str, path="<string>") -> dict[str, object]:
    """Parse the documented grammar into {'poly NAME': Poly, 'pf NAME': ...}."""
    sections: dict[str, object] = {}
    kind = name = None
    poly_coeffs: dict[int, int | Fraction] = {}
    poly_scale: int | Fraction = 1
    pf_terms: list[PartialFractionTerm] = []
    values: dict[str, int] = {}

    def flush():
        nonlocal poly_coeffs, poly_scale, pf_terms, values
        if kind is None:
            return
        key = f"{kind} {name}"
        if key in sections:
            raise ConstantsFormatError(f"{path}: duplicate section [{key}]")
        if kind == "poly":
            top = max(poly_coeffs, default=-1)
            poly = Poly([poly_coeffs.get(i, 0) for i in range(top + 1)])
            sections[key] = poly * poly_scale if poly_scale != 1 else poly
        elif kind == "pf":
            sections[key] = PartialFractionForm(pf_terms)
        else:
            sections[key] = dict(values)
        poly_coeffs, poly_scale, pf_terms, values = {}, 1, [], {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConstantsFormatError(f"{path}:{lineno}: unterminated section header")
            flush()
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] not in ("poly", "pf", "values"):
                raise ConstantsFormatError(f"{path}:{lineno}: bad section header {line!r}")
            kind, name = parts
            continue
        if kind is None:
            raise ConstantsFormatError(f"{path}:{lineno}: entry before any section")
        toks = line.split()
        if kind == "poly":
            if toks[0] == "scale":
                if len(toks) != 2:
                    raise ConstantsFormatError(f"{path}:{lineno}: bad scale line")
                poly_scale = _parse_rational(toks[1], path, lineno)
                continue
            if len(toks) != 2:
                raise ConstantsFormatError(f"{path}:{lineno}: expected '<power> <rational>'")
            power = _parse_int(toks[0], path, lineno)
            if power < 0 or power in poly_coeffs:
                raise ConstantsFormatError(f"{path}:{lineno}: bad or repeated power {power}")
            if power > Q_DEGREE:
                raise ConstantsFormatError(
                    f"{path}:{lineno}: power {power} above {Q_DEGREE}")
            poly_coeffs[power] = _parse_rational(toks[1], path, lineno)
        elif kind == "pf":
            if len(toks) != 3:
                raise ConstantsFormatError(f"{path}:{lineno}: expected '<coeff> <shift> <order>'")
            shift, order = _parse_int(toks[1], path, lineno), _parse_int(toks[2], path, lineno)
            if shift < 0 or order < 1:
                raise ConstantsFormatError(
                    f"{path}:{lineno}: need shift >= 0 and order >= 1")
            pf_terms.append(PartialFractionTerm(
                _parse_rational(toks[0], path, lineno), shift, order))
        else:
            if len(toks) != 2:
                raise ConstantsFormatError(f"{path}:{lineno}: expected '<label> <integer>'")
            if toks[0] in values:
                raise ConstantsFormatError(f"{path}:{lineno}: repeated label {toks[0]!r}")
            values[toks[0]] = _parse_int(toks[1], path, lineno)
    flush()
    return sections


def _assemble_exppoly(sections, base: str, path) -> ExpPoly:
    """The ExpPoly of the [poly BASE.eK] sections, which it takes out of
    sections."""
    blocks: dict[int, Poly] = {}
    prefix = f"poly {base}.e"
    for key in [key for key in sections if key.startswith(prefix)]:
        k = _parse_int(key[len(prefix):], path, key)
        if k < 0:
            raise ConstantsFormatError(f"{path}: [{key}]: negative exponent")
        if k > MAX_BLOCK_EXPONENT:
            raise ConstantsFormatError(
                f"{path}: [{key}]: exponent above {MAX_BLOCK_EXPONENT}")
        if k in blocks:
            raise ConstantsFormatError(f"{path}: [{key}]: repeated exponent {k}")
        blocks[k] = sections.pop(key)
    if not blocks:
        raise ConstantsFormatError(f"{path}: no blocks found for {base!r}")
    return ExpPoly(blocks)


def _take(sections, key: str, path):
    """sections[key], taken out of sections."""
    if key not in sections:
        raise ConstantsFormatError(f"{path}: missing section [{key}]")
    return sections.pop(key)


def load_constants(path: str | Path | None = None) -> SourceConstants:
    """Load and assemble a constants file (default: the packaged one).

    Results are cached on the resolved path, so every spelling of one file
    gives the same object.  The packaged file stays cached for the life of
    the process; other files share a small LRU cache keyed on the path and
    the file's text, so a file rewritten in place is parsed again.
    """
    if path is not None:
        resolved = Path(path).resolve()
        if resolved != DEFAULT_CONSTANTS_PATH.resolve():
            return _load_other(resolved, _read_text(resolved))
    return _load_default()


def constants_or_default(constants: SourceConstants | None) -> SourceConstants:
    """constants, or the packaged constants when it is None."""
    return constants if constants is not None else load_constants()


def _read_text(path: Path) -> str:
    """The file's text as UTF-8, whatever the locale's encoding."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConstantsFormatError(f"{path}: not UTF-8 text ({exc.reason} "
                                   f"at byte {exc.start})") from None


@lru_cache(maxsize=1)
def _load_default() -> SourceConstants:
    return _load_file(DEFAULT_CONSTANTS_PATH, _read_text(DEFAULT_CONSTANTS_PATH))


@lru_cache(maxsize=8)
def _load_other(path: Path, text: str) -> SourceConstants:
    return _load_file(path, text)


def _load_file(path: Path, text: str) -> SourceConstants:
    sections = parse_constants_text(text, path)
    init: dict[str, dict[int, int]] = {}
    for stage in CHAIN_LENGTHS:
        section = f"values {stage}_init"
        init[stage] = {}
        for label, value in _take(sections, section, path).items():
            order = _parse_int(label, path, section)
            if order in init[stage]:  # one order under two labels, e.g. 5 and 05
                raise ConstantsFormatError(f"{path}: [{section}]: repeated order {order}")
            init[stage][order] = value
        want = set(range(1, CHAIN_LENGTHS[stage] + 1))
        if set(init[stage]) != want:
            raise ConstantsFormatError(
                f"{path}: {stage}_init must list orders {sorted(want)}")
    consts = SourceConstants(
        p=_take(sections, "poly p", path),
        q=_take(sections, "poly q", path),
        remainder_expansion=_take(sections, "pf remainder", path),
        theta=_assemble_exppoly(sections, "theta", path),
        theta_prime=_assemble_exppoly(sections, "theta_prime", path),
        theta1=_assemble_exppoly(sections, "theta1", path),
        theta1_prime=_assemble_exppoly(sections, "theta1_prime", path),
        theta2=_assemble_exppoly(sections, "theta2", path),
        theta2_d9=_assemble_exppoly(sections, "theta2_d9", path),
        initial_values=init,
        source_path=path,
    )
    if sections:  # every section read above was taken out
        raise ConstantsFormatError(f"{path}: unknown section [{next(iter(sections))}]")
    if consts.p.degree != 10 or consts.q.degree != Q_DEGREE:
        raise ConstantsFormatError(f"{path}: p must have degree 10 and q degree {Q_DEGREE}")
    slots = [(a, m) for a, top in REMAINDER_DEN_FACTORS for m in range(1, top + 1)]
    if [(t.shift, t.order) for t in consts.remainder_expansion.terms] != slots:
        raise ConstantsFormatError(
            f"{path}: remainder expansion must have one nonzero term c/(x+a)^m "
            f"for each of the {len(slots)} pairs (a, m) of x^2 (x+1)^10 (x+2)^10")
    return consts
