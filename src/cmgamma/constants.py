"""Loader for the transcribed exact constants (single source of truth).

The constants live in ``data/source_constants.txt``; the file documents its
own line-oriented grammar ([poly NAME] / [pf NAME] / [values NAME] sections
holding exact rationals).  Everything downstream (the bound functions, the
kernel build, the derivative-chain fixtures, the initial-value table)
reads from this one file, so a transcription error is caught by the exact
identity tests instead of propagating silently.

Each line is read straight into its final types.  Every rational
token goes through `algebra.parse_rational`, the reader of command-line
arguments, so it obeys the same MAX_POINT_BITS limit.  Every integer token
is bounded by the file's structure: a [poly] power above Q_DEGREE (21, the
degree of q) is rejected before it sizes a coefficient list, a block
exponent outside 0..MAX_BLOCK_EXPONENT (3) at its header, and the
remainder's (shift, order) pairs must be exactly the 22 slots of
REMAINDER_DEN_FACTORS, so no shift or order reaches an evaluation.  A
[poly] power or scale line, a [pf] (shift, order) key and a [values] order
appear at most once in their section, and a section once in the file (e00
is e0).  A section that no constant reads, such as a misspelt duplicate of
a table, is rejected.  ConstantsFormatError names the file, and the line
if the error is in one.  The packaged file is loaded once; any other file
is read on every load, and each section is parsed once per distinct text.
`constants_or_default` is the one place a missing constants argument
becomes the packaged file.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .algebra import ExpPoly, Frozen, PartialFractionForm, Poly, parse_rational
from .errors import ConstantsFormatError, DomainError

DEFAULT_CONSTANTS_PATH = (Path(__file__).parent / "data" / "source_constants.txt").resolve()

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

    Immutable; equality and hash are by identity.  The loader caches the
    packaged file's instance; no other cache keys on it.
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


def _int(tok: str, what: str = "integer") -> int:
    """An integer token; what names it in the error."""
    try:
        return int(tok)
    except ValueError:
        raise ConstantsFormatError(f"bad {what} {tok!r}") from None


def _header(line: str) -> str:
    """The canonical key of a header line: 'poly NAME', 'pf NAME' or
    'values NAME'; a block [poly NAME.eK] is keyed 'poly NAME.eK' with K an
    int in 0..MAX_BLOCK_EXPONENT, so e00 and e0 name one section."""
    if not line.endswith("]"):
        raise ConstantsFormatError("unterminated section header")
    parts = line[1:-1].split()
    if len(parts) != 2 or parts[0] not in ("poly", "pf", "values"):
        raise ConstantsFormatError(f"bad section header {line!r}")
    kind, name = parts
    base, dot_e, exponent = name.rpartition(".e")
    if kind == "poly" and dot_e:
        k = _int(exponent, "block exponent")
        if not 0 <= k <= MAX_BLOCK_EXPONENT:
            raise ConstantsFormatError(f"block exponent outside 0..{MAX_BLOCK_EXPONENT}")
        name = f"{base}.e{k}"
    return f"{kind} {name}"


def _entry(kind: str, toks: list[str], items: dict) -> None:
    """Read one entry line of a section into items, its entries so far: a
    [poly] power, a [pf] (shift, order) or a [values] order to its value."""
    if kind == "poly":
        if len(toks) != 2:
            raise ConstantsFormatError("expected '<power> <rational>'")
        power = _int(toks[0])
        if power < 0 or power in items:
            raise ConstantsFormatError(f"bad or repeated power {power}")
        if power > Q_DEGREE:
            raise ConstantsFormatError(f"power {power} above {Q_DEGREE}")
        items[power] = parse_rational(toks[1])
    elif kind == "pf":
        if len(toks) != 3:
            raise ConstantsFormatError("expected '<coeff> <shift> <order>'")
        shift, order = _int(toks[1]), _int(toks[2])
        if shift < 0 or order < 1:
            raise ConstantsFormatError("need shift >= 0 and order >= 1")
        if (shift, order) in items:
            raise ConstantsFormatError(f"repeated term ({shift}, {order})")
        items[shift, order] = (parse_rational(toks[0]), shift, order)
    else:
        if len(toks) != 2:
            raise ConstantsFormatError("expected '<label> <integer>'")
        order = _int(toks[0])
        if order in items:  # one order under two labels, e.g. 5 and 05
            raise ConstantsFormatError(f"repeated order {order}")
        items[order] = _int(toks[1])


def parse_constants_text(text: str, path="<string>") -> dict[str, object]:
    """Parse the documented grammar into {'poly NAME': Poly,
    'pf NAME': PartialFractionForm, 'values NAME': {order: int}}, each
    section's body through `_section`.  An error in a line is raised here,
    once, with the file and the line number in front of the rule's message."""
    lines = text.splitlines()
    heads = [i for i, raw in enumerate(lines)
             if "[" in raw and raw.partition("#")[0].strip().startswith("[")]
    sections: dict[str, object] = {}
    for head, end in zip([-1] + heads, heads + [len(lines)]):  # -1: the preamble
        key = kind = None
        try:
            if head >= 0:
                key = _header(lines[head].partition("#")[0].strip())
                if key in sections:
                    raise ConstantsFormatError(f"duplicate section [{key}]")
                kind = key.partition(" ")[0]
            value = _section(kind, "\n".join(lines[head + 1:end]))
        except (ConstantsFormatError, DomainError) as exc:
            lineno = head + 1 + getattr(exc, "lineno", 0)
            raise ConstantsFormatError(f"{path}:{lineno}: {exc}") from None
        if key is not None:  # a [values] table is a dict, so each load copies it
            sections[key] = dict(value) if kind == "values" else value
    return sections


@lru_cache(maxsize=256)
def _section(kind: str | None, body: str):
    """The value of a section body of kind 'poly' (scale applied), 'pf',
    'values', or None before any header.  Only a success is cached; an
    error carries its line within the body as lineno."""
    items, scale = {}, None
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if kind is None:
                raise ConstantsFormatError("entry before any section")
            if kind == "poly" and toks[0] == "scale":
                if len(toks) != 2:
                    raise ConstantsFormatError("bad scale line")
                if scale is not None:
                    raise ConstantsFormatError("repeated scale line")
                scale = parse_rational(toks[1])
            else:
                _entry(kind, toks, items)
        except (ConstantsFormatError, DomainError) as exc:
            exc.lineno = lineno
            raise
    if kind == "poly":
        cs = [items.get(i, 0) for i in range(max(items, default=-1) + 1)]
        # integer coefficients are already the canonical numerators
        poly = Poly._make(cs) if all(type(c) is int for c in cs) else Poly(cs)
        return poly if scale in (None, 1) else poly * scale
    return PartialFractionForm(items.values()) if kind == "pf" else items


def _assemble_exppoly(sections, base: str, path) -> ExpPoly:
    """The ExpPoly of the [poly BASE.eK] sections, which it takes out of
    sections; their keys were made canonical, and K bounded, at parse."""
    blocks = {k: sections.pop(key) for k in range(MAX_BLOCK_EXPONENT + 1)
              if (key := f"poly {base}.e{k}") in sections}
    if not blocks:
        raise ConstantsFormatError(f"{path}: no blocks found for {base!r}")
    return ExpPoly._make(blocks)  # int exponents in 0..3, canonical Polys


def _take(sections, key: str, path):
    """sections[key], taken out of sections."""
    if key not in sections:
        raise ConstantsFormatError(f"{path}: missing section [{key}]")
    return sections.pop(key)


def load_constants(path: str | Path | None = None) -> SourceConstants:
    """Load and assemble a constants file (default: the packaged one).

    The packaged file is loaded once per process, whatever spelling of its
    path is given.  Any other file is read on every call through the path
    as given and known by its resolved path, which its errors name unless
    that is no regular file (a pipe's /dev/fd/N resolves to no openable
    name); each section is parsed once per distinct text.
    """
    if path is not None:
        resolved = Path(path).resolve()
        if resolved != DEFAULT_CONSTANTS_PATH:
            return _load_file(resolved, path)
    return _load_default()


def constants_or_default(constants: SourceConstants | None) -> SourceConstants:
    """constants, or the packaged constants when it is None."""
    return constants if constants is not None else load_constants()


def _read_text(source: str | Path, path: Path) -> str:
    """The text read through source as UTF-8, whatever the locale's
    encoding; a decoding error names the file as path."""
    try:
        return Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConstantsFormatError(f"{path}: not UTF-8 text ({exc.reason} "
                                   f"at byte {exc.start})") from None


@lru_cache(maxsize=1)
def _load_default() -> SourceConstants:
    return _load_file(DEFAULT_CONSTANTS_PATH, DEFAULT_CONSTANTS_PATH)


def _load_file(resolved: Path, source: str | Path) -> SourceConstants:
    path = resolved if resolved.is_file() else source  # a pipe: named as given
    sections = parse_constants_text(_read_text(source, path), path)
    init: dict[str, dict[int, int]] = {}
    for stage, length in CHAIN_LENGTHS.items():
        init[stage] = _take(sections, f"values {stage}_init", path)
        if set(init[stage]) != set(range(1, length + 1)):
            raise ConstantsFormatError(
                f"{path}: {stage}_init must list orders {list(range(1, length + 1))}")
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
        source_path=resolved,
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
