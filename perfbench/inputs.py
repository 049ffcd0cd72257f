"""Seeded workload inputs: scan grids and constants-file mutants.

Only the inputs depend on the seed; the program under test receives them
as ordinary command-line arguments and files.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

LOG2_LO, LOG2_HI = -4, 6  # the grid spans [1/16, 64]
GRID_LO = Fraction(2) ** LOG2_LO
GRID_HI = Fraction(2) ** LOG2_HI
GRID_BITS = 24  # interior points are dyadics with this many mantissa bits


def _dyadic(v: float, bits: int) -> Fraction:
    """v > 0 rounded to a dyadic rational with `bits` mantissa bits."""
    m, e = math.frexp(v)
    return Fraction(round(m * 2 ** bits)) * Fraction(2) ** (e - bits)


def seeded_grid(seed: int, count: int) -> list[Fraction]:
    """`count` sorted points, log-uniform on [1/16, 64], both endpoints fixed.

    The interior points are stratified: log2 of the range is cut into
    count - 2 equal strata and one point is drawn uniformly (in log2) in
    each, so a seed moves every point but not the grid's overall density,
    and the scan's cost does not swing with the draw.  Each point is
    rounded to a 24-bit dyadic and drawn again on a collision.
    """
    if count < 2:
        raise ValueError("a grid needs both endpoints")
    rng = random.Random(f"grid/{seed}")
    width = (LOG2_HI - LOG2_LO) / (count - 2) if count > 2 else 0
    points = [GRID_LO]
    for j in range(count - 2):
        x = GRID_LO
        while x in points or not GRID_LO < x < GRID_HI:
            x = _dyadic(2.0 ** (LOG2_LO + width * (j + rng.random())), GRID_BITS)
        points.append(x)
    points.append(GRID_HI)
    return points


def grid_arg(points: list[Fraction]) -> str:
    """The grid as `cm-scan --grid` takes it: exact rationals, comma separated."""
    return ",".join(str(p) for p in points)


def integer_coefficient_lines(text: str) -> list[int]:
    """Indices of lines holding an integer polynomial coefficient.

    These are the '<power> <integer>' entries of [poly NAME] sections;
    'scale' lines, partial-fraction terms and value tables are left alone.
    """
    out = []
    in_poly = False
    for i, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            in_poly = line.startswith("[poly ")
            continue
        toks = line.split()
        if in_poly and len(toks) == 2 and toks[0].isdigit() \
                and toks[1].lstrip("-").isdigit():
            out.append(i)
    return out


def seeded_mutants(seed: int, text: str, count: int) -> list[tuple[str, str]]:
    """`count` distinct single-coefficient mutants of a constants file.

    Each changes one integer polynomial coefficient by +1 or -1.  Returns
    (label, mutated text) pairs; the label names the line and the change.
    """
    lines = text.splitlines(keepends=True)
    candidates = [(i, d) for i in integer_coefficient_lines(text) for d in (1, -1)]
    if count > len(candidates):
        raise ValueError(f"only {len(candidates)} single-coefficient mutants exist")
    rng = random.Random(f"mutants/{seed}")
    out = []
    for i, delta in rng.sample(candidates, count):
        power, coeff = lines[i].split("#", 1)[0].split()
        new = int(coeff) + delta
        mutated = lines[:]
        mutated[i] = f"{power} {new}\n"
        out.append((f"line {i + 1}: {power} {coeff} -> {new}", "".join(mutated)))
    return out
