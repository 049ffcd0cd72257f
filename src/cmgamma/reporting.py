"""Deterministic report serialization shared by the replay and scan modules.

All payloads are plain dicts of strings/numbers serialized with sorted keys
and fixed separators, and never embed timestamps, so byte-identical reruns
produce byte-identical reports (CI can diff them).

Decimal output of enclosures comes from `decimal_str`, without importing
mpmath.  It rounds as mpmath 1.3's `nstr(mpf(num) / mpf(den), dps)` does at
prec working bits: each integer and then their quotient to nearest at prec
bits.  It then prints the correctly rounded dps digits of that binary value
in nstr's fixed or scientific layout.  So it prints what nstr prints, except
where nstr's truncating digit path misrounds a near-tie (mpmath's own
comment concedes that its truncation "sometimes kills some instances of
...00001").
"""

from __future__ import annotations

import json

SCHEMA = "cmgamma.report/1"


def stable_json_dumps(payload: dict, kind: str) -> str:
    doc = {"schema": SCHEMA, "kind": kind, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# -- decimal output ----------------------------------------------------------


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2^exp (man > 0) rounded to nearest at prec bits, ties to even,
    as mpmath rounds an integer and a quotient."""
    cut = man.bit_length() - prec
    if cut <= 0:
        return man, exp
    t = man >> (cut - 1)  # the kept bits and the half bit
    if t & 1 and (t & 2 or man & ((1 << (cut - 1)) - 1)):  # past half, or odd
        t += 1
    return t >> 1, exp + cut


def _digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """The dps leading decimal digits of man * 2^exp (man > 0), rounded half
    away from zero, and the decimal exponent of the first one."""
    top = 10 ** dps
    # floor(log10) estimated from the bit length, corrected by comparison
    e10 = (exp + man.bit_length() - 1) * 1233 >> 12
    while True:
        shift = dps - 1 - e10
        x = man * 10 ** shift if shift >= 0 else man
        x = x << exp + 1 if exp >= -1 else x >> -exp - 1
        if shift < 0:
            x //= 10 ** -shift
        # x = floor(2 v 10^shift) for v = man 2^exp (floors nest), and
        # v 10^shift must have dps digits before the point
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


def decimal_str(num: int, den: int, prec: int, dps: int) -> str:
    """mpmath.nstr(mpf(num) / mpf(den), dps) at prec working bits, with
    exact digits (den > 0, dps >= 1): each integer and then the quotient are
    rounded to nearest at prec bits, and the result has at most dps
    significant digits, rounded half away from zero, in fixed point for
    decimal exponents strictly between min(-(dps // 3), -5) and dps and in
    scientific notation otherwise."""
    if num == 0:
        return "0.0"
    nman, nexp = _round(abs(num), 0, prec)
    dman, dexp = _round(den, 0, prec)
    extra = prec + 2 - nman.bit_length() + dman.bit_length()
    quot, rem = divmod(nman << extra, dman)  # quot >= 2^(prec + 1)
    qman, qexp = _round(quot << 1 | (rem != 0), nexp - dexp - extra - 1, prec)
    digits, exponent = _digits(qman, qexp, dps)
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
