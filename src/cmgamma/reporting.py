"""Deterministic report serialization shared by the replay and scan modules.

All payloads are plain dicts of strings/numbers serialized with sorted keys
and fixed separators, and never embed timestamps, so byte-identical reruns
produce byte-identical reports (CI can diff them).

Decimal output of enclosures comes from `decimal_str`, an integer port of
mpmath 1.3's `nstr` (`libmp.libmpf.to_str` and `to_digits_exp`) applied to
`mpf(num) / mpf(den)` at a given working precision.  The port reproduces
every rounding of that path (the binary roundings of the operands and the
quotient, the power of ten and the logarithms used to rescale huge and tiny
exponents, the truncated digit string and its one-digit round-up), so report
bytes are the ones mpmath printed, without importing mpmath.
"""

from __future__ import annotations

import json
import math

SCHEMA = "cmgamma.report/1"


def stable_json_dumps(payload: dict, kind: str) -> str:
    doc = {"schema": SCHEMA, "kind": kind, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# -- decimal output ----------------------------------------------------------
#
# A binary float is a triple (man, exp, bc): the value man * 2^exp with
# man > 0 and bc mpmath's bit count of man (exact except where mpmath's own
# power loop lets it run one high, which the port keeps).  Rounding modes are
# mpmath's: "n" nearest with ties to even, "d" toward zero, "u" away from zero.

_LOG2_10 = math.log(10, 2)  # the float mpmath sizes its digit counts with

# floor(ln 2 * 2^256) and floor(ln 10 * 2^254): mpmath's ln2/ln10 rounded
# toward zero to p <= 256 bits are these shifted right by 256 - p.
_LN2 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2b
_LN10 = 0x935d8dddaaa8ac16ea56d62b82d30a28e28fecf9da5df90e83c61e8201f02d72
_LN_BITS = 256

# to_digits_exp rescales by a power of ten when the binary exponent of the
# leading bit exceeds this in magnitude
_RESCALE_BITS = 3500


def _normalize(man: int, exp: int, bc: int, prec: int, rnd: str):
    """mpmath's normalize: round to prec bits, strip trailing zero bits."""
    n = bc - prec
    if n > 0:
        if rnd == "n":
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        elif rnd == "d":
            man >>= n
        else:
            man = -(-man >> n)
        exp += n
        bc = prec
    t = (man & -man).bit_length() - 1
    if t:
        man >>= t
        exp += t
        bc -= t
    if man == 1:
        bc = 1
    return man, exp, bc


def _div(s, t, prec: int, rnd: str):
    """mpmath's mpf_div of two positive floats: the quotient rounded once.

    (mpmath's shortcut for a power-of-two divisor rounds the same way, since
    every dividend passed here carries an exact bit count.)"""
    sman, sexp, sbc = s
    tman, texp, tbc = t
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:  # a sticky bit below the rounding point
        quot = (quot << 1) + 1
        extra += 1
    return _normalize(quot, sexp - texp - extra, quot.bit_length(), prec, rnd)


def _pow10(n: int, prec: int, rnd: str):
    """mpmath's mpf_pow_int(10, n, prec, rnd), its binary powering included.

    (Its special cases for n = 0, 1, 2 and -1 give what the general ones
    below give.)"""
    if n < 0:
        inverse = _pow10(-n, prec + 5, {"d": "u", "u": "d"}.get(rnd, rnd))
        return _div((1, 0, 1), inverse, prec, rnd)
    if 3 * n < 1000:
        man = 5 ** n
        return _normalize(man, n, man.bit_length(), prec, rnd)
    down = rnd != "u"
    workprec = prec + 4 * n.bit_length() + 4
    man, exp, bc = 5, 1, 3
    pm, pe, pbc = 1, 0, 1
    while True:
        if n & 1:
            pm *= man
            pe += exp
            pbc += bc - 2
            pbc += (pm >> pbc).bit_length()
            if pbc > workprec:
                cut = pbc - workprec
                pm = pm >> cut if down else -(-pm >> cut)
                pe += cut
                pbc = workprec
            n -= 1
            if not n:
                break
        man *= man
        exp += exp
        bc += bc - 2
        bc += (man >> bc).bit_length()
        if bc > workprec:
            cut = bc - workprec
            man = man >> cut if down else -(-man >> cut)
            exp += cut
            bc = workprec
        n //= 2
    return _normalize(pm, pe, pbc, prec, rnd)


def _digits_exp(s, dps: int) -> tuple[str, int]:
    """mpmath's to_digits_exp: the digit string of s truncated to about dps
    digits, and the decimal exponent of its first digit."""
    man, exp, bc = s
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + bc) > _RESCALE_BITS:
        # b = exp * ln2 / ln10, rounded toward zero at expprec bits, truncated
        expprec = abs(exp).bit_length() + 5
        ln2 = _LN2 >> (_LN_BITS - expprec)  # times 2^-expprec
        ln10 = _LN10 >> (_LN_BITS - expprec)  # times 2^(2 - expprec)
        qman, qexp, _ = _div((abs(exp) * ln2, -expprec, (abs(exp) * ln2).bit_length()),
                             (ln10, 2 - expprec, ln10.bit_length()), expprec, "d")
        b = qman << qexp if qexp >= 0 else qman >> -qexp
        b = -b if exp < 0 else b
        man, exp, bc = _div((man, exp, bc), _pow10(b, bitprec, "d"), bitprec, "d")
        exponent = b
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10 ** fixdps >> fixprec)
    return digits, exponent + len(digits) - fixdps - 1


def decimal_str(num: int, den: int, prec: int, dps: int) -> str:
    """What mpmath.nstr(mpf(num) / mpf(den), dps) prints at prec working
    bits (den > 0, dps >= 1): each integer and then the quotient are rounded
    to nearest at prec bits, and the result has at most dps significant
    digits, in fixed point for decimal exponents strictly between
    min(-(dps // 3), -5) and dps and in scientific notation otherwise."""
    if num == 0:
        return "0.0"
    a = abs(num)
    s = _div(_normalize(a, 0, a.bit_length(), prec, "n"),
             _normalize(den, 0, den.bit_length(), prec, "n"), prec, "n")
    digits, exponent = _digits_exp(s, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":  # round up at digit dps
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
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
