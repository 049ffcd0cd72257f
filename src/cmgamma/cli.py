"""Command-line front end: evaluation, identity checks, proof replay, scans.

Exit-code contract (stable for CI): 0 = pass, 1 = verification failure,
2 = usage or domain error.  All payloads are deterministic for fixed flags:
no timestamps, sorted JSON keys, fixed decimal formatting.

The default precision comes from --prec, else the CMGAMMA_PREC environment
variable, else 128 bits (256 for scans).  To keep the cost of a run bounded,
a precision above bounds.ESCALATION_CAP_BITS, a grid of more than
scan.MAX_GRID_POINTS points and an exact argument, constants-file token or
geometric grid point whose numerator or denominator has more than
algebra.MAX_POINT_BITS bits are usage errors.  Exact arguments are read by
`algebra.parse_rational`, the reader of constants-file tokens, and every
integer of a constants file is bounded by the file's structure (see
`constants`).  So every exact value the commands print (up to Q(x) and the
rational part of H, of degree 22) stays far below Python's 4300-digit limit
on int-to-str conversion, for a --constants file too.
"""

from __future__ import annotations

import argparse
import decimal
import math
import os
import sys
from fractions import Fraction

from . import bounds, replay, scan
from .algebra import parse_rational
from .constants import SCALE_P, SCALE_Q, load_constants
from .errors import CmGammaError
from .polygamma import polygamma, polygamma_quadrature_crosscheck

_EVAL_FUNCTIONS = ("psi1", "psi2", "polygamma", "p", "Q", "B", "g", "H")

USAGE_EXIT = 2
FAIL_EXIT = 1


def _default_prec(args, fallback: int) -> int:
    prec = getattr(args, "prec", None)
    source = f"--prec {prec}"
    if prec is None:
        env = os.environ.get("CMGAMMA_PREC")
        if not env:
            return fallback
        try:
            prec = int(env)
        except ValueError:
            raise CmGammaError(f"CMGAMMA_PREC={env!r} is not an integer")
        source = f"CMGAMMA_PREC={env!r}"
    if prec < 8:
        raise CmGammaError(f"{source}: precision must be at least 8 bits")
    if prec > bounds.ESCALATION_CAP_BITS:
        raise CmGammaError(f"{source}: precision above the limit of "
                           f"{bounds.ESCALATION_CAP_BITS} bits")
    return prec


def _write(path: str, text: str) -> None:
    """Write a report file; a failure is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CmGammaError(f"cannot write {path}: {exc}") from None


def _approx(q: Fraction) -> str:
    """q as '%.12g' prints it.  A nonzero value outside the normal float
    range is rounded from the exact rational instead (ties to even), to the
    same 12 significant digits and exponent shape."""
    try:
        f = float(q)
    except OverflowError:
        f = math.inf
    if q == 0 or sys.float_info.min <= abs(f) < math.inf:
        return f"{f:.12g}"
    ctx = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return format(ctx.divide(q.numerator, q.denominator).normalize(ctx), ".12g")


def _print_exact(label: str, value: Fraction) -> None:
    print(f"{label} = {value} (~ {_approx(value)})")


def cmd_eval(args) -> int:
    prec = _default_prec(args, 128)
    consts = load_constants(args.constants)
    fn = args.function
    if fn == "polygamma" and args.order is None:
        raise CmGammaError("eval polygamma requires --order M")
    x = parse_rational(args.x)
    if fn in ("p", "Q"):
        _print_exact(f"{fn}({x})", (consts.p if fn == "p" else consts.q)(x))
        return 0
    if fn == "B":
        _print_exact(f"B({x})", bounds.bound_exact(x, consts))
        print(f"  = p(x)/({SCALE_P} x^4 (x+1)^10)")
        return 0
    if fn in ("psi1", "psi2", "polygamma"):
        m = {"psi1": 1, "psi2": 2}.get(fn, args.order)
        ball = polygamma(m, x, prec)
        print(f"psi^({m})({x}) = {ball}  [{prec}-bit target]")
        if args.crosscheck:
            est = polygamma_quadrature_crosscheck(m, x, min(prec, 256))
            print(f"  quadrature estimate (non-certified): {est}")
        return 0
    if fn == "g":
        ball = bounds.g_eval(x, prec, constants=consts)
        print(f"g({x}) = {ball}  [{prec}-bit target]")
        return 0
    if fn == "H":
        ball = bounds.h_eval(x, prec, constants=consts)
        print(f"H({x}) = {ball}  [{prec}-bit target]")
        print(f"  rational part Q(x)/({SCALE_Q} x^2 (1+x)^10 (2+x)^10) = "
              f"{consts.remainder_expansion.eval_exact(x)}")
        return 0
    raise CmGammaError(f"unknown function {fn!r}")


def cmd_identity_check(args) -> int:
    consts = load_constants(args.constants)
    which = args.which
    if which in ("expansion", "remark2"):
        rep = bounds.pf_expansion_identity_check(consts)
        print(rep.detail)
        ok = rep.expansion_equal if which == "expansion" else rep.remark_equal
        return 0 if ok else FAIL_EXIT
    if which == "telescoping":
        if args.x is None:
            raise CmGammaError("identity-check telescoping requires --x")
        prec = _default_prec(args, 192)
        rep = bounds.telescoping_identity_check(parse_rational(args.x), prec,
                                                constants=consts)
        print(rep.detail())
        return 0 if rep.passed else FAIL_EXIT
    raise CmGammaError(f"unknown identity {which!r}")


def cmd_replay_proof(args) -> int:
    report = replay.replay_proof(load_constants(args.constants))
    if args.emit:
        doc = report.to_json()
        if args.emit == "-":
            sys.stdout.write(doc)
        else:
            _write(args.emit, doc)
            print(f"certificate written to {args.emit}")
    else:
        sys.stdout.write(report.to_text())
    if not report.overall:
        bad = report.first_failure()
        print(f"FAILED at step {bad.step}: {bad.name}", file=sys.stderr)
        return FAIL_EXIT
    return 0


def _parse_grid(text: str | None) -> scan.GridSpec:
    if not text:
        return scan.default_grid()
    for prefix, make, form in (("geometric:", scan.GridSpec.geometric, "START:RATIO:COUNT"),
                               ("span:", scan.GridSpec.geometric_span, "START:STOP:COUNT")):
        if text.startswith(prefix):
            parts = text[len(prefix):].split(":")
            if len(parts) != 3:
                raise CmGammaError(f"expected {prefix}{form}")
            try:
                count = int(parts[2])
            except ValueError:
                raise CmGammaError(f"grid count {parts[2]!r} is not an integer")
            return make(parse_rational(parts[0]), parse_rational(parts[1]), count)
    return scan.GridSpec.explicit([parse_rational(tok) for tok in text.split(",")])


def cmd_cm_scan(args) -> int:
    prec = _default_prec(args, 256)
    consts = load_constants(args.constants)
    grid = _parse_grid(args.grid)
    report = scan.cm_scan(args.kind, args.kmax, grid, prec, consts)
    if args.format == "json":
        out = report.to_json()
    elif args.format == "csv":
        out = report.to_csv()
    else:
        out = report.to_text()
    if args.output and args.output != "-":
        _write(args.output, out)
    else:
        sys.stdout.write(out)
    return FAIL_EXIT if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmgamma",
        description="Certified tri-/tetra-gamma bound evaluation and "
                    "complete-monotonicity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function with a certified enclosure")
    p_eval.add_argument("function", choices=_EVAL_FUNCTIONS)
    p_eval.add_argument("x", help="evaluation point (exact rational, e.g. 1/4)")
    p_eval.add_argument("--prec", type=int, help="target precision in bits")
    p_eval.add_argument("--order", type=int, help="derivative order for 'polygamma'")
    p_eval.add_argument("--crosscheck", action="store_true",
                        help="also print the non-certified quadrature estimate")
    p_eval.add_argument("--constants", help=argparse.SUPPRESS)
    p_eval.set_defaults(func=cmd_eval)

    p_id = sub.add_parser("identity-check", help="exact or enclosure identity checks")
    p_id.add_argument("which", choices=("expansion", "remark2", "telescoping"))
    p_id.add_argument("--x", help="evaluation point (telescoping only)")
    p_id.add_argument("--prec", type=int)
    p_id.add_argument("--constants", help=argparse.SUPPRESS)
    p_id.set_defaults(func=cmd_identity_check)

    p_replay = sub.add_parser("replay-proof",
                              help="replay the positivity-chain proof and emit a certificate")
    p_replay.add_argument("--emit", metavar="PATH",
                          help="write the JSON certificate to PATH ('-' for stdout)")
    p_replay.add_argument("--constants", metavar="PATH",
                          help="alternate constants file (testing hook)")
    p_replay.set_defaults(func=cmd_replay_proof)

    p_scan = sub.add_parser("cm-scan", help="grid scan of (-1)^k f^(k)(x) signs")
    p_scan.add_argument("kind", choices=("g", "H"))
    p_scan.add_argument("--kmax", type=int, default=8)
    p_scan.add_argument("--grid",
                        help="'x1,x2,...' | geometric:START:RATIO:COUNT | "
                             "span:START:STOP:COUNT (default span:1/16:64:25)")
    p_scan.add_argument("--prec", type=int, help="target precision in bits")
    p_scan.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_scan.add_argument("--output", metavar="PATH", help="write report to PATH")
    p_scan.add_argument("--constants", help=argparse.SUPPRESS)
    p_scan.set_defaults(func=cmd_cm_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_EXIT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (CmGammaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
