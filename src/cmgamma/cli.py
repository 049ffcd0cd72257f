"""Command-line front end: evaluation, identity checks, proof replay, scans.

Exit-code contract (stable for CI): 0 = pass, 1 = verification failure,
2 = usage or domain error, alike for `python -m cmgamma`, `python -m
cmgamma.cli` and the `cmgamma` script.  All payloads are deterministic for
fixed flags: no timestamps, sorted JSON keys, fixed decimal formatting.

A command reads its settings only from its own flags.  Each default is
declared once, on its flag, so --help states it: --prec is 128 bits for
eval, 192 for identity-check telescoping and 256 for cm-scan, and is held
to `ball.check_prec`, the rule of every numeric entry point, where it is
read.  An absent --grid is `scan.cm_scan`'s default grid, and an absent
--constants PATH the packaged constants file.

To keep the cost of a run bounded, a grid of more than
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
import sys
from fractions import Fraction

from . import bounds, replay, scan
from .algebra import parse_rational
from .ball import check_prec
from .constants import SCALE_P, SCALE_Q, load_constants
from .errors import CmGammaError
from .polygamma import polygamma, polygamma_quadrature_crosscheck

_EVAL_FUNCTIONS = ("psi1", "psi2", "polygamma", "p", "Q", "B", "g", "H")

USAGE_EXIT = 2
FAIL_EXIT = 1


def _prec(args) -> int:
    """--prec, held to the library's precision rule."""
    try:
        check_prec(args.prec)
    except CmGammaError as exc:
        raise CmGammaError(f"--prec {args.prec}: {exc}") from None
    return args.prec


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
    prec = _prec(args)
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
    ball = bounds.h_eval(x, prec, constants=consts)  # fn == "H"
    print(f"H({x}) = {ball}  [{prec}-bit target]")
    print(f"  rational part Q(x)/({SCALE_Q} x^2 (1+x)^10 (2+x)^10) = "
          f"{consts.remainder_expansion.eval_exact(x)}")
    return 0


def cmd_identity_check(args) -> int:
    consts = load_constants(args.constants)
    which = args.which
    if which in ("expansion", "remark2"):
        rep = replay.pf_expansion_identity_check(consts)
        print(rep.detail)
        ok = rep.expansion_equal if which == "expansion" else rep.remark_equal
        return 0 if ok else FAIL_EXIT
    if args.x is None:  # which == "telescoping"
        raise CmGammaError("identity-check telescoping requires --x")
    prec = _prec(args)
    rep = bounds.telescoping_identity_check(parse_rational(args.x), prec,
                                            constants=consts)
    print(rep.detail())
    return 0 if rep.passed else FAIL_EXIT


def _path_flag(flag: str, path: str | None) -> str | None:
    """An absent flag is None; an explicit empty path is a usage error, so a
    script that passes an unset variable does not get the default."""
    if path == "":
        raise CmGammaError(f"{flag} needs a path or '-', not an empty string")
    return path


def cmd_replay_proof(args) -> int:
    emit = _path_flag("--emit", args.emit)
    report = replay.replay_proof(load_constants(args.constants))
    if emit is not None:
        doc = report.to_json()
        if emit == "-":
            sys.stdout.write(doc)
        else:
            _write(emit, doc)
            print(f"certificate written to {emit}")
    else:
        sys.stdout.write(report.to_text())
    if not report.overall:
        bad = report.first_failure()
        print(f"FAILED at step {bad.step}: {bad.name}", file=sys.stderr)
        return FAIL_EXIT
    return 0


def _parse_grid(text: str) -> scan.GridSpec:
    if not text:
        raise CmGammaError("--grid needs points or a grid spec, not an empty string")
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
    prec = _prec(args)
    output = _path_flag("--output", args.output)
    consts = load_constants(args.constants)
    grid = None if args.grid is None else _parse_grid(args.grid)
    report = scan.cm_scan(args.kind, args.kmax, grid, prec, consts)
    out = getattr(report, f"to_{args.format}")()  # to_text, to_json or to_csv
    if output is not None and output != "-":
        _write(output, out)
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
    p_eval.add_argument("--prec", type=int, default=128,
                        help="target precision in bits (default %(default)s)")
    p_eval.add_argument("--order", type=int, help="derivative order for 'polygamma'")
    p_eval.add_argument("--crosscheck", action="store_true",
                        help="also print the non-certified quadrature estimate")
    p_eval.set_defaults(func=cmd_eval)

    p_id = sub.add_parser("identity-check", help="exact or enclosure identity checks")
    p_id.add_argument("which", choices=("expansion", "remark2", "telescoping"))
    p_id.add_argument("--x", help="evaluation point (telescoping only)")
    p_id.add_argument("--prec", type=int, default=192,
                      help="target precision in bits, telescoping only "
                           "(default %(default)s)")
    p_id.set_defaults(func=cmd_identity_check)

    p_replay = sub.add_parser("replay-proof",
                              help="replay the positivity-chain proof and emit a certificate")
    p_replay.add_argument("--emit", metavar="PATH",
                          help="write the JSON certificate to PATH ('-' for stdout)")
    p_replay.set_defaults(func=cmd_replay_proof)

    p_scan = sub.add_parser("cm-scan", help="grid scan of (-1)^k f^(k)(x) signs")
    p_scan.add_argument("kind", choices=("g", "H"))
    p_scan.add_argument("--kmax", type=int, default=8)
    p_scan.add_argument("--grid",
                        help="'x1,x2,...' | geometric:START:RATIO:COUNT | "
                             "span:START:STOP:COUNT (default span:1/16:64:25)")
    p_scan.add_argument("--prec", type=int, default=256,
                        help="target precision in bits (default %(default)s)")
    p_scan.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_scan.add_argument("--output", metavar="PATH", help="write report to PATH")
    p_scan.set_defaults(func=cmd_cm_scan)

    for p_cmd in (p_eval, p_id, p_replay, p_scan):
        p_cmd.add_argument("--constants", metavar="PATH",
                           help="constants file (default: the packaged one)")
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
