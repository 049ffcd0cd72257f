"""Print the SHA-256 of stdout and of stderr per cmgamma output of a fixed
byte-identity set.

The output is committed as `tests/golden/output_digests.txt`, and the
tier-1 test `tests/test_output_digests.py` regenerates it in process and
names every command whose line differs.  A change that alters output bytes
on purpose regenerates the file with

    PYTHONPATH=src python tools/output_digests.py > tests/golden/output_digests.txt

and names each changed line in CHANGES.md.

Each line is `<stdout sha256>  <stderr sha256>  rc=<exit code>  <command>`,
with `-` for an empty stderr.  The stdout digest is that of the report
alone, so a change of report text shows apart from a change of the verdict
line a failed command prints to stderr.  The set is:

- nine fixed reports: the JSON of `cm_scan` on each of SCAN_PINS, and the
  `identity-check telescoping` plus `eval g` output at TELESCOPING_PIN;
- `replay-proof --emit -`, the certificate;
- `cm-scan g|H --kmax 12` in json, csv and text at 8, 16, 64, 256 and 512
  bits, on the default grid and three more;
- `eval g|H|psi1|psi2` at four points, `identity-check telescoping` at two;
- `replay-proof`, `replay-proof --emit -` (the JSON certificate, which
  holds every step's `exact_values_used`, hidden by the text report) and
  `identity-check expansion|remark2` on the packaged constants file and on
  each of its 410 single-number mutants: one number
  changed by +1 or -1, that is the integer coefficient of a [poly] line
  (308 mutants), the numerator of a [pf remainder] coefficient (44) or the
  value of a [values *_init] line (58); each [pf] mutant also runs
  `eval H 1/3`, which prints the rational part of H.  A mutant keeps every
  section key, so no [pf] (shift, order) key repeats;
- `replay-proof` on each of 22 malformed copies of the constants file
  (MALFORMED: bad block exponents and headers, bad or repeated [values]
  labels, wrong arities, a duplicate, missing or unknown section, an
  incomplete order table, a power above the degree of q, a repeated scale
  line), so a changed line shows which error message moved.

That is 1,858 lines.  Commands run in this process through
`cmgamma.cli.main`, one at a time; the whole set takes about 8.5 s
(CPython 3.11, 2 vCPU).  A command reads only its flags, so a command
without --prec runs at its parser's default precision.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from fractions import Fraction as F

from cmgamma.cli import main
from cmgamma.constants import DEFAULT_CONSTANTS_PATH
from cmgamma.scan import GridSpec, cm_scan

# (kind, k_max, prec, points) of the scan reports digested first
SCAN_PINS = [
    ("g", 2, 64, (F(1, 3), F(5))),
    ("H", 2, 64, (F(1, 3), F(5))),
    # the benchmark's scale: the scan_H_deep and scan_g settings
    ("H", 12, 512, (F(1, 16), F(1), F(64))),
    ("g", 8, 256, (F(1, 16), F(1), F(64))),
    # non-dyadic points (the joint head's d^(S-s) divisor) at 8 bits;
    # the cells at 1001/3 escalate to 16 and 32 bits
    ("g", 12, 8, (F(1, 1048576), F(2, 3), F(7, 5), F(1001, 3))),
    ("H", 12, 8, (F(1, 1048576), F(2, 3), F(7, 5), F(1001, 3))),
    # partial escalation: at 10^6 only g's k <= 2 and H's k = 0
    # resolve at 128 bits, the rest of the point at 64
    ("g", 12, 64, (F(1, 3), F(10 ** 6))),
    ("H", 12, 64, (F(1, 3), F(10 ** 6))),
]
TELESCOPING_PIN = ("1/3", "5")  # at 64 bits
GRIDS = (None, "span:1/1024:4096:30", "span:1/1048576:1e6:40", "1,64,1000,1/3,2/7")
SCAN_PRECS = (8, 16, 64, 256, 512)
EVAL_POINTS = ("1/3", "1e-6", "7", "1e12")
TELESCOPING_POINTS = ("1/3", "1000")
# (label, old, new): the first `old` of the packaged file's text becomes `new`
MALFORMED = [
    ("negative block exponent", "[poly theta.e0]", "[poly theta.e-1]"),
    ("non-integer block exponent", "[poly theta.e0]", "[poly theta.ex]"),
    ("block exponent 4", "[poly theta.e3]", "[poly theta.e4]"),
    ("block exponent 00", "[poly theta.e1]", "[poly theta.e00]"),
    ("unterminated header", "[poly p]", "[poly p"),
    ("bad header", "[poly p]", "[polynomial p]"),
    ("name q.exact", "[poly q]", "[poly q.exact]"),
    ("entry before any section", "[poly p]", "0 1\n[poly p]"),
    ("label one", "\n1 31830835680000\n", "\none 31830835680000\n"),
    ("label 05 before 5", "\n5 1632960000\n", "\n05 -1\n5 1632960000\n"),
    ("label 05 after 5", "\n5 1632960000\n", "\n5 1632960000\n05 -1\n"),
    ("label 5 twice", "\n5 1632960000\n", "\n5 1632960000\n5 1632960000\n"),
    ("scale arity", "\nscale 163296000\n", "\nscale 163296000 2\n"),
    ("[pf] arity", "\n1/2 0 1\n", "\n1/2 0\n"),
    ("[values] arity", "\n5 1632960000\n", "\n5 1632960000 7\n"),
    ("duplicate section", "[poly q]", "[poly p]\n0 1\n[poly q]"),
    ("missing section", "[poly q]", "[poly r]"),
    ("unknown section", "[poly q]", "[poly junk]\n0 1\n[poly q]"),
    ("incomplete order table", "\n5 1632960000\n", "\n"),
    ("power 30000", "[poly theta2_d9.e1]\n", "[poly theta2_d9.e1]\n30000 1\n"),
    ("degree of p", "\n10 75\n", "\n10 75\n11 1\n"),
    ("repeated scale line", "\nscale 163296000\n",
     "\nscale 163296000\nscale 163296000\n"),
]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str], hide: str | None = None) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr) of `cmgamma argv`; an exception or exit
    that escapes main is an output too, reported by its type in place of
    the code, but an interrupt stops the run.  hide, a path, is replaced in
    both outputs, so temporary names do not show."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc: int | str = main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001
            rc = f"raised {type(exc).__name__}"
    texts = (out.getvalue(), err.getvalue())
    return (rc, *(t.replace(hide, "<file>") if hide else t for t in texts))


def digest_line(rc, out: str, err: str, label: str) -> str:
    return f"{digest(out)}  {digest(err) if err else '-'}  rc={rc}  {label}"


def _bump(token: str, delta: int) -> str:
    """An integer token, or the numerator of an 'a/b' token, plus delta."""
    num, slash, den = token.partition("/")
    return f"{int(num) + delta}{slash}{den}"


def mutable_lines(lines: list[str]) -> list[tuple[int, str]]:
    """(index, section kind) of the lines a mutant changes: '<power>
    <integer>' in [poly NAME], '<coeff> <shift> <order>' in [pf NAME] and
    '<label> <integer>' in [values NAME]."""
    out, kind = [], None
    for i, raw in enumerate(lines):
        toks = raw.split("#", 1)[0].split()
        if toks and toks[0].startswith("["):
            kind = toks[0][1:]
        elif (kind in ("poly", "values") and len(toks) == 2 and toks[0].isdigit()
              and toks[1].lstrip("-").isdigit()) or (kind == "pf" and len(toks) == 3):
            out.append((i, kind))
    return out


def mutants(text: str):
    """(label, section kind, text) of the packaged file and of each
    single-number +-1 mutant, in line order: the last token of a [poly] or
    [values] line, the numerator of the first token of a [pf] line."""
    yield "pristine", None, text
    lines = text.splitlines(keepends=True)
    for i, kind in mutable_lines(lines):
        toks = lines[i].split("#", 1)[0].split()
        at = 0 if kind == "pf" else 1
        for delta in (1, -1):
            new = toks[:at] + [_bump(toks[at], delta)] + toks[at + 1:]
            mutated = lines[:]
            mutated[i] = " ".join(new) + "\n"
            yield (f"line {i + 1}: {' '.join(toks)} -> {' '.join(new)}", kind,
                   "".join(mutated))


def digest_lines():
    """The lines of the set, in order, each without its newline."""
    for kind, k_max, prec, points in SCAN_PINS:
        doc = cm_scan(kind, k_max, GridSpec.explicit(points), prec).to_json()
        yield digest_line(0, doc, "", f"pin cm_scan {kind} k<={k_max} {prec} "
                                      f"bits {','.join(map(str, points))}")
    text = ""
    for x in TELESCOPING_PIN:
        for argv in (["identity-check", "telescoping", "--x", x, "--prec", "64"],
                     ["eval", "g", x, "--prec", "64"]):
            text += run(argv)[1]
    yield digest_line(0, text, "", "pin telescoping " + ",".join(TELESCOPING_PIN))
    yield digest_line(*run(["replay-proof", "--emit", "-"]),
                      "replay-proof --emit -")
    for kind in "gH":
        for grid in GRIDS:
            for prec in SCAN_PRECS:
                for fmt in ("json", "csv", "text"):
                    argv = ["cm-scan", kind, "--kmax", "12", "--prec", str(prec),
                            "--format", fmt] + (["--grid", grid] if grid else [])
                    yield digest_line(*run(argv), " ".join(argv))
    for function in ("g", "H", "psi1", "psi2"):
        for x in EVAL_POINTS:
            argv = ["eval", function, x]
            yield digest_line(*run(argv), " ".join(argv))
    for x in TELESCOPING_POINTS:
        argv = ["identity-check", "telescoping", "--x", x]
        yield digest_line(*run(argv), " ".join(argv))
    source = DEFAULT_CONSTANTS_PATH.read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(os.path.realpath(tmp), "constants.txt")
        for label, kind, text in mutants(source):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            commands = [["replay-proof"], ["replay-proof", "--emit", "-"],
                        ["identity-check", "expansion"], ["identity-check", "remark2"]]
            if kind == "pf":
                commands.append(["eval", "H", "1/3"])
            for command in commands:
                yield digest_line(*run(command + ["--constants", path], hide=path),
                                  f"{' '.join(command)} [{label}]")
        for label, old, new in MALFORMED:
            assert old in source, old
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(old, new, 1))
            yield digest_line(*run(["replay-proof", "--constants", path],
                                   hide=path),
                              f"replay-proof [malformed: {label}]")


if __name__ == "__main__":
    for text in digest_lines():
        print(text, flush=True)
