"""Command-line interface: outputs, exit codes, determinism."""

import functools
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import cmgamma
from cmgamma import bounds, scan
from cmgamma.cli import _approx, build_parser, main
from cmgamma.constants import DEFAULT_CONSTANTS_PATH
from cmgamma.scan import MAX_POINT_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exact_polynomial(self, capsys):
        code, out, _ = run(capsys, "eval", "p", "0")
        assert code == 0 and "p(0) = 450" in out

    def test_q_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "Q", "0")
        assert code == 0 and "1382400" in out

    def test_bound_exact_form(self, capsys):
        code, out, _ = run(capsys, "eval", "B", "1")
        assert code == 0 and "189241/921600" in out

    def test_g_enclosure(self, capsys):
        code, out, _ = run(capsys, "eval", "g", "1", "--prec", "128")
        assert code == 0 and "0.0963546" in out and "+/-" in out

    def test_trigamma(self, capsys):
        code, out, _ = run(capsys, "eval", "psi1", "1", "--prec", "128")
        assert code == 0 and "1.6449340" in out

    def test_polygamma_requires_order(self, capsys):
        code, _, err = run(capsys, "eval", "polygamma", "1")
        assert code == 2 and "order" in err

    def test_polygamma_with_order(self, capsys):
        code, out, _ = run(capsys, "eval", "polygamma", "2", "--order", "3")
        assert code == 0 and "psi^(3)(2)" in out

    def test_h_prints_rational_part(self, capsys):
        code, out, _ = run(capsys, "eval", "H", "1", "--prec", "96")
        assert code == 0 and "rational part" in out

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "g", "-1")
        assert code == 2 and "error" in err

    def test_unparseable_x(self, capsys):
        code, _, err = run(capsys, "eval", "g", "one")
        assert code == 2

    def test_environment_does_not_set_precision(self, capsys, monkeypatch):
        # a command reads its settings only from its own flags
        monkeypatch.setenv("CMGAMMA_PREC", "96")
        code, out, _ = run(capsys, "eval", "psi1", "1")
        assert code == 0 and "[128-bit target]" in out

    @pytest.mark.parametrize("prec", ["4", "0", "-3"])
    def test_precision_below_minimum_exit_two(self, capsys, prec):
        code, out, err = run(capsys, "eval", "g", "1", "--prec", prec)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "g", "1", "--prec", "100000"],
        ["eval", "psi1", "1", "--prec", "4097"],
        ["identity-check", "telescoping", "--x", "1", "--prec", "8192"],
        ["cm-scan", "g", "--kmax", "0", "--grid", "1", "--prec", "5000"],
    ])
    def test_precision_above_cap_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("function", ["g", "H"])
    def test_value_beyond_escalation_cap_exit_two(self, capsys, function):
        # the cancelling sum cannot reach a 4096-bit target at 4096 bits
        code, out, err = run(capsys, "eval", function, str(2 ** 500),
                             "--prec", "4096")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {function}(") and err.count("\n") == 1
        assert "not within 2^-4096 relative at 4096 bits" in err

    @pytest.mark.parametrize("prec, message", [
        ("4", "precision must be at least 8 bits"),
        ("4097", "precision above the limit of 4096 bits"),
    ])
    def test_precision_messages(self, capsys, prec, message):
        # the library's one precision rule, prefixed with the flag
        assert (run(capsys, "eval", "psi1", "1", "--prec", prec)
                == (2, "", f"error: --prec {prec}: {message}\n"))

    def test_crosscheck_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "psi1", "1", "--prec", "64",
                           "--crosscheck")
        assert code == 0 and "non-certified" in out

    def test_crosscheck_without_mpmath(self, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "mpmath", None)  # import mpmath fails
        code, _, err = run(capsys, "eval", "psi1", "1", "--crosscheck")
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'crosscheck' extra" in err

    @pytest.mark.parametrize("fn, x, approx", [
        ("Q", "1e100", "~ 1.8e+2103"),
        ("p", "1e150", "~ 7.5e+1501"),
        ("B", "1e-100", "~ 5e+399"),
        ("B", "1e100", "~ 8.33333333333e-402"),
        ("B", "1/2", "~ 4.34319188772"),  # inside the float range: float's %.12g
        ("p", "0", "~ 450"),
    ])
    def test_approximation_inside_and_outside_float_range(self, capsys, fn, x, approx):
        code, out, err = run(capsys, "eval", fn, x)
        assert code == 0 and err == ""
        assert out.splitlines()[0].endswith(f"({approx})")

    @staticmethod
    def approx_ref(q):
        """q rounded to 12 significant digits, ties to even, in integers."""
        n, d = abs(q.numerator), q.denominator
        e = 0  # the decimal exponent: 10^e <= n/d < 10^(e+1)
        while n >= d * 10 ** (e + 1):
            e += 1
        while n * 10 ** -e < d if e < 0 else n < d * 10 ** e:
            e -= 1
        num, den = (n * 10 ** (11 - e), d) if e <= 11 else (n, d * 10 ** (e - 11))
        digits, r = divmod(num, den)
        digits += 2 * r > den or (2 * r == den and digits % 2 == 1)
        if digits == 10 ** 12:
            digits, e = 10 ** 11, e + 1
        mantissa = f"{str(digits)[0]}.{str(digits)[1:]}".rstrip("0").rstrip(".")
        return f"{'-' if q < 0 else ''}{mantissa}e{'+' if e >= 0 else '-'}{abs(e):02d}"

    def test_approximation_rounds_from_the_exact_value(self):
        rng = random.Random(9)
        # nines that carry, and exact ties at the 13th digit
        draws = [F(10) ** 400 - 1, F(5, 10 ** 400), F(1000000000005, 10 ** 412),
                 F(1000000000015, 10 ** 412), F(9999999999995 * 10 ** 400)]
        for _ in range(300):
            q = F(rng.getrandbits(rng.randint(1, 300)) + 1,
                  rng.getrandbits(rng.randint(1, 300)) + 1)
            draws.append(q * F(10) ** rng.choice([rng.randint(400, 1000),
                                                  -rng.randint(400, 1000)]))
        for q in draws:
            assert _approx(q) == self.approx_ref(q)
            assert _approx(-q) == self.approx_ref(-q)


class TestIdentityCheck:
    def test_expansion(self, capsys):
        code, out, _ = run(capsys, "identity-check", "expansion")
        assert code == 0 and "equal" in out

    def test_remark2(self, capsys):
        code, out, _ = run(capsys, "identity-check", "remark2")
        assert code == 0

    def test_telescoping(self, capsys):
        code, out, _ = run(capsys, "identity-check", "telescoping",
                           "--x", "1", "--prec", "192")
        assert code == 0 and "overlap" in out

    def test_telescoping_requires_x(self, capsys):
        code, _, err = run(capsys, "identity-check", "telescoping")
        assert code == 2 and "--x" in err

    def test_mutated_constants_fail_exit_one(self, capsys, mutate_constants):
        path = mutate_constants(r"-251/120 1 2", "-131/120 1 2")
        code, out, _ = run(capsys, "identity-check", "expansion",
                           "--constants", str(path))
        assert code == 1 and "UNEQUAL" in out


class TestReplayProof:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "replay-proof")
        assert code == 0
        assert "overall: PASS" in out
        assert out.count("[PASS]") == 15

    def test_emit_stdout_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "replay-proof", "--emit", "-")
        code2, out2, _ = run(capsys, "replay-proof", "--emit", "-")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["payload"]["overall"] == "pass"

    def test_emit_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(capsys, "replay-proof", "--emit", str(target))
        assert code == 0 and target.exists()
        doc = json.loads(target.read_text())
        assert doc["schema"] == "cmgamma.report/1"

    def test_emit_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "replay-proof", "--emit",
                           str(tmp_path / "no" / "such" / "dir" / "c.json"))
        assert code == 2 and "cannot write" in err

    def test_empty_emit_is_usage_error(self, capsys):
        # an explicit empty path is not an absent flag: no text report, no
        # certificate, one error line
        code, out, err = run(capsys, "replay-proof", "--emit", "")
        assert code == 2 and out == ""
        assert err.startswith("error: --emit") and err.count("\n") == 1

    def test_corrupted_constants_exit_one(self, capsys, mutate_constants):
        path = mutate_constants(r"1 435456000", "1 435456001")
        code, out, err = run(capsys, "replay-proof", "--constants", str(path))
        assert code == 1
        assert "FAILED at step" in err

    def test_malformed_constants_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[poly p]\n0 1 2 3\n")
        code, _, err = run(capsys, "replay-proof", "--constants", str(bad))
        assert code == 2

    @pytest.mark.parametrize("argv", [["replay-proof"], ["eval", "p", "1"]])
    def test_non_utf8_constants_exit_two(self, capsys, tmp_path, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(DEFAULT_CONSTANTS_PATH.read_bytes() + b"# caf\xe9 \xff\n")
        code, out, err = run(capsys, *argv, "--constants", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(bad) in err and "Traceback" not in err


class TestCmScan:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "cm-scan", "g", "--kmax", "0", "--grid", "1")
        assert code == 0 and "result: PASS" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "cm-scan", "g", "--kmax", "1",
                           "--grid", "1,2", "--format", "csv", "--prec", "96")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,x,mid,rad,verdict"
        assert len(lines) == 5

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "cm-scan", "H", "--kmax", "0",
                           "--grid", "1", "--format", "json", "--prec", "96")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["summary"]["kind"] == "H"
        assert doc["payload"]["summary"]["target_bits"] == 96
        assert [e["prec_used"] for e in doc["payload"]["entries"]] == [96]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "cm-scan", "g", "--kmax", "0", "--grid", "1",
                         "--format", "csv", "--output", str(target), "--prec", "96")
        assert code == 0
        assert target.read_text().startswith("k,x,mid,rad,verdict")

    def test_geometric_grid_flag(self, capsys):
        code, out, _ = run(capsys, "cm-scan", "g", "--kmax", "0",
                           "--grid", "geometric:1/4:2:3", "--prec", "96")
        assert code == 0

    def test_negative_cell_at_the_p0_boundary_fails(self, capsys, mutate_constants):
        # x^4 g(x) -> 1 - p_0/900 as x -> 0, so p_0 = 900 is the largest
        # constant term that keeps g positive near 0; 901 breaks it at k = 8
        argv = ["cm-scan", "g", "--kmax", "8", "--prec", "128", "--grid", "1/1024",
                "--constants", str(mutate_constants(r"0 450", "0 901"))]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out.splitlines()[1:] == [
            "  [negative] k=8 x=1/1024 -> "
            "-3.9078282535022934247580102130791240199e+38 +/- 0.586",
            "negative: 1, indeterminate: 0, max k fully verified: 7", "result: FAIL"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1 and [(e["k"], e["x"], e["verdict"])
                              for e in json.loads(out)["payload"]["entries"]
                              if e["verdict"] != "positive"] == [(8, "1/1024", "negative")]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 1 and [line for line in out.splitlines()[1:]
                              if not line.endswith(",positive")] == [
            "8,1/1024,-3.9078282535022934247580102130791240199e+38,0.586,negative"]
        argv[-1] = str(mutate_constants(r"0 450", "0 900"))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\nresult: PASS\n")

    def test_bad_kind_usage_error(self, capsys):
        # argparse `choices` is the one check of a command's kind
        for argv in (["cm-scan", "nope"], ["eval", "nope", "1"],
                     ["identity-check", "nope"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert "invalid choice: 'nope'" in err and "Traceback" not in err, argv

    def test_bad_grid_usage_error(self, capsys):
        code, _, err = run(capsys, "cm-scan", "g", "--grid", "geometric:1:2")
        assert code == 2

    @pytest.mark.parametrize("grid", ["span:1:2:x", "geometric:1:abc:3",
                                      "span:1/0:2:3", "span:0:2:3", "span:-1:2:3",
                                      "span:1:2:0", "span:1:2:-3"])
    def test_malformed_grid_exit_two(self, capsys, grid):
        code, out, err = run(capsys, "cm-scan", "g", "--kmax", "0", "--grid", grid)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["1,1,1", "span:1:1:3", "geometric:1:1:3"])
    def test_repeated_grid_point_exit_two(self, capsys, grid):
        code, out, err = run(capsys, "cm-scan", "g", "--kmax", "0", "--grid", grid)
        assert code == 2 and out == ""
        assert err == "error: grid point 1 is repeated\n"

    @pytest.mark.parametrize("flag", ["--grid", "--output"])
    def test_empty_flag_is_usage_error(self, capsys, monkeypatch, tmp_path, flag):
        # an explicit empty --grid is not the default grid, and an explicit
        # empty --output is not stdout
        monkeypatch.chdir(tmp_path)
        argv = ["cm-scan", "g", "--kmax", "0", "--grid", "1", flag, ""]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("grid", [
        "span:1/16:64:100000000", "geometric:1:2:100000000",
        ",".join(str(i) for i in range(1, 10_002)),
    ])
    def test_grid_above_point_limit_exit_two(self, capsys, grid):
        code, out, err = run(capsys, "cm-scan", "g", "--kmax", "0", "--grid", grid)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestOversizedArguments:
    """Exact arguments are limited to MAX_POINT_BITS bits in the numerator
    and the denominator, checked before anything large is built."""

    @pytest.mark.parametrize("argv", [
        ["eval", "psi1", "1e5000"],
        ["eval", "Q", "1e100000000"],
        ["eval", "p", "1e-100000000"],
        ["eval", "B", "1/" + "9" * 200],
        ["eval", "g", str(2 ** MAX_POINT_BITS)],
        ["cm-scan", "H", "--grid", "1e5000"],
        ["cm-scan", "g", "--kmax", "0", "--grid", "span:1e-100000000:1:3"],
        ["cm-scan", "g", "--kmax", "0", "--grid", "geometric:1:1e100:10000"],
        ["cm-scan", "g", "--kmax", "0", "--grid", "geometric:1:3/2:1000"],
        ["identity-check", "telescoping", "--x", "1e5000"],
    ], ids=lambda argv: " ".join(argv)[:48])
    def test_rejected_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(MAX_POINT_BITS) in err
        # the limit is on bits, which a tiny value such as 1e-100000000 exceeds
        assert "too large" not in err

    @pytest.mark.parametrize("x", [str(2 ** MAX_POINT_BITS - 1),
                                   f"1/{2 ** MAX_POINT_BITS - 1}", "1e154", "1e-154"])
    def test_at_the_cap(self, capsys, x):
        # Q(x) and the rational part of H have the most digits of any
        # exact value printed
        code, out, _ = run(capsys, "eval", "Q", x)
        assert code == 0 and out.startswith("Q(")
        code, out, _ = run(capsys, "eval", "H", x, "--prec", "64")
        assert code == 0 and "rational part" in out


def test_no_command_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv, library", [
    (["eval", "g", "1"], bounds.g_eval),
    (["identity-check", "telescoping"], bounds.telescoping_identity_check),
    (["cm-scan", "g"], scan.cm_scan),
    (["replay-proof"], None),
], ids=["eval", "identity-check", "cm-scan", "replay-proof"])
def test_help_states_each_default(capsys, argv, library):
    # a --prec default is the library's, and --help states it
    code, out, _ = run(capsys, argv[0], "--help")
    assert code == 0 and "--constants PATH" in out
    if library is not None:
        prec = inspect.signature(library).parameters["prec"].default
        assert build_parser().parse_args(argv).prec == prec
        assert f"(default {prec})" in " ".join(out.split())


# Fuzz draws for the exit-code contract, as (valid tokens, invalid tokens).
# Grids of <= 3 points, k <= 3 and prec <= 512 keep the fuzz to about a second.
X = (("1", "1/3", "7/5", "64", "1/1024", "1e3", "2.5e-2"),
     ("1/1073741824", "0", "-1", "1/0", "abc", "", "3/-4", "1e5000",
      "1e-100000000"))
PREC = (("8", "64", "128", "512"), ("7", "0", "-5", "4097", "x", "1.5"))
ORDER = (("1", "2", "32"), ("33", "0", "-1", "y"))
KMAX = (("0", "1", "2", "3"), ("-1", "13", "z"))
GRID_SPEC = (("geometric:1/2:2:3", "span:1/4:4:3"),
             ("span:1:2", "geometric:1:0:3", "span:1:2:0", "span:1:2:100000000",
              "1,,2", ",", "", "1,1"))
# The invalid points that some functions still read: p and Q take any
# rational, and psi, B and H take 2^-30, which is below the cutoff of g
# (and so of the g scan and the telescoping check).
X_READ_BY = {"0": ("p", "Q"), "-1": ("p", "Q"),
             "1/1073741824": ("psi1", "psi2", "polygamma", "p", "Q", "B", "H")}


def _constants_files(tmp_path):
    """A malformed file, a missing one, one whose p breaks the bound, thirteen
    whose pf term, scale, power or theta block is out of range or repeated,
    one with sections no constant reads and two that list an initial-value
    order twice, as 05 and 5 (usage errors), and one whose theta display
    gains an e^0 t^10 term (a failed replay)."""
    bad = tmp_path / "bad.txt"
    bad.write_text("[poly p]\n0 1 2 3\n")
    text = DEFAULT_CONSTANTS_PATH.read_text()
    files = [str(bad), str(tmp_path / "missing.txt")]
    for name, old, new in (("mutated", "\n0 450\n", "\n0 45000\n"),
                           ("order0", "\n1/2 0 1\n", "\n1/2 0 0\n"),
                           ("negshift", "\n1/2 0 1\n", "\n1/2 -1 1\n"),
                           ("negexp", "[poly theta.e0]", "[poly theta.e-1]"),
                           ("e0block", "[poly theta.e0]\n", "[poly theta.e0]\n10 1\n"),
                           ("hugeexp", "\n1/2 0 1\n", "\n1e4400 0 1\n"),
                           ("tinyexp", "\n1/2 0 1\n", "\n1e-4400 0 1\n"),
                           ("hugescale", "scale 163296000\n", "scale 163296000e4400\n"),
                           ("dupexp", "[poly theta.e1]", "[poly theta.e00]"),
                           ("bigshift", "\n1/2 0 1\n", f"\n1/2 {'9' * 600} 9\n"),
                           ("order10k", "\n1/2 0 1\n", "\n1/2 0 10000\n"),
                           ("pfsplit", "\n3/4 0 2\n", "\n1/4 0 2\n1/2 0 2\n"),
                           ("pftwice", "\n3/4 0 2\n", "\n3/4 0 2\n3/4 0 2\n"),
                           ("thetapow", "[poly theta2_d9.e1]\n",
                            "[poly theta2_d9.e1]\n30000 1\n"),
                           ("bigexp", "[poly theta.e3]", f"[poly theta.e{'9' * 300}]"),
                           ("unknown", "[values theta_init]",
                            "[pf junk]\n1/2 0 99999999\n[values theta_initt]\n1 1\n"
                            "[values theta_init]"),
                           ("order05first", "\n5 1632960000\n", "\n05 -1\n5 1632960000\n"),
                           ("order05last", "\n5 1632960000\n", "\n5 1632960000\n05 -1\n")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text.replace(old, new, 1))
        files.append(str(path))
    return files


@pytest.mark.parametrize("name, code", [
    ("order0", 2), ("negshift", 2), ("negexp", 2), ("e0block", 1),
    ("hugeexp", 2), ("tinyexp", 2), ("hugescale", 2), ("dupexp", 2),
    ("bigshift", 2), ("order10k", 2), ("thetapow", 2), ("bigexp", 2), ("unknown", 2),
    ("order05first", 2), ("order05last", 2), ("pfsplit", 2), ("pftwice", 2)])
def test_out_of_range_constants_exit_codes(name, code, tmp_path, capsys):
    files = {Path(f).stem: f for f in _constants_files(tmp_path)}
    assert main(["replay-proof", "--constants", files[name]]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: " if code == 2 else "FAILED at step 1: ")


def test_constants_shift_beyond_the_remainder_is_usage_error(tmp_path, capsys):
    # the load rejects a remainder term outside the 22 slots; a 600-digit
    # shift would otherwise reach the evaluation of H and pass Python's
    # 4300-digit int-to-str limit
    files = {Path(f).stem: f for f in _constants_files(tmp_path)}
    code, _, err = run(capsys, "eval", "H", "1", "--constants", files["bigshift"])
    assert code == 2 and "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("error: ") and "bigshift.txt: " in err


@pytest.mark.parametrize("name", ["pfsplit", "pftwice"])
def test_repeated_pf_term_is_usage_error(name, tmp_path, capsys):
    # merged at load, pftwice gave eval H a wrong rational part with exit 0
    files = {Path(f).stem: f for f in _constants_files(tmp_path)}
    code, out, err = run(capsys, "eval", "H", "1", "--constants", files[name])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith(": repeated term (0, 2)\n")


def _fuzz_argv(rng, files, tmp_path):
    """A random argv, and whether it must exit 2: it must when a token its
    command always reads was drawn invalid and no token was deleted or
    inserted afterwards."""
    usage_error = False

    def pick(tokens, reader=None):
        """A token, invalid with probability 0.15.  `reader` is the command
        or function that always reads it (None if it may go unread); an
        invalid token it reads makes the draw a usage error."""
        nonlocal usage_error
        token = rng.choice(tokens[1] if rng.random() < 0.15 else tokens[0])
        if (reader is not None and token in tokens[1]
                and reader not in X_READ_BY.get(token, ())):
            usage_error = True
        return token

    def maybe(flag, tokens, reader=None):
        return [flag, pick(tokens, reader)] if rng.random() < 0.5 else []

    command = pick((("eval", "identity-check", "replay-proof", "cm-scan", "-h"),
                    ("frobnicate",)), "cmgamma")
    if command == "eval":
        function = pick((("psi1", "psi2", "polygamma", "p", "Q", "B", "g", "H"),
                         ("zeta",)), command)
        argv = [command, function, pick(X, function)]
        argv += maybe("--order", ORDER, function if function == "polygamma" else None)
        argv += ["--crosscheck"] if rng.random() < 0.1 else maybe("--prec", PREC, command)
    elif command == "identity-check":
        which = pick((("expansion", "remark2", "telescoping"), ("other",)), command)
        reader = "g" if which == "telescoping" else None  # only it reads --x, --prec
        argv = [command, which] + (["--x", pick(X, reader)] if rng.random() < 0.8 else [])
        argv += maybe("--prec", PREC, reader)
    elif command == "replay-proof":
        argv = [command] + maybe("--emit", (("-", str(tmp_path / "c.json")),
                                            (str(tmp_path / "no" / "c.json"), "")), command)
    elif command == "cm-scan":
        kind = pick((("g", "H"), ("h",)), command)
        if rng.random() < 0.7:
            points = [pick(X, kind) for _ in range(rng.randint(1, 3))]
            usage_error |= len(set(points)) < len(points)  # a repeated point
            grid = ",".join(points)
        else:
            grid = pick(GRID_SPEC, command)
        argv = [command, kind, "--grid", grid]
        argv += maybe("--kmax", KMAX, command) + maybe("--prec", PREC, command)
        argv += maybe("--format", (("text", "json", "csv"), ("xml",)), command)
        argv += maybe("--output", (("-", str(tmp_path / "scan.out")),
                                   (str(tmp_path / "no" / "scan.out"), "")), command)
    else:
        argv = [command]
    if command not in ("frobnicate", "-h") and rng.random() < 0.2:
        argv += ["--constants", rng.choice(files)]
    if rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
        usage_error = False
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), "--bogus")
        usage_error = False
    return argv, usage_error


def test_exit_code_contract_fuzz(capsys, tmp_path):
    rng = random.Random(20261018)
    files = _constants_files(tmp_path)
    usage_errors = 0
    for _ in range(200):
        argv, usage_error = _fuzz_argv(rng, files, tmp_path)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # main must return a code
            pytest.fail(f"{argv} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:  # a verification failure, never a crash
            assert argv[0] in ("replay-proof", "identity-check", "cm-scan"), argv
        if usage_error:
            assert code == 2, argv
            usage_errors += 1
    assert usage_errors >= 40  # the draws do reach invalid tokens


def _subprocess_env() -> dict[str, str]:
    """os.environ with this source tree first on PYTHONPATH."""
    src = str(Path(cmgamma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


# the three spellings of the command: the package's __main__, the module
# and the `cmgamma = "cmgamma.cli:main"` script entry
ENTRIES = {
    "package": ["-m", "cmgamma"],
    "module": ["-m", "cmgamma.cli"],
    "script": ["-c", "import sys; from cmgamma.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("entry, argv, code", [
    pytest.param(entry, argv, code, id=f"{name}-{entry}")
    for entry in ENTRIES for argv, code, name in [
        (["eval", "g", "1/3"], 0, "pass"),
        # None: a mutated constants file
        (["replay-proof", "--constants", None], 1, "verification-failure"),
        (["cm-scan", "g", "--kmax", "13"], 2, "usage-error"),
        (["eval", "psi1", "1/0"], 2, "domain-error"),
    ]
])
def test_exit_code_contract_subprocess(entry, argv, code, mutate_constants):
    argv = [str(mutate_constants(r"1 435456000", "1 435456001")) if a is None
            else a for a in argv]
    proc = subprocess.run([sys.executable, *ENTRIES[entry], *argv],
                          env=_subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    assert bool(proc.stdout) == (code != 2)  # a report, or nothing on an error
    assert "Traceback" not in proc.stderr


_IMPORT_PROBE = """
import contextlib, io, json, sys
loaded = {}
def probe(label):
    loaded[label] = {
        "modules": sorted(m for m in ("mpmath", "dataclasses", "cmgamma.bounds",
                                      "cmgamma.scan") if m in sys.modules),
        "polygamma": type(cmgamma.polygamma).__name__}
import cmgamma
probe("import cmgamma")
from cmgamma import cli
for argv in (["replay-proof"], ["identity-check", "expansion"],
             ["cm-scan", "g", "--kmax", "1"], ["eval", "g", "1/3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    probe(" ".join(argv))
print(json.dumps(loaded))
"""


@functools.lru_cache(maxsize=1)
def _loaded_after_each_command() -> dict:
    """What one fresh interpreter has loaded after `import cmgamma` and after
    each command it then runs in turn."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=_subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert list(loaded) == ["import cmgamma", "replay-proof", "identity-check expansion",
                            "cm-scan g --kmax 1", "eval g 1/3"]
    return loaded


def test_commands_load_neither_mpmath_nor_dataclasses():
    loaded = _loaded_after_each_command()
    for label, state in loaded.items():
        assert not {"mpmath", "dataclasses"} & set(state["modules"]), label


def test_replay_and_identity_check_load_neither_bounds_nor_scan():
    # the exact side never needs them; the name `cmgamma.polygamma` stays the
    # function although `bounds` imports the submodule of the same name
    loaded = _loaded_after_each_command()
    scan_side = ["cmgamma.bounds", "cmgamma.scan"]
    first_scan = list(loaded).index("cm-scan g --kmax 1")
    for i, (label, state) in enumerate(loaded.items()):
        expected = scan_side if i >= first_scan else []
        assert [m for m in state["modules"] if m in scan_side] == expected, label
        assert state["polygamma"] == "function", label


_API_PROBE = """
import sys, types
import cmgamma
assert "cmgamma.scan" not in sys.modules and "cmgamma.bounds" not in sys.modules
assert set(cmgamma.__all__) <= set(dir(cmgamma))
try:
    cmgamma.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'cmgamma' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("cmgamma.no_such_name resolved")
from cmgamma import scan
assert isinstance(scan, types.ModuleType) and scan.__name__ == "cmgamma.scan"
for name in cmgamma.__all__:
    obj = getattr(cmgamma, name)
    assert vars(sys.modules[obj.__module__])[name] is obj, name
"""


def test_public_names_are_the_objects_their_modules_define():
    # in a fresh interpreter, so the names of `bounds` and `scan` are
    # resolved on first use here and not by an earlier test
    proc = subprocess.run([sys.executable, "-c", _API_PROBE],
                          env=_subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cmgamma.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []
    extras = project["optional-dependencies"]
    assert any(d.startswith("mpmath") for d in extras["crosscheck"])
    assert any(d.startswith("mpmath") for d in extras["test"])
