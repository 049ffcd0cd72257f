"""Constants file: grammar, structure, and the frozen checksum."""

import hashlib
import importlib.util
import os
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from cmgamma.algebra import ExpPoly, PartialFractionTerm
from cmgamma.constants import (DEFAULT_CONSTANTS_PATH, CHAIN_LENGTHS,
                               SourceConstants, _section, load_constants,
                               parse_constants_text)
from cmgamma.errors import ConstantsFormatError

# Guards against accidental edits; substantive errors are caught by the
# exact identity tests, this catches any drift at all.
FROZEN_SHA256 = "2aecc7a02adf180115e0267ab53fbe748b9a96e4ac0898560eeae533125604ad"


def test_checksum_frozen():
    digest = hashlib.sha256(DEFAULT_CONSTANTS_PATH.read_bytes()).hexdigest()
    assert digest == FROZEN_SHA256


def test_shapes(consts):
    assert consts.p.degree == 10
    assert consts.q.degree == 21
    assert len(consts.remainder_expansion.terms) == 22
    assert consts.theta.exponents() == (0, 1, 2, 3)
    assert consts.theta1.exponents() == (0, 1, 2)
    assert consts.theta2.exponents() == (0, 1)
    total = sum(len(consts.initial_values[s]) for s in CHAIN_LENGTHS)
    assert total == 29


def test_theta_blocks_equal_the_public_constructor(consts):
    # the loader checks each exponent itself and skips ExpPoly's validation
    for name in ("theta", "theta_prime", "theta1", "theta1_prime", "theta2",
                 "theta2_d9"):
        e = getattr(consts, name)
        public = ExpPoly(dict(e.blocks()))
        assert e == public and hash(e) == hash(public)
        assert all(type(k) is int for k in e.exponents())


def test_known_entries(consts):
    assert consts.p(0) == 450
    assert consts.q(0) == 1382400
    assert PartialFractionTerm(F(1, 2), 0, 1) in consts.remainder_expansion.terms
    assert PartialFractionTerm(F(-251, 120), 1, 2) in consts.remainder_expansion.terms
    assert consts.initial_values["theta"][5] == 1632960000
    assert consts.initial_values["theta2"][1] == 141434891210025


def test_theta2_at_zero_oracle(consts):
    # oracle: direct arithmetic on the displayed constants
    assert consts.theta2.eval_exact_at_zero() == 6428310336000 * 19 - 87648575175
    assert consts.theta2.eval_exact_at_zero() == 122050247808825


def test_loader_caches_default(consts):
    assert load_constants() is consts


def test_loader_caches_on_resolved_path(consts, tmp_path):
    for spelling in (None, DEFAULT_CONSTANTS_PATH, str(DEFAULT_CONSTANTS_PATH),
                     os.path.relpath(DEFAULT_CONSTANTS_PATH)):
        assert load_constants(spelling) is consts
    # any other file is read on every load and known by its resolved path;
    # its sections are parsed once per distinct text
    copy = tmp_path / "copy.txt"
    copy.write_text(DEFAULT_CONSTANTS_PATH.read_text())
    for spelling in (copy, str(tmp_path / "." / copy.name)):
        loaded = load_constants(spelling)
        assert loaded is not consts and loaded.source_path == copy.resolve()
        for name in ("p", "q", "remainder_expansion", "theta", "theta_prime",
                     "theta1", "theta1_prime", "theta2", "theta2_d9",
                     "initial_values"):
            assert getattr(loaded, name) == getattr(consts, name)


FIELDS = ("p", "q", "remainder_expansion", "theta", "theta_prime", "theta1",
          "theta1_prime", "theta2", "theta2_d9", "initial_values")


def _loaded(path):
    """The fields that load_constants(path) gives, or its error message."""
    try:
        consts = load_constants(path)
    except ConstantsFormatError as exc:
        return str(exc)
    return {name: getattr(consts, name) for name in FIELDS}


def test_section_memo_gives_what_a_cold_parse_gives(tmp_path):
    # every single-number mutant of the byte-identity set, loaded with the
    # sections of the files before it memoised, then with an empty memo
    tool_path = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "mutant.txt"
    count = 0
    for label, _, text in tool.mutants(DEFAULT_CONSTANTS_PATH.read_text()):
        path.write_text(text)
        warm = _loaded(path)
        _section.cache_clear()
        assert _loaded(path) == warm, label
        count += 1
    assert count == 411  # the packaged file and its 410 mutants


def test_loaded_tables_are_not_shared(tmp_path):
    path = tmp_path / "copy.txt"
    path.write_text(DEFAULT_CONSTANTS_PATH.read_text())
    load_constants(path).initial_values["theta"][5] = -1
    assert load_constants(path).initial_values["theta"][5] == 1632960000


def test_section_errors_name_their_own_file_and_line(tmp_path):
    text = DEFAULT_CONSTANTS_PATH.read_text()
    bad = "[values extra]\n1 1\n01 2\n"  # its third line repeats order 1
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(text + bad)
    second.write_text(text.replace("[poly q]\n", bad + "[poly q]\n", 1))
    first_line = len(text.splitlines()) + 3
    second_line = text.splitlines().index("[poly q]") + 3
    for path, lineno in ((first, first_line), (second, second_line), (first, first_line)):
        # a failed section is parsed again on every load, never memoised
        with pytest.raises(ConstantsFormatError, match=re.escape(
                f"{path}:{lineno}: repeated order 1") + "$"):
            load_constants(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_loader_reads_a_pipe_through_the_path_given(consts):
    # /dev/fd/N of a pipe resolves to a name that cannot be opened
    read, write = os.pipe()
    with os.fdopen(write, "wb") as fh:  # the 5 KB file fits the pipe's buffer
        fh.write(DEFAULT_CONSTANTS_PATH.read_bytes())
    try:
        spelling = f"/dev/fd/{read}"
        resolved = Path(spelling).resolve()
        loaded = load_constants(spelling)
    finally:
        os.close(read)
    assert loaded is not consts and loaded.source_path == resolved
    for name in FIELDS:
        assert getattr(loaded, name) == getattr(consts, name)


def test_loader_rereads_a_file_rewritten_in_place(mutate_constants):
    # one token changed in place: same path, same size
    first = load_constants(mutate_constants(r"-251/120 1 2", "-131/120 1 2"))
    second = load_constants(mutate_constants(r"-251/120 1 2", "-137/120 1 2"))
    assert first.source_path == second.source_path
    assert PartialFractionTerm(F(-131, 120), 1, 2) in first.remainder_expansion.terms
    assert PartialFractionTerm(F(-137, 120), 1, 2) in second.remainder_expansion.terms


def test_parse_integer_and_rational_tokens():
    sections = parse_constants_text("[poly a]\nscale 3/2\n0 4\n1 1/3\n3 -0\n"
                                    "[poly b]\n0 7\n2 -5\n")
    assert sections["poly a"].coeffs == (F(6), F(1, 2))
    assert sections["poly b"].coeffs == (F(7), F(0), F(-5))


def test_parse_scale_and_powers():
    sections = parse_constants_text("[poly a]\nscale -4\n0 2\n2 1/2\n")
    poly = sections["poly a"]
    assert poly.coeffs == (F(-8), F(0), F(-2))


def test_parse_pf_section():
    sections = parse_constants_text("[pf f]\n1/2 0 1\n-3 2 5\n")
    form = sections["pf f"]
    assert form.terms == (PartialFractionTerm(F(1, 2), 0, 1),
                          PartialFractionTerm(F(-3), 2, 5))


@pytest.mark.parametrize("text", [
    "0 450\n",                      # entry before section
    "[poly a]\n0 1\n0 2\n",         # repeated power
    "[poly a]\nx 1\n",              # non-integer power
    "[poly a]\n1/2 1\n",            # fractional power
    "[pf f]\n1/2 x 1\n",            # non-integer shift
    "[pf f]\n1/2 0 1.5\n",          # non-integer order
    "[pf f]\n1/2 0 0\n",            # order 0
    "[pf f]\n1/2 -1 1\n",           # negative shift
    "[values v]\na 1/2\n",          # non-integer value
    "[weird a]\n",                  # unknown section kind
    "[poly a\n",                    # unterminated header
    "[values v]\na 1\na 2\n",       # non-integer label
    "[pf f]\n1/2 0 1\n1/4 0 1\n",   # repeated term
    "[poly a]\n0 1 2\n",            # wrong arity
    "[poly a]\n0 1/0\n",            # zero denominator
    "[poly a]\nscale 2/0\n0 1\n",  # zero denominator in the scale
    "[poly a]\n0 1.5.2\n",          # not a rational
    "[poly a]\n22 1\n",             # power above the degree of q
    "[pf f]\n1e4400 0 1\n",         # numerator above MAX_POINT_BITS bits
    "[pf f]\n1e-4400 0 1\n",        # denominator above MAX_POINT_BITS bits
    "[pf f]\n1e10000000 0 1\n",     # rejected before 10^exponent is built
    "[values v]\n1 1\n01 2\n",      # one order under two labels
    "[poly a.e4]\n0 1\n",           # block exponent above 3
    "[poly a.e0]\n0 1\n[poly a.e00]\n0 1\n",  # one block under two headers
    "[poly a]\nscale 2\n0 1\nscale 3\n",  # a second scale line
])
def test_grammar_errors(text):
    with pytest.raises(ConstantsFormatError, match="<string>"):
        parse_constants_text(text)


@pytest.mark.parametrize("text, message", [
    ("# comment\n\n0 450\n", "3: entry before any section"),
    ("0 450\n", "1: entry before any section"),  # a file with no header
    ("# comment\n0 450\n[poly a]\n0 1\n", "2: entry before any section"),
    ("[poly a.e-1]\n", "1: block exponent outside 0..3"),
    ("[poly a.ex]\n", "1: bad block exponent 'x'"),
    ("[poly q.exact]\n", "1: bad block exponent 'xact'"),  # .e starts a block
    ("[poly a]\n0 1\n[poly a]\n", "3: duplicate section [poly a]"),
    ("[poly a.e0]\n0 1\n[poly a.e00]\n", "3: duplicate section [poly a.e0]"),
    ("[poly a]\nscale\n", "2: bad scale line"),
    ("[poly a]\nscale 2\n0 1\nscale 3\n", "4: repeated scale line"),
    ("[pf f]\n1/2 0\n", "2: expected '<coeff> <shift> <order>'"),
    ("[values v]\n5\n", "2: expected '<label> <integer>'"),
    ("[values v]\none 1\n", "2: bad integer 'one'"),
    ("[values v]\n5 1\n05 2\n", "3: repeated order 5"),
])
def test_line_errors_name_their_line(text, message):
    with pytest.raises(ConstantsFormatError,
                       match=re.escape(f"<string>:{message}") + "$"):
        parse_constants_text(text)


@pytest.mark.parametrize("old, new, message", [
    ("[poly q]\n", "[poly r]\n", "missing section [poly q]"),
    ("[poly theta2_d9.e", "[poly theta2_d8.e", "no blocks found for 'theta2_d9'"),
    ("\n5 1632960000\n", "\n", "theta_init must list orders "
                                 "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    ("\n10 75\n", "\n10 75\n11 1\n", "p must have degree 10 and q degree 21"),
])
def test_structure_errors_name_the_file(tmp_path, old, new, message):
    path = tmp_path / "structure.txt"
    path.write_text(DEFAULT_CONSTANTS_PATH.read_text().replace(old, new))
    with pytest.raises(ConstantsFormatError,
                       match=re.escape(f"{path}: {message}") + "$"):
        load_constants(path)


def test_source_constants_needs_every_field():
    with pytest.raises(TypeError, match="needs exactly the fields"):
        SourceConstants(p=None)


@pytest.mark.parametrize("pattern, replacement", [
    (r"1 31830835680000", "one 31830835680000"),  # non-integer table key
    (r"\[poly theta\.e0\]", "[poly theta.ex]"),    # non-integer block exponent
    (r"\[poly theta\.e0\]", "[poly theta.e-1]"),   # negative block exponent
    (r"1/2 0 1", "1/2 0 0"),                       # order 0
    (r"1/2 0 1", "1/2 -1 1"),                      # negative shift
    (r"\[poly theta\.e1\]", "[poly theta.e00]"),   # repeated block exponent
    (r"\[poly theta\.e3\]", "[poly theta.e4]"),    # block exponent above 3
])
def test_non_integer_keys_raise_format_error(mutate_constants, pattern, replacement):
    path = mutate_constants(pattern, replacement)
    # the message names the file, then the line
    with pytest.raises(ConstantsFormatError, match=re.escape(str(path)) + r":\d+: "):
        load_constants(path)


@pytest.mark.parametrize("section", [
    "[pf junk]\n1/2 0 99999999\n",
    "[poly junk]\n0 1\n",
    "[values theta_initt]\n1 1\n",     # a misspelt duplicate of a table
    "[poly theta3.e0]\n0 1\n",          # a block of no theta stage
])
def test_unknown_section_raises_format_error(tmp_path, section):
    path = tmp_path / "extra.txt"
    path.write_text(DEFAULT_CONSTANTS_PATH.read_text() + section)
    header = section.split("\n")[0]
    with pytest.raises(ConstantsFormatError,
                       match=re.escape(f"{path}: unknown section {header}") + "$"):
        load_constants(path)


@pytest.mark.parametrize("lines", [
    pytest.param("05 -1\n5 1632960000", id="05-first"),  # the later 5 won
    pytest.param("5 1632960000\n05 -1", id="05-last"),   # the later 05 won
])
def test_order_listed_under_two_labels_raises_format_error(tmp_path, lines):
    path = tmp_path / "twice.txt"
    text = DEFAULT_CONSTANTS_PATH.read_text()
    path.write_text(text.replace("\n5 1632960000\n", f"\n{lines}\n", 1))
    lineno = text.splitlines().index("5 1632960000") + 2  # the later line
    with pytest.raises(ConstantsFormatError, match=re.escape(
            f"{path}:{lineno}: repeated order 5") + "$"):
        load_constants(path)


@pytest.mark.parametrize("lines", [
    pytest.param("1/4 0 2\n1/2 0 2", id="split"),  # merged, it replayed a pass
    pytest.param("3/4 0 2\n3/4 0 2", id="twice"),  # merged, it doubled the term
])
def test_repeated_pf_term_raises_format_error_at_its_line(mutate_constants, lines):
    path = mutate_constants(r"3/4 0 2", lines)
    lineno = DEFAULT_CONSTANTS_PATH.read_text().splitlines().index("3/4 0 2") + 2
    with pytest.raises(ConstantsFormatError, match=re.escape(
            f"{path}:{lineno}: repeated term (0, 2)") + "$"):
        load_constants(path)


def test_mutated_file_loads_but_differs(mutate_constants):
    path = mutate_constants(r"5 1632960000", "5 1632960001")
    consts = load_constants(path)
    assert consts.initial_values["theta"][5] == 1632960001
