"""Constants file: grammar, structure, and the frozen checksum."""

import hashlib
import os
import re
from fractions import Fraction as F

import pytest

from cmgamma.algebra import PartialFractionTerm
from cmgamma.constants import (DEFAULT_CONSTANTS_PATH, CHAIN_LENGTHS,
                               load_constants, parse_constants_text)
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
    copies = []
    for i in range(9):  # more other files than the LRU cache holds
        copies.append(tmp_path / f"copy{i}.txt")
        copies[-1].write_text(DEFAULT_CONSTANTS_PATH.read_text())
        assert load_constants(copies[-1]) is load_constants(str(tmp_path / "." / copies[-1].name))
        assert load_constants(copies[-1]) is not consts
    assert load_constants() is consts  # the packaged file is never evicted


def test_loader_rereads_a_file_rewritten_in_place(mutate_constants):
    # one token changed in place: same path, same size
    first = load_constants(mutate_constants(r"-251/120 1 2", "-131/120 1 2"))
    second = load_constants(mutate_constants(r"-251/120 1 2", "-137/120 1 2"))
    assert first.source_path == second.source_path
    assert PartialFractionTerm(F(-131, 120), 1, 2) in first.remainder_expansion.terms
    assert PartialFractionTerm(F(-137, 120), 1, 2) in second.remainder_expansion.terms
    assert load_constants(second.source_path) is second


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
    "[values v]\na 1\na 2\n",       # repeated label
    "[poly a]\n0 1 2\n",            # wrong arity
    "[poly a]\n0 1/0\n",            # zero denominator
    "[poly a]\nscale 2/0\n0 1\n",  # zero denominator in the scale
    "[poly a]\n0 1.5.2\n",          # not a rational
    "[poly a]\n22 1\n",             # power above the degree of q
    "[pf f]\n1e4400 0 1\n",         # numerator above MAX_POINT_BITS bits
    "[pf f]\n1e-4400 0 1\n",        # denominator above MAX_POINT_BITS bits
    "[pf f]\n1e10000000 0 1\n",     # rejected before 10^exponent is built
])
def test_grammar_errors(text):
    with pytest.raises(ConstantsFormatError, match="<string>"):
        parse_constants_text(text)


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
    # the message names the file, then the line or the section
    with pytest.raises(ConstantsFormatError,
                       match=re.escape(str(path)) + r"(:\d+|: \[[^]]+\]): "):
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
    path.write_text(DEFAULT_CONSTANTS_PATH.read_text().replace(
        "\n5 1632960000\n", f"\n{lines}\n", 1))
    with pytest.raises(ConstantsFormatError, match=re.escape(
            f"{path}: [values theta_init]: repeated order 5") + "$"):
        load_constants(path)


def test_mutated_file_loads_but_differs(mutate_constants):
    path = mutate_constants(r"5 1632960000", "5 1632960001")
    consts = load_constants(path)
    assert consts.initial_values["theta"][5] == 1632960001
