"""Proof replay: kernel build, derivative chain, certificate, mutations."""

import importlib
import json
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy

import cmgamma
from cmgamma.algebra import ExpPoly, Poly
from cmgamma.cli import main
from cmgamma.constants import CHAIN_LENGTHS, DEFAULT_CONSTANTS_PATH, load_constants
from cmgamma.replay import (build_chain, chain_positivity_certificate,
                            pf_expansion_identity_check, replay_proof,
                            verify_derivative_fixtures, verify_initial_values,
                            verify_divisibility, verify_kernel_build)
from oracles import exppoly_interval


@pytest.fixture(scope="module")
def chain():
    return build_chain()


class TestKernelBuild:
    """The rebuilt theta is the chain's first entry; verify_kernel_build
    compares it with the theta display."""

    def test_matches_fixture(self, consts):
        assert build_chain(consts)["theta"][0] == consts.theta
        (rec,) = verify_kernel_build(consts)
        assert rec.passed and rec.detail == "all four exponent blocks match"

    def test_top_block_is_displayed_linear_factor(self, consts):
        built = build_chain(consts)["theta"][0]
        assert built.block(3) == Poly([-2 * 163296000, 163296000])

    def test_constant_block_constant_term(self, consts):
        built = build_chain(consts)["theta"][0]
        assert built.block(0).coeff(0) == -4 * 832809600

    def test_value_at_zero(self, consts):
        # oracle: direct arithmetic on the displayed block constants
        assert (163296000 * -2 - 3331238400 + 6989068800 - 4 * 832809600) == 0
        assert build_chain(consts)["theta"][0].eval_exact_at_zero() == 0

    def test_mismatch_fails_with_diff(self, mutate_constants):
        path = mutate_constants(r"1 435456000", "1 435456001")
        (rec,) = verify_kernel_build(load_constants(path))
        assert not rec.passed
        assert rec.detail.startswith(
            "rebuilt theta differs from fixture: e^1t block, t^1")


class TestChain:
    def test_consecutive_derivatives(self, chain):
        cur, *derivs = chain["theta"]
        for nxt in derivs:
            assert cur.deriv() == nxt
            cur = nxt

    def test_stage_accessor(self, chain, consts):
        assert chain["theta"][0] == consts.theta
        assert chain["theta1"][1] == consts.theta1_prime
        assert chain["theta2"][9] == consts.theta2_d9

    def test_factoring_relations(self, chain, consts):
        assert chain["theta"][10] == chain["theta1"][0].shift_exp(1)
        assert chain["theta1"][10] == 512 * chain["theta2"][0].shift_exp(1)
        assert chain["theta1"][0] == consts.theta1
        assert chain["theta2"][0] == consts.theta2

    def test_divisibility_invariants(self, chain):
        assert 0 not in chain["theta"][10].exponents()
        t110 = chain["theta1"][10]
        assert 0 not in t110.exponents()
        for _, poly in t110.blocks():
            for c in poly.coeffs:
                assert c.denominator == 1 and c.numerator % 512 == 0


T = sympy.Symbol("t")


def to_sympy(e: ExpPoly):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * T ** i * sympy.exp(k * T)
                       for k, p in e.blocks() for i, c in enumerate(p.coeffs)])


def test_chain_matches_sympy_differentiation(chain, consts):
    # independent oracle: sympy differentiates the fixture theta itself and
    # divides out e^t and 512 e^t; every stage and derivative must agree
    cur = to_sympy(consts.theta)
    for stage, length, factor in (("theta", 10, None), ("theta1", 10, 1), ("theta2", 9, 512)):
        if factor is not None:
            cur = sympy.expand(cur * sympy.exp(-T) / factor)
            assert cur == to_sympy(chain[stage][0]), stage
        for order in range(1, length + 1):
            cur = sympy.expand(sympy.diff(cur, T))
            assert cur == to_sympy(chain[stage][order]), (stage, order)
    assert cur == sympy.expand(725760 * (8857350 * (46 + 3 * T) * sympy.exp(T) - 1))


REPLAY_MODULE = importlib.import_module("cmgamma.replay")


def clear_replay_memos():
    for memo in (REPLAY_MODULE._derived_chain, REPLAY_MODULE._expansion_identity):
        memo.cache_clear()


def counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_sweep_calls_the_traced_entry_points(monkeypatch, tmp_path):
    # the benchmark's traced proof sweep wraps these names where they are
    # bound; a replay that bypassed one would leave that layer blank.  The
    # exact stages are memoised by value, so the counts start from empty
    # memos, and a byte-equal copy of the file at another path loads and
    # replays again but differentiates and decomposes nothing new
    clear_replay_memos()
    calls = Counter()
    monkeypatch.setattr(cmgamma, "load_constants",
                        counted(calls, "load_constants", cmgamma.load_constants))
    monkeypatch.setattr(REPLAY_MODULE, "build_chain",
                        counted(calls, "build_chain", REPLAY_MODULE.build_chain))
    monkeypatch.setattr(ExpPoly, "deriv", counted(calls, "deriv", ExpPoly.deriv))
    monkeypatch.setattr(REPLAY_MODULE, "pfd_decompose",
                        counted(calls, "pfd_decompose", REPLAY_MODULE.pfd_decompose))
    copy = tmp_path / "copy.txt"
    copy.write_bytes(DEFAULT_CONSTANTS_PATH.read_bytes())
    for path, runs in ((DEFAULT_CONSTANTS_PATH, 1), (copy, 2)):
        consts = cmgamma.load_constants(path)
        assert cmgamma.replay_proof(consts).overall
        assert cmgamma.pf_expansion_identity_check(consts).passed
        assert calls == {"load_constants": runs, "build_chain": runs,
                         "deriv": 29, "pfd_decompose": 3}


# one mutant of each section the replay memos read (the expansion, p, q)
# and of three displays they do not, between two pristine sets
INTERLEAVED_SETS = (
    None,
    (r"-251/120 1 2", "-131/120 1 2"),  # expansion
    (r"1 435456000", "1 435456001"),  # theta.e1
    (r"2 6174000", "2 6174001"),  # theta_prime.e0
    (r"0 46", "0 47"),  # theta2_d9.e1
    (r"4 44101", "4 44100"),  # p
    (r"9 30634381522", "9 30634381523"),  # q
    None,
)


def test_warm_memos_give_the_cold_results(mutate_constants):
    sets = [load_constants(mutate_constants(*m) if m else None)
            for m in INTERLEAVED_SETS]
    clear_replay_memos()
    warm = []
    for c in sets:
        chain = build_chain(c)
        chain["theta"] = ()  # the caller's own mapping, not the memo's
        del chain["theta2"]
        warm.append((build_chain(c), replay_proof(c).to_json(),
                     pf_expansion_identity_check(c)))
    for c, got in zip(sets, warm):
        clear_replay_memos()
        assert got == (build_chain(c), replay_proof(c).to_json(),
                       pf_expansion_identity_check(c))
    assert [json.loads(doc)["payload"]["overall"] for _, doc, _ in warm] == \
        ["pass", "fail", "fail", "fail", "fail", "pass", "pass", "pass"]
    assert [rep.passed for *_, rep in warm] == \
        [True, False, True, True, True, False, False, True]
    # only the expansion mutant derives a chain of its own
    assert [chain == warm[0][0] for chain, *_ in warm] == \
        [True, False] + [True] * 6


def coefficient_mutants(*prefixes: str):
    """(section header, text) of every +-1 mutant of the integer of a
    '<power> <integer>' or '<label> <integer>' line, in each section whose
    header starts with one of prefixes."""
    lines = DEFAULT_CONSTANTS_PATH.read_text(encoding="utf-8").splitlines(keepends=True)
    header = ""
    for i, line in enumerate(lines):
        toks = line.split()
        if line.startswith("["):
            header = line.strip()
        elif header.startswith(prefixes) and len(toks) == 2 and toks[0].isdigit():
            for delta in (1, -1):
                yield header, "".join(lines[:i] + [f"{toks[0]} {int(toks[1]) + delta}\n"]
                                      + lines[i + 1:])


def test_p_q_mutants_reuse_one_chain_and_one_kernel_rebuild(monkeypatch, tmp_path):
    # p and q feed only the identity checks, so the whole sweep differentiates
    # the one theta and rebuilds the one kernel once, whatever the memo size
    clear_replay_memos()
    calls = Counter()
    monkeypatch.setattr(ExpPoly, "deriv", counted(calls, "deriv", ExpPoly.deriv))
    monkeypatch.setattr(REPLAY_MODULE, "kernel_image_lifted",
                        counted(calls, "kernel", REPLAY_MODULE.kernel_image_lifted))
    texts = [DEFAULT_CONSTANTS_PATH.read_text(encoding="utf-8"),
             *(text for _, text in coefficient_mutants("[poly p]", "[poly q]"))]
    assert len(texts) == 1 + 66
    path = tmp_path / "constants.txt"
    verdicts = []
    for text in texts:
        path.write_text(text, encoding="utf-8")
        c = load_constants(path)
        assert replay_proof(c).overall
        verdicts.append(pf_expansion_identity_check(c).passed)
    assert verdicts == [True] + [False] * 66
    assert calls == {"deriv": sum(CHAIN_LENGTHS.values()), "kernel": 1}


def test_each_value_at_zero_is_formed_once_per_chain(monkeypatch, mutate_constants):
    # the initial-value table and the three induction steps read the same
    # chain entries at t = 0, and a display mutant shares the memoised
    # chain: 11 + 11 + 10 entries are evaluated, each once, over two replays
    clear_replay_memos()
    formed = Counter()
    evaluate = ExpPoly.eval_exact_at_zero

    def counting(self):
        formed["at_zero"] += getattr(self, "_at_zero", None) is None
        return evaluate(self)

    monkeypatch.setattr(ExpPoly, "eval_exact_at_zero", counting)
    pristine = replay_proof(load_constants())
    mutant = replay_proof(load_constants(
        mutate_constants(r"5 1632960000", "5 1632960001")))  # theta_init
    assert pristine.overall and not mutant.overall
    assert formed == {"at_zero": 32}


def test_display_mutants_leave_the_chain_and_certificate_unchanged(tmp_path):
    # the chain derives from the expansion alone and the positivity steps
    # read only the chain, so no mutant of a transcribed display (theta, the
    # stage displays, the bottom stage, the three initial-value tables)
    # changes either: each display is read only by its fixture comparison
    pristine = build_chain()
    certificate = chain_positivity_certificate(pristine)
    path = tmp_path / "constants.txt"
    mutated = Counter()
    for header, text in coefficient_mutants("[poly theta", "[values "):
        path.write_text(text, encoding="utf-8")
        c = load_constants(path)
        chain = build_chain(c)
        assert chain == pristine
        assert chain_positivity_certificate(chain) == certificate
        assert not replay_proof(c).overall
        mutated[header.strip("[]").split()[1].split(".")[0]] += 1
    assert mutated == {"theta": 64, "theta_prime": 62, "theta1": 44,
                       "theta1_prime": 42, "theta2": 24, "theta2_d9": 6,
                       "theta_init": 20, "theta1_init": 20, "theta2_init": 18}


class TestVerificationFragments:
    def test_kernel_fragment(self, consts):
        (rec,) = verify_kernel_build(consts)
        assert rec.passed

    def test_formula_fixtures(self, chain, consts):
        records = verify_derivative_fixtures(chain, consts)
        assert len(records) == 5 and all(r.passed for r in records)

    def test_formula_mutation_reports_coefficient(self, mutate_constants):
        path = mutate_constants(r"2 6174000", "2 6174001")  # inside theta_prime.e0
        consts = load_constants(path)
        records = verify_derivative_fixtures(build_chain(consts), consts)
        bad = [r for r in records if not r.passed]
        assert [r.name for r in bad] == ["formula-theta-prime"]
        assert "t^2" in bad[0].detail
        # two mismatches, e^t t^0 and e^0 t^2: the detail names the first in
        # (exponent, power) order
        path = mutate_constants(r"2 6174000", "2 6174001",
                                (r"0 7424524800", "0 7424524801"))
        consts = load_constants(path)
        records = verify_derivative_fixtures(build_chain(consts), consts)
        bad = [r for r in records if not r.passed]
        assert [r.name for r in bad] == ["formula-theta-prime"]
        assert bad[0].detail == ("e^0t block, t^2: computed -222264000, "
                                 "fixture -222264036")

    def test_initial_values(self, chain, consts):
        records = verify_initial_values(chain, consts)
        assert all(r.passed for r in records)

    def test_initial_value_examples(self, chain):
        assert chain["theta"][5].eval_exact_at_zero() == 1632960000
        assert chain["theta2"][1].eval_exact_at_zero() == 141434891210025
        assert chain["theta2"][9].eval_exact_at_zero() == 295702274730240
        assert chain["theta"][0].eval_exact_at_zero() == 0

    def test_initial_value_mutation_detected(self, chain, mutate_constants):
        path = mutate_constants(r"5 1632960000", "5 1632960001")
        records = verify_initial_values(chain, load_constants(path))
        table = [r for r in records if r.name == "initial-value-table"]
        assert not table[0].passed and "theta^(5)(0)" in table[0].detail

    def test_divisibility_fragment(self, chain):
        assert all(r.passed for r in verify_divisibility(chain))


def replaced(chain: dict, stage: str, order: int, new: ExpPoly) -> dict:
    """A copy of chain whose stage^(order) is new; chain itself is kept."""
    derivs = chain[stage]
    return {**chain, stage: derivs[:order] + (new,) + derivs[order + 1:]}


def const(c) -> ExpPoly:
    return ExpPoly.term(0, Poly([c]))


def replay_fails_first_at(path, capsys, step: int, name: str) -> None:
    """The replay of the file at path, and the CLI on it, fail first at step."""
    first = replay_proof(load_constants(path)).first_failure()
    assert (first.step, first.name) == (step, name)
    assert main(["replay-proof", "--constants", str(path)]) == 1
    assert capsys.readouterr().err == f"FAILED at step {step}: {name}\n"


class TestCertificate:
    """The positivity steps on hand-modified chains: the certificate reads
    the chain alone, so a mutated display file no longer reaches them."""

    def test_five_steps_pass(self, chain):
        cert = chain_positivity_certificate(chain)
        assert [s.step for s in cert.steps] == [1, 2, 3, 4, 5]
        assert cert.overall
        assert cert.first_failure() is None

    def test_bottom_stage_values_recorded(self, chain):
        cert = chain_positivity_certificate(chain)
        values = dict(cert.steps[0].exact_values_used)
        assert values["lower_bound"] == "295702274730240"

    def test_bottom_stage_mutation_fails_step_one(self, chain, mutate_constants,
                                                  capsys):
        # flip the bottom stage's e^t constant negative
        bottom = chain["theta2"][9]
        flipped = bottom - ExpPoly.term(1, Poly([2 * bottom.block(1).coeff(0)]))
        cert = chain_positivity_certificate(replaced(chain, "theta2", 9, flipped))
        assert not cert.steps[0].passed
        assert cert.first_failure().step == 1
        assert cert.steps[0].detail == "e^t block has a negative coefficient"
        # the same flip in the display file fails its fixture comparison first
        replay_fails_first_at(mutate_constants(r"0 46", "0 -46"), capsys,
                              6, "formula-theta2-9th")

    def test_negated_theta1_init_fails_step_three(self, chain, mutate_constants,
                                                  capsys):
        # theta1^(4)(0) = -500203983121920
        shifted = chain["theta1"][4] - const(2 * 500203983121920)
        cert = chain_positivity_certificate(replaced(chain, "theta1", 4, shifted))
        assert cert.steps[0].passed and cert.steps[1].passed
        assert not cert.steps[2].passed
        assert cert.first_failure().step == 3
        assert [s.detail for s in cert.steps[2:]] == [
            "negative initial value at orders [4]", "precondition failed",
            "positivity chain incomplete"]
        replay_fails_first_at(
            mutate_constants(r"4 500203983121920", "4 -500203983121920"), capsys,
            8, "initial-value-table")

    def test_theta_must_vanish_at_zero(self, chain, mutate_constants, capsys):
        # theta(0) = 4 > 0: the derivatives, hence theta1 and theta2, are
        # unchanged, but the theta step needs theta(0) = 0 exactly
        cert = chain_positivity_certificate(
            replaced(chain, "theta", 0, chain["theta"][0] + const(4)))
        assert [s.passed for s in cert.steps] == [True, True, True, False, False]
        assert dict(cert.steps[3].exact_values_used)["theta(0)"] == "4"
        assert cert.steps[3].detail == "precondition failed"
        replay_fails_first_at(mutate_constants(r"0 832809600", "0 832809599"),
                              capsys, 1, "kernel-build")

    def test_bottom_stage_lower_bound_failure_detail(self, chain):
        # P(0) + c <= 0 fails step 1 with a detail that does not claim > 0
        bottom = chain["theta2"][9] - const(10 ** 18)
        cert = chain_positivity_certificate(replaced(chain, "theta2", 9, bottom))
        assert cert.first_failure().step == 1
        assert cert.steps[0].detail == "lower bound -999704297725269760 is not > 0"

    @pytest.mark.parametrize("extra, detail", [
        (ExpPoly.term(2, Poly([1])), "bottom stage is not of the form P(t)e^t + c"),
        (ExpPoly.term(0, Poly([0, -725760])), "e^0 block is not constant"),
    ], ids=["e2-block", "e0-t-term"])
    def test_bottom_stage_shape(self, chain, extra, detail):
        bottom = chain["theta2"][9] + extra
        cert = chain_positivity_certificate(replaced(chain, "theta2", 9, bottom))
        assert cert.first_failure().step == 1
        assert cert.steps[0].detail == detail

    def test_induction_steps_cover_all_but_the_top_order(self, chain):
        # step i+1 integrates down from stage^(CHAIN_LENGTHS - 1)
        cert = chain_positivity_certificate(chain)
        for step, stage in zip(cert.steps[1:4], ("theta2", "theta1", "theta")):
            labels = [label for label, _ in step.exact_values_used]
            assert labels == [f"{stage}(0)"] + [
                f"{stage}^({o})(0)" for o in range(1, CHAIN_LENGTHS[stage])]


class TestFullReplay:
    def test_all_fifteen_steps(self):
        report = replay_proof()
        assert len(report.steps) == 15
        assert report.overall

    def test_deterministic_bytes(self):
        doc = replay_proof().to_json()
        assert doc == replay_proof().to_json()

    def test_json_schema(self):
        doc = json.loads(replay_proof().to_json())
        assert doc["schema"] == "cmgamma.report/1"
        assert doc["kind"] == "certificate"
        assert doc["payload"]["overall"] == "pass"
        step = doc["payload"]["steps"][0]
        assert set(step) == {"step", "name", "claim", "method",
                             "exact_values_used", "verdict", "detail"}

    def test_corrupted_constants_fail_cleanly(self, mutate_constants):
        path = mutate_constants(r"1 435456000", "1 435456001")
        report = replay_proof(load_constants(path))
        assert not report.overall
        first = report.first_failure()
        assert first.name in ("kernel-build", "formula-theta-prime")

    # a bottom-stage display of the wrong shape fails its fixture comparison;
    # the shape checks themselves are TestCertificate::test_bottom_stage_shape
    @pytest.mark.parametrize("pattern, replacement, step, name, detail", [
        (r"3 0", "3 1", 8, "initial-value-table",
         "theta derivative orders 1..4 must vanish at 0"),
        (r"\[poly theta2_d9\.e1\]", "[poly theta2_d9.e2]\n0 1\n[poly theta2_d9.e1]",
         6, "formula-theta2-9th", "e^2t block, t^0: computed 0, fixture 1"),
        (r"scale -725760", "scale -725760\n1 1",  # inside theta2_d9.e0
         6, "formula-theta2-9th", "e^0t block, t^1: computed 0, fixture -725760"),
    ], ids=["theta-init-order-3", "theta2-d9-e2-block", "theta2-d9-e0-t-term"])
    def test_failure_details(self, mutate_constants, capsys, pattern, replacement,
                             step, name, detail):
        path = mutate_constants(pattern, replacement)
        failed = {s.name: s.detail for s in replay_proof(load_constants(path)).steps
                  if not s.passed}
        assert detail in failed[name].split("; ")
        replay_fails_first_at(path, capsys, step, name)

    def test_leftover_e0_block_fails_steps_instead_of_raising(self, consts,
                                                              mutate_constants,
                                                              capsys):
        # theta gains -4 t^10 in its e^0 block, so theta^(10) keeps an e^0
        # block that e^t does not divide: the chain is built, and the
        # divisibility step reports it, not raises
        leftover = consts.theta + ExpPoly.term(0, Poly([0] * 10 + [-4]))
        chain = dict(REPLAY_MODULE._chain_of(leftover))
        records = verify_divisibility(chain)
        assert [r.passed for r in records] == [False, True]
        assert dict(records[0].exact_values_used)["exponents"] == "0,1,2,3"
        # in a constants file, that theta display differs from the rebuilt one
        path = mutate_constants(r"\[poly theta\.e0\]", "[poly theta.e0]\n10 1")
        report = replay_proof(load_constants(path))
        assert {s.step: s.name for s in report.steps if not s.passed} == {
            1: "kernel-build"}
        replay_fails_first_at(path, capsys, 1, "kernel-build")


class TestSpotcheck:
    """Interval corroboration of the stage positivity the certificate proves."""

    def test_positive_stages(self, chain):
        for stage, order in (("theta2", 9), ("theta", 0)):
            for t in (F(1, 10), F(1), F(10)):
                value = exppoly_interval(chain[stage][order], t, 128)
                assert value.a > 0, (stage, order, t)

    def test_zero_is_boundary_case(self, chain):
        value = exppoly_interval(chain["theta"][0], 0, 64)
        assert value.a == value.b == 0
