"""Proof replay: kernel build, derivative chain, certificate, mutations."""

import hashlib
import importlib
import json
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy

import cmgamma
from cmgamma.algebra import ExpPoly, Poly
from cmgamma.bounds import pf_expansion_identity_check
from cmgamma.cli import main
from cmgamma.constants import CHAIN_LENGTHS, DEFAULT_CONSTANTS_PATH, load_constants
from cmgamma.errors import FixtureMismatch
from cmgamma.replay import (build_chain, build_theta_from_kernel,
                            chain_positivity_certificate, replay_proof,
                            verify_derivative_fixtures, verify_initial_values,
                            verify_divisibility, verify_kernel_build)
from oracles import exppoly_interval


CERTIFICATE_SHA256 = "ea4a9750679def5c44e5b6d21829761fa124dffb40fa9af67fe4c834604916e9"


@pytest.fixture(scope="module")
def chain():
    return build_chain()


class TestKernelBuild:
    def test_matches_fixture(self, consts):
        built = build_theta_from_kernel(consts)
        assert built == consts.theta

    def test_top_block_is_displayed_linear_factor(self, consts):
        built = build_theta_from_kernel(consts)
        assert built.block(3) == Poly([-2 * 163296000, 163296000])

    def test_constant_block_constant_term(self, consts):
        built = build_theta_from_kernel(consts)
        assert built.block(0).coeff(0) == -4 * 832809600

    def test_value_at_zero(self, consts):
        # oracle: direct arithmetic on the displayed block constants
        assert (163296000 * -2 - 3331238400 + 6989068800 - 4 * 832809600) == 0
        assert build_theta_from_kernel(consts).eval_exact_at_zero() == 0

    def test_mismatch_raises_with_diff(self, mutate_constants):
        path = mutate_constants(r"1 435456000", "1 435456001")
        with pytest.raises(FixtureMismatch) as err:
            build_theta_from_kernel(load_constants(path))
        assert "e^1t block, t^1" in str(err.value)


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


def test_sweep_calls_the_traced_entry_points(monkeypatch):
    # the benchmark's traced proof sweep wraps these names where they are
    # bound; a replay that bypassed one would leave that layer blank
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    replay_module = importlib.import_module("cmgamma.replay")
    bounds_module = importlib.import_module("cmgamma.bounds")
    monkeypatch.setattr(cmgamma, "load_constants",
                        counted("load_constants", cmgamma.load_constants))
    monkeypatch.setattr(replay_module, "build_chain",
                        counted("build_chain", replay_module.build_chain))
    monkeypatch.setattr(ExpPoly, "deriv", counted("deriv", ExpPoly.deriv))
    monkeypatch.setattr(bounds_module, "pfd_decompose",
                        counted("pfd_decompose", bounds_module.pfd_decompose))
    consts = cmgamma.load_constants(DEFAULT_CONSTANTS_PATH)
    assert cmgamma.replay_proof(consts).overall
    assert cmgamma.pf_expansion_identity_check(consts).passed
    assert calls == {"load_constants": 1, "build_chain": 1, "deriv": 29,
                     "pfd_decompose": 3}


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


class TestCertificate:
    def test_five_steps_pass(self, chain, consts):
        cert = chain_positivity_certificate(chain, consts)
        assert [s.step for s in cert.steps] == [1, 2, 3, 4, 5]
        assert cert.overall
        assert cert.first_failure() is None

    def test_bottom_stage_values_recorded(self, chain, consts):
        cert = chain_positivity_certificate(chain, consts)
        values = dict(cert.steps[0].exact_values_used)
        assert values["lower_bound"] == "295702274730240"

    def test_bottom_stage_mutation_fails_step_one(self, chain, mutate_constants):
        # flip the bottom stage's e^t constant negative
        path = mutate_constants(r"0 46", "0 -46")
        cert = chain_positivity_certificate(chain, load_constants(path))
        assert not cert.steps[0].passed
        assert cert.first_failure().step == 1

    def test_negated_theta1_init_fails_step_three(self, chain, mutate_constants):
        path = mutate_constants(r"4 500203983121920", "4 -500203983121920")
        cert = chain_positivity_certificate(chain, load_constants(path))
        assert cert.steps[0].passed and cert.steps[1].passed
        assert not cert.steps[2].passed
        assert cert.first_failure().step == 3
        assert [s.detail for s in cert.steps[2:]] == [
            "negative initial value at orders [4]", "precondition failed",
            "positivity chain incomplete"]

    def test_theta_must_vanish_at_zero(self, mutate_constants):
        # theta(0) = 4 > 0: the derivatives, hence theta1 and theta2, are
        # unchanged, but the theta step needs theta(0) = 0 exactly
        consts = load_constants(mutate_constants(r"0 832809600", "0 832809599"))
        cert = chain_positivity_certificate(build_chain(consts), consts)
        assert [s.passed for s in cert.steps] == [True, True, True, False, False]
        assert dict(cert.steps[3].exact_values_used)["theta(0)"] == "4"
        assert cert.steps[3].detail == "precondition failed"

    def test_induction_steps_cover_all_but_the_top_order(self, chain, consts):
        # step i+1 integrates down from stage^(CHAIN_LENGTHS - 1)
        cert = chain_positivity_certificate(chain, consts)
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
        # the same pin as the benchmark's certificate check
        assert hashlib.sha256(doc.encode()).hexdigest() == CERTIFICATE_SHA256

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

    def test_leftover_e0_block_fails_steps_instead_of_raising(self, mutate_constants,
                                                              capsys):
        # theta gains -4 t^10 in its e^0 block, so theta^(10) keeps an e^0
        # block that e^t does not divide: the replay reports it, not raises
        path = mutate_constants(r"\[poly theta\.e0\]", "[poly theta.e0]\n10 1")
        report = replay_proof(load_constants(path))
        failed = {s.step: s.name for s in report.steps if not s.passed}
        assert failed == {1: "kernel-build", 2: "formula-theta-prime",
                          3: "formula-theta-10th", 8: "initial-value-table",
                          9: "divisibility-theta10"}
        assert dict(report.steps[8].exact_values_used)["exponents"] == "0,1,2,3"
        assert main(["replay-proof", "--constants", str(path)]) == 1
        assert capsys.readouterr().err == "FAILED at step 1: kernel-build\n"


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
