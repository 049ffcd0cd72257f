"""Proof replay: kernel build, derivative chain, certificate, mutations."""

import importlib
import json
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy

import cmgamma
from cmgamma.algebra import ExpPoly, Poly
from cmgamma.bounds import pf_expansion_identity_check
from cmgamma.constants import DEFAULT_CONSTANTS_PATH, load_constants
from cmgamma.errors import FixtureMismatch, IndeterminateSign
from cmgamma.replay import (build_chain, build_theta_from_kernel,
                            chain_positivity_certificate,
                            grid_positivity_spotcheck, replay_proof,
                            verify_derivative_fixtures, verify_initial_values,
                            verify_divisibility, verify_kernel_build)


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
        cur = chain.theta
        for nxt in chain.theta_derivs:
            assert cur.deriv() == nxt
            cur = nxt

    def test_stage_accessor(self, chain, consts):
        assert chain.stage("theta", 0) == consts.theta
        assert chain.stage("theta1", 1) == consts.theta1_prime
        assert chain.stage("theta2", 9) == consts.theta2_d9

    def test_factoring_relations(self, chain, consts):
        assert chain.stage("theta", 10) == chain.theta1.shift_exp(1)
        assert chain.stage("theta1", 10) == 512 * chain.theta2.shift_exp(1)
        assert chain.theta1 == consts.theta1
        assert chain.theta2 == consts.theta2

    def test_divisibility_invariants(self, chain):
        assert 0 not in chain.stage("theta", 10).exponents()
        t110 = chain.stage("theta1", 10)
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
            assert cur == to_sympy(chain.stage(stage)), stage
        for order in range(1, length + 1):
            cur = sympy.expand(sympy.diff(cur, T))
            assert cur == to_sympy(chain.stage(stage, order)), (stage, order)
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
        assert chain.stage("theta", 5).eval_exact_at_zero() == 1632960000
        assert chain.stage("theta2", 1).eval_exact_at_zero() == 141434891210025
        assert chain.stage("theta2", 9).eval_exact_at_zero() == 295702274730240
        assert chain.theta.eval_exact_at_zero() == 0

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
        cert.require_pass()  # must not raise

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


class TestFullReplay:
    def test_all_fifteen_steps(self):
        report = replay_proof()
        assert len(report.steps) == 15
        assert report.overall

    def test_deterministic_bytes(self):
        assert replay_proof().to_json() == replay_proof().to_json()

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


class TestSpotcheck:
    def test_positive_stages(self, chain):
        rep = grid_positivity_spotcheck(
            chain, [("theta2", 9), ("theta", 0)], [F(1, 10), F(1), F(10)], 128)
        assert rep.passed
        assert all(e.verdict == "positive" for e in rep.entries)

    def test_zero_is_boundary_case(self, chain):
        rep = grid_positivity_spotcheck(chain, [("theta", 0)], [F(0)], 64)
        assert rep.entries[0].verdict == "boundary-zero"
        assert rep.passed

    def test_negative_grid_rejected(self, chain):
        with pytest.raises(IndeterminateSign):
            grid_positivity_spotcheck(chain, [("theta", 0)], [F(-1)], 64)

    def test_json_deterministic(self, chain):
        grid = [F(0), F(1)]
        a = grid_positivity_spotcheck(chain, [("theta", 1)], grid, 64).to_json()
        b = grid_positivity_spotcheck(chain, [("theta", 1)], grid, 64).to_json()
        assert a == b and json.loads(a)["kind"] == "spotcheck"
