"""Acceptance suite: the nine exit criteria, each with its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Every tolerance is pinned here, not deferred: exact equality for
the algebraic criteria, 2^-256-scale enclosures for the scans, 1e-20
relative agreement for the polygamma cross-validation.
"""

import time
from fractions import Fraction as F

import pytest
from mpmath import mp

from cmgamma import bounds, replay, scan
from cmgamma.constants import load_constants
from cmgamma.polygamma import polygamma, polygamma_quadrature_crosscheck
from oracles import contains, overlaps, polygamma_recurrence_shift


def report(n: int, elapsed: float, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS ({elapsed:.2f}s) - {text}")


@pytest.fixture(scope="module")
def g_scan():
    t0 = time.monotonic()
    rep = scan.cm_scan("g", 8, scan.default_grid(), 256)
    return rep, time.monotonic() - t0


@pytest.fixture(scope="module")
def h_scan():
    t0 = time.monotonic()
    rep = scan.cm_scan("H", 8, scan.default_grid(), 256)
    return rep, time.monotonic() - t0


def test_criterion_1_exact_expansion_identity():
    t0 = time.monotonic()
    rep = bounds.pf_expansion_identity_check()
    elapsed = time.monotonic() - t0
    assert rep.expansion_equal, rep.detail
    assert rep.remark_equal, rep.detail
    assert elapsed < 1.0
    report(1, elapsed, "telescoped combination == 22-term expansion == "
                       "q(x)/(1800 x^2 (1+x)^10 (2+x)^10), exact")


def test_criterion_2_exact_proof_replay():
    t0 = time.monotonic()
    consts = load_constants()
    built = replay.build_theta_from_kernel(consts)  # raises on block mismatch
    assert built == consts.theta
    chain = replay.build_chain(consts)
    # spot-pin two tabulated values named in the criterion
    assert chain["theta"][5].eval_exact_at_zero() == 1632960000
    assert chain["theta2"][9].eval_exact_at_zero() == 295702274730240
    full = replay.replay_proof(consts)
    assert full.overall, full.to_text()
    cert = replay.chain_positivity_certificate(chain, consts)
    assert len(cert.steps) == 5 and cert.overall
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, elapsed, "kernel build, derivative fixtures, 29 initial values "
                       "and the 5-step positivity certificate, all exact")


def test_criterion_3_cm_scan_g(g_scan):
    rep, elapsed = g_scan
    assert rep.negative_count == 0
    assert rep.indeterminate_count == 0
    assert all(e.prec_used == 256 for e in rep.entries)
    assert len(rep.entries) == 25 * 9
    assert elapsed < 60.0
    report(3, elapsed, "cm_scan(g, k<=8) on 25-point grid 1/16..64 at 256 "
                       "bits: 225 cells, no negatives, no indeterminates")


def test_criterion_4_cm_scan_h(h_scan):
    rep, elapsed = h_scan
    assert rep.negative_count == 0
    assert rep.indeterminate_count == 0
    assert all(e.prec_used == 256 for e in rep.entries)
    assert len(rep.entries) == 25 * 9
    assert elapsed < 60.0
    report(4, elapsed, "cm_scan(H, k<=8): identical pass")


def test_criterion_5_inequality_down_to_2_pow_minus_10():
    t0 = time.monotonic()
    extended = scan.GridSpec.explicit(
        set(scan.default_grid().points)
        | set(scan.GridSpec.geometric(F(1, 1024), F(2), 7).points))
    # the inequality psi'^2 + psi'' > B is the k = 0 row of the g scan
    rep = scan.cm_scan("g", 0, extended, 256)
    elapsed = time.monotonic() - t0
    assert rep.entries[0].x == F(1, 1024)
    assert all(e.verdict == "positive" for e in rep.entries)
    assert all(e.ball.lower > 0 for e in rep.entries)
    report(5, elapsed, f"inequality strict on {len(rep.entries)} points down "
                       f"to x = 2^-10, zero failures")


def test_criterion_6_polygamma_cross_validation():
    t0 = time.monotonic()
    tol = F(1, 10 ** 20)
    for m in (1, 2, 3):
        for x in (F(1, 2), F(1), F(2), F(10)):
            series = polygamma(m, x, 128)
            shifted = polygamma_recurrence_shift(m, x, 3, 128)
            quad = polygamma_quadrature_crosscheck(m, x, 128)
            scale = abs(series.mid)
            assert abs(series.mid - shifted.mid) <= tol * scale, (m, x)
            assert abs(series.mid - quad.mid) <= tol * scale, (m, x)
            assert overlaps(series, shifted)
    with mp.workprec(400):
        assert contains(polygamma(1, 1, 128), mp.pi ** 2 / 6)
        assert contains(polygamma(2, 1, 128), -2 * mp.zeta(3))
    elapsed = time.monotonic() - t0
    report(6, elapsed, "series / recurrence-shift / quadrature agree to 1e-20 "
                       "relative at 128 bits; classical enclosures hold")


def test_criterion_7_telescoping_numerically():
    t0 = time.monotonic()
    for x in (F(1, 4), F(1), F(10)):
        rep = bounds.telescoping_identity_check(x, 192)
        assert rep.gap <= rep.combined_radius, rep.detail()
    elapsed = time.monotonic() - t0
    report(7, elapsed, "|g(x)-g(x+1) - (2/x^2)H(x)| within summed radii at "
                       "x in {1/4, 1, 10}, 192 bits")


def test_criterion_8_derivatives_vs_finite_differences():
    t0 = time.monotonic()
    h = F(1, 2 ** 20)
    for k in (1, 2, 3, 4):
        for x in (F(1), F(3)):
            target = bounds.g_derivative(k, x, 224)
            above = bounds.g_derivative(k - 1, x + h, 224)
            below = bounds.g_derivative(k - 1, x - h, 224)
            fd = (above.mid - below.mid) / (2 * h)
            third = bounds.g_derivative(k + 2, x, 96)
            tol = (target.rad + (above.rad + below.rad) / (2 * h)
                   + h ** 2 / 6 * 2 * (abs(third.mid) + third.rad))
            assert abs(fd - target.mid) <= tol, (k, x)
    elapsed = time.monotonic() - t0
    report(8, elapsed, "g^(k) matches central differences of g^(k-1) within "
                       "enclosure + O(h^2) for k=1..4 at x in {1, 3}")


# one mutation per fixture family: (pattern, replacement)
MUTATIONS = [
    ("p", r"4 44101", "4 44102"),
    ("q", r"4 2645782983", "4 2645782984"),
    ("expansion", r"-251/120 1 2", "-131/120 1 2"),
    ("theta", r"1 435456000", "1 435456001"),
    ("theta_prime", r"2 6174000", "2 6174001"),
    ("theta1", r"3 33645780", "3 33645781"),
    ("theta1_prime", r"2 928213020", "2 928213021"),
    ("theta2", r"2 11024679960", "2 11024679961"),
    ("theta2_d9", r"0 46", "0 -46"),
    ("initial-theta", r"5 1632960000", "5 1632960001"),
    ("initial-theta1", r"4 500203983121920", "4 -500203983121920"),
    ("initial-theta2", r"3 180003853569960", "3 180003853569961"),
]


@pytest.mark.parametrize("family,pattern,replacement",
                         MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_criterion_9_mutation_detection(family, pattern, replacement,
                                        mutate_constants):
    consts = load_constants(mutate_constants(pattern, replacement))
    crit1 = bounds.pf_expansion_identity_check(consts).passed
    crit2 = replay.replay_proof(consts).overall
    assert not (crit1 and crit2), \
        f"mutation in {family} escaped both exact criteria"


def test_criterion_9_summary():
    report(9, 0.0, f"all {len(MUTATIONS)} single-coefficient mutations "
                   "break criterion 1 or 2")
