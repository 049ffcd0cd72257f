"""Mechanical replay of the positivity-chain argument.

The chain starts from the Laplace-kernel numerator theta(t): rebuild it
from the 22-term expansion's kernel image in one pass, differentiate exactly
through the three stages

    theta --(10 derivatives)--> e^t * theta1
    theta1 --(10 derivatives)--> 512 e^t * theta2
    theta2 --(9 derivatives)--> bottom stage 725760*(8857350(46+3t)e^t - 1)

and certify positivity bottom-up: the bottom stage is positive by an exact
coefficient comparison (using only e^t >= 1 and t >= 0), and each lower
derivative follows by integration from 0 with a nonnegative initial value.
Everything numeric in the certificate is an exact integer or rational; no
floating-point or interval evaluation enters it.  `build_chain` returns a
plain mapping {stage: (stage, stage', ..., stage^(n))}, so theta1^(10) is
chain["theta1"][10].  Each certificate fragment numbers its own steps from
1, and the full replay renumbers them by position.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import ExpPoly, PartialFractionForm, Poly
from .constants import (CHAIN_LENGTHS, KERNEL_LIFT, KERNEL_SCALE,
                        SourceConstants, constants_or_default)
from .errors import FixtureMismatch
from .reporting import stable_json_dumps

# theta^(10) = 1 * e^t * theta1 and theta1^(10) = 512 * e^t * theta2
_STAGE_FIXTURE_FACTOR = {"theta1": 1, "theta2": 512}

_LIFTS_POSITIVITY = ("initial values nonnegative; integration from 0 lifts "
                     "positivity down the chain")

# Certificate steps 2-4, bottom stage upward: (stage, step name, claim,
# whether the stage must vanish at 0 rather than be >= 0 there, detail on a
# pass, detail when an initial value is negative, detail otherwise).  Each
# step covers derivative orders 1 .. CHAIN_LENGTHS[stage] - 1.
_INDUCTION_STEPS = (
    ("theta2", "theta2-chain-positive",
     "theta2^(i) > 0 on (0, inf) for i = 8..0", False,
     _LIFTS_POSITIVITY, "negative initial value at orders {bad}",
     "precondition above failed"),
    ("theta1", "theta1-chain-positive",
     "theta1^(10) = 512 e^t theta2 > 0, hence "
     "theta1^(i) > 0 on (0, inf) for i = 9..0", False,
     _LIFTS_POSITIVITY, "negative initial value at orders {bad}",
     "precondition above failed"),
    ("theta", "theta-chain-positive",
     "theta^(10) = e^t theta1 > 0, hence theta^(i) > 0 on "
     "(0, inf) for i = 9..1 and theta >= 0 with theta(0) = 0", True,
     "theta increases from theta(0) = 0", "precondition failed",
     "precondition failed"),
)


class StepRecord(NamedTuple):
    """One certificate line: a claim, how it was checked, and the verdict."""

    step: int
    name: str
    claim: str
    method: str
    exact_values_used: tuple[tuple[str, str], ...]
    verdict: str  # "pass" | "fail"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "name": self.name,
            "claim": self.claim,
            "method": self.method,
            "exact_values_used": {k: v for k, v in self.exact_values_used},
            "verdict": self.verdict,
            "detail": self.detail,
        }


class CertificateReport(NamedTuple):
    """Ordered step records plus the overall verdict and a readable trace."""

    steps: tuple[StepRecord, ...]

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.steps)

    def first_failure(self) -> StepRecord | None:
        for s in self.steps:
            if not s.passed:
                return s
        return None

    def to_json(self) -> str:
        payload = {
            "overall": "pass" if self.overall else "fail",
            "steps": [s.to_json_dict() for s in self.steps],
        }
        return stable_json_dumps(payload, "certificate")

    def to_text(self) -> str:
        lines = []
        for s in self.steps:
            mark = "PASS" if s.passed else "FAIL"
            lines.append(f"[{mark}] step {s.step}: {s.name} -- {s.claim}")
            if s.detail:
                lines.append(f"       {s.detail}")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _exppoly_diff(a: ExpPoly, b: ExpPoly) -> str:
    """First mismatching coefficient between two exponential polynomials."""
    for k in sorted(set(a.exponents()) | set(b.exponents())):
        pa, pb = a.block(k), b.block(k)
        if pa == pb:
            continue
        top = max(pa.degree, pb.degree)
        for j in range(top + 1):
            if pa.coeff(j) != pb.coeff(j):
                return (f"e^{k}t block, t^{j}: computed {pa.coeff(j)}, "
                        f"fixture {pb.coeff(j)}")
    return "structurally equal"


def kernel_image_lifted(form: PartialFractionForm) -> ExpPoly:
    """The form's Laplace kernel image, multiplied through by e^(LIFT*t).

    c/(x+a)^m is the Laplace transform of (c/(m-1)!) t^(m-1) e^(-a*t); lifted,
    that term is the t^(m-1) coefficient of the e^((LIFT-a)t) block, which
    keeps a nonnegative exponent because every decay a is <= LIFT.  The
    form's terms are sorted by (shift, order), so each block's coefficient
    list only grows.
    """
    blocks: dict[int, list] = {}
    for c, a, m in form.terms:
        if a > KERNEL_LIFT:
            raise FixtureMismatch(
                f"kernel decay {a} exceeds exponent lift {KERNEL_LIFT}")
        cs = blocks.setdefault(KERNEL_LIFT - a, [])
        cs += [0] * (m - 1 - len(cs)) + [c / math.factorial(m - 1)]
    return ExpPoly({k: Poly(cs) for k, cs in blocks.items()})


def build_theta_from_kernel(constants: SourceConstants | None = None) -> ExpPoly:
    """Rebuild theta from the expansion's kernel and match it to the fixture.

    theta = KERNEL_SCALE * e^(2t) * [t e^t - (e^t - 1) * (kernel image)]
          = KERNEL_SCALE * [t e^(3t) - e^t L + L]  with L the lifted image;
    raises FixtureMismatch with the first per-exponent coefficient diff if
    the rebuilt object differs from the transcribed display.
    """
    constants = constants_or_default(constants)
    lifted = kernel_image_lifted(constants.remainder_expansion)
    built = KERNEL_SCALE * (ExpPoly.term(1 + KERNEL_LIFT, Poly((0, 1)))
                            - lifted.shift_exp(1) + lifted)
    if built != constants.theta:
        raise FixtureMismatch("rebuilt theta differs from fixture: "
                              + _exppoly_diff(built, constants.theta))
    return built


def build_chain(constants: SourceConstants | None = None
                ) -> dict[str, tuple[ExpPoly, ...]]:
    """Differentiate the fixture theta through all three stages exactly:
    {stage: (stage, stage', ..., stage^(n))} for theta, theta1 and theta2.

    Each stage after the first is the previous stage's last derivative
    with factor * e^t divided out of its blocks of exponent >= 1, each
    shifted one exponent down; an e^0 block left over is not raised on here
    but fails the divisibility steps.
    """
    constants = constants_or_default(constants)
    chain = {}
    cur = constants.theta
    for stage, length in CHAIN_LENGTHS.items():
        if stage in _STAGE_FIXTURE_FACTOR:
            inv = Fraction(1, _STAGE_FIXTURE_FACTOR[stage])
            cur = ExpPoly({k - 1: p * inv for k, p in cur.blocks() if k})
        derivs = [cur]
        for _ in range(length):
            cur = cur.deriv()
            derivs.append(cur)
        chain[stage] = tuple(derivs)
    return chain


def _step(name: str, claim: str, method: str, values, ok: bool,
          detail: str = "") -> StepRecord:
    """An unnumbered step record; _numbered assigns the step numbers."""
    vals = tuple((str(k), str(v)) for k, v in values)
    return StepRecord(0, name, claim, method, vals,
                      "pass" if ok else "fail", detail)


def _numbered(records) -> tuple[StepRecord, ...]:
    """The records numbered 1, 2, ... by position."""
    return tuple(r._replace(step=i) for i, r in enumerate(records, 1))


def verify_kernel_build(constants: SourceConstants | None = None
                        ) -> tuple[StepRecord, ...]:
    """Certificate fragment: the kernel rebuild reproduces the theta display."""
    constants = constants_or_default(constants)
    try:
        build_theta_from_kernel(constants)
        ok, detail = True, "all four exponent blocks match"
    except FixtureMismatch as exc:
        ok, detail = False, str(exc)
    return _numbered([_step(
        "kernel-build",
        "scale * e^2t * [t e^t - (e^t - 1) * kernel(expansion)] equals theta",
        "exact-exppoly-equality", [("kernel_scale", KERNEL_SCALE)], ok, detail)])


def verify_derivative_fixtures(chain: dict,
                               constants: SourceConstants | None = None
                               ) -> tuple[StepRecord, ...]:
    """Certificate fragment: the displayed derivative formulas match.

    Minimum fixture set: theta', theta^(10) (= e^t theta1), theta1',
    theta1^(10) (= 512 e^t theta2), theta2^(9); the intermediate displays are
    implied by exact differentiation and pinned at t=0 by the value table.
    """
    constants = constants_or_default(constants)
    checks = [
        ("theta-prime", chain["theta"][1], constants.theta_prime),
        ("theta-10th", chain["theta"][10], constants.theta1.shift_exp(1)),
        ("theta1-prime", chain["theta1"][1], constants.theta1_prime),
        ("theta1-10th", chain["theta1"][10],
         _STAGE_FIXTURE_FACTOR["theta2"] * constants.theta2.shift_exp(1)),
        ("theta2-9th", chain["theta2"][9], constants.theta2_d9),
    ]
    out = []
    for name, computed, fixture in checks:
        ok = computed == fixture
        out.append(_step(f"formula-{name}",
                         f"computed {name.replace('-', ' ')} equals the displayed fixture",
                         "exact-exppoly-equality", [],
                         ok, "" if ok else _exppoly_diff(computed, fixture)))
    return _numbered(out)


def verify_initial_values(chain: dict,
                          constants: SourceConstants | None = None
                          ) -> tuple[StepRecord, ...]:
    """Certificate fragment: all 29 tabulated t=0 values match, plus theta(0)=0."""
    constants = constants_or_default(constants)
    theta0 = chain["theta"][0].eval_exact_at_zero()
    bad: list[str] = []
    for stage, length in CHAIN_LENGTHS.items():
        for order in range(1, length + 1):
            got = chain[stage][order].eval_exact_at_zero()
            want = constants.initial_values[stage][order]
            if got != want:
                bad.append(f"{stage}^({order})(0): computed {got}, table {want}")
    zeros = all(constants.initial_values["theta"][o] == 0 for o in range(1, 5))
    if not zeros:
        bad.append("theta derivative orders 1..4 must vanish at 0")
    return _numbered([
        _step("initial-theta-zero", "theta(0) = 0", "exact-evaluation",
              [("theta(0)", theta0)], theta0 == 0),
        _step("initial-value-table",
              "all 29 tabulated derivative values at t=0 match the chain",
              "exact-evaluation", [("values_checked", "29")], not bad,
              "; ".join(bad) if bad else "29/29 equal")])


def verify_divisibility(chain: dict) -> tuple[StepRecord, ...]:
    """Certificate fragment: the factor-out steps are exact.

    theta^(10) must carry no e^0 block (so e^t divides it), and theta1^(10)
    must carry no e^0 block with every coefficient divisible by 512.
    """
    t10 = chain["theta"][10]
    t110 = chain["theta1"][10]
    div512 = all(c.denominator == 1 and c.numerator % 512 == 0
                 for _, p in t110.blocks() for c in p.coeffs)
    return _numbered([
        _step("divisibility-theta10",
              "theta^(10) has no e^0 block (e^t factors out exactly)",
              "exponent-support-check",
              [("exponents", ",".join(map(str, t10.exponents())))],
              0 not in t10.exponents()),
        _step("divisibility-theta1-10th",
              "theta1^(10) has no e^0 block and 512 divides every coefficient",
              "exact-integer-divisibility",
              [("exponents", ",".join(map(str, t110.exponents())))],
              0 not in t110.exponents() and div512)])


def _bottom_stage_positivity(stage: ExpPoly) -> tuple[bool, list, str]:
    """Coefficient-level proof that the bottom stage is positive for t >= 0.

    Requires the shape P(t)e^t + c with P having nonnegative coefficients:
    then the value is >= P(0) + c for all t >= 0 (using e^t >= 1, t >= 0),
    and P(0) + c > 0 is an exact integer comparison.
    """
    if any(k not in (0, 1) for k in stage.exponents()):
        return False, [], "bottom stage is not of the form P(t)e^t + c"
    p1 = stage.block(1)
    p0 = stage.block(0)
    if p0.degree > 0:
        return False, [], "e^0 block is not constant"
    if any(c < 0 for c in p1.coeffs):
        return False, [], "e^t block has a negative coefficient"
    const = p0.coeff(0)
    lower = p1(Fraction(0)) + const
    values = [("e^t_block_at_0", p1(Fraction(0))), ("constant_block", const),
              ("lower_bound", lower)]
    return lower > 0, values, f"value >= {lower} > 0 for all t >= 0"


def chain_positivity_certificate(chain: dict,
                                 constants: SourceConstants | None = None
                                 ) -> CertificateReport:
    """The five-step positivity chain, bottom stage upward.

    1. the bottom stage theta2^(9) is positive on [0, inf) by an exact
       coefficient comparison (only e^t >= 1 and t >= 0 are used);
    2. integrating from 0 with the tabulated nonnegative initial values,
       every theta2 derivative down to theta2 itself is positive on (0, inf);
    3. theta1^(10) = 512 e^t theta2 > 0, and the same induction over the
       tabulated theta1 initial values gives theta1 > 0;
    4. theta^(10) = e^t theta1 > 0, the theta initial values are >= 0 and
       theta(0) = 0, so theta is increasing and positive on (0, inf);
    5. hence the kernel integrand is nonnegative, H is completely monotonic,
       and so is g(x) - g(x+1) = (2/x^2) H(x) as a product of completely
       monotonic factors; the shift induction transfers this to g itself.
    """
    constants = constants_or_default(constants)
    steps: list[StepRecord] = []

    # the bottom stage is taken from the transcribed display (equal to the
    # computed one once the formula fixtures have been verified)
    ok1, vals1, det1 = _bottom_stage_positivity(constants.theta2_d9)
    steps.append(_step("bottom-stage-positive",
                       "theta2^(9)(t) > 0 for all t >= 0",
                       "coefficient-sign-check", vals1, ok1, det1))

    ok = ok1
    for (stage, name, claim, vanishes, on_pass, on_negative,
         on_other) in _INDUCTION_STEPS:
        table = constants.initial_values[stage]
        orders = range(1, CHAIN_LENGTHS[stage])
        base = chain[stage][0].eval_exact_at_zero()
        bad = [o for o in orders if table[o] < 0]
        ok = ok and not bad and (base == 0 if vanishes else base >= 0)
        vals = [(f"{stage}(0)", base)]
        vals += [(f"{stage}^({o})(0)", table[o]) for o in orders]
        detail = (on_pass if ok else on_negative.format(bad=bad) if bad
                  else on_other)
        steps.append(_step(name, claim, "integration-from-zero-induction",
                           vals, ok, detail))

    steps.append(_step("cm-conclusion",
                       "the kernel integrand theta(t) e^(-(x+2)t)/(e^t - 1) is "
                       "nonnegative, so H is completely monotonic; so is "
                       "g(x) - g(x+1) = (2/x^2) H(x) as a product of completely "
                       "monotonic factors, and the shift induction (with the "
                       "derivatives vanishing at infinity) extends this to g "
                       "for every derivative order k >= 0",
                       "cm-closure-inference",
                       [("kernel_scale", str(KERNEL_SCALE))], ok,
                       "sign conditions established by steps 1-4" if ok else
                       "positivity chain incomplete"))
    return CertificateReport(_numbered(steps))


def replay_proof(constants: SourceConstants | None = None) -> CertificateReport:
    """Full proof replay: kernel build, formula fixtures, initial values,
    divisibility, then the five positivity steps, numbered 1-15 by position.
    Never raises on a failed check; failures become 'fail' verdicts so CI
    can report them."""
    constants = constants_or_default(constants)
    chain = build_chain(constants)
    return CertificateReport(_numbered(
        verify_kernel_build(constants)
        + verify_derivative_fixtures(chain, constants)
        + verify_initial_values(chain, constants)
        + verify_divisibility(chain)
        + chain_positivity_certificate(chain, constants).steps))
