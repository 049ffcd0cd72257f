"""Exact algebra layer: polynomials, exponential polynomials, partial fractions."""

import math
import operator
import random
import time
from fractions import Fraction as F

import pytest
from mpmath import mp

from cmgamma.algebra import (ExpPoly, PartialFractionForm, PartialFractionTerm,
                             Poly, as_fraction, pfd_decompose, pfd_recompose)
from cmgamma.ball import Ball
from cmgamma.bounds import g_eval
from cmgamma.constants import KERNEL_LIFT, load_constants
from cmgamma.errors import DegreeError, DomainError, FixtureMismatch
from cmgamma.polygamma import polygamma
from cmgamma.replay import kernel_image_lifted
from cmgamma.scan import GridSpec, default_grid
from oracles import exppoly_interval

# Coefficients of the degree-10 bound numerator, used repeatedly below.
P_COEFFS = (450, 3600, 13290, 29700, 44101, 45050, 31865, 15370, 4840, 900, 75)


def rational_functions_equal(n1, d1, n2, d2):
    """Exact equality of n1/d1 and n2/d2 by cross-multiplication."""
    return n1 * d2 == n2 * d1


def deriv(p: Poly) -> Poly:
    """The formal derivative, as the e^0 block of ExpPoly.deriv."""
    return ExpPoly.term(0, p).deriv().block(0)


def rand_poly(rng, max_deg=6, span=30):
    return Poly([F(rng.randint(-span, span), rng.randint(1, 7))
                 for _ in range(rng.randint(0, max_deg + 1))])


class TestPoly:
    def test_p_constant_term(self):
        assert Poly(P_COEFFS)(0) == 450

    def test_p_at_one_equals_coefficient_sum(self):
        # oracle: evaluation at 1 is the plain sum of the coefficients
        assert Poly(P_COEFFS)(1) == sum(P_COEFFS) == 189241

    def test_zero_derivative(self):
        assert deriv(Poly.zero()) == Poly.zero()
        assert deriv(Poly.const(F(7, 3))) == Poly.zero()
        assert deriv(Poly([5, 0, 3])) == Poly([0, 6])

    def test_normalization_strips_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert not Poly([0]) and Poly([0]) == Poly.zero()

    def test_eval_horner_rational_point(self):
        p = Poly([F(1, 2), 0, 1])
        assert p(F(1, 3)) == F(1, 2) + F(1, 9)

    def test_leibniz_rule_randomized(self):
        rng = random.Random(20240817)
        for _ in range(50):
            a, b = rand_poly(rng), rand_poly(rng)
            assert deriv(a * b) == deriv(a) * b + a * deriv(b)

    def test_taylor_shift(self):
        assert Poly([0, 0, 1]).shift(1) == Poly([1, 2, 1])
        rng = random.Random(7)
        for _ in range(20):
            p, c = rand_poly(rng), F(rng.randint(-4, 4), rng.randint(1, 5))
            x = F(rng.randint(-10, 10), rng.randint(1, 9))
            assert p.shift(c)(x) == p(x + c)

    def test_pow(self):
        assert Poly([1, 1]) ** 10 == Poly(
            [1, 10, 45, 120, 210, 252, 210, 120, 45, 10, 1])

    def test_immutable(self):
        p = Poly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_repr_skips_zero_coefficients(self):
        assert repr(Poly([1, 0, F(3, 2)])) == "Poly(1 + 3/2*t^2)"
        assert repr(Poly([0, 2])) == "Poly(2*t^1)"
        assert repr(Poly.zero()) == "Poly(0)"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["+", "-", "*"])
@pytest.mark.parametrize("make", [lambda: Poly([1, 2]),
                                  lambda: ExpPoly.term(1, Poly([1])),
                                  lambda: Ball(1, 0, 64)],
                         ids=["Poly", "ExpPoly", "Ball"])
def test_str_operand_is_unsupported(make, op):
    # the operator returns NotImplemented, so Python raises its own error;
    # str * value is str's repetition, which refuses a non-int
    with pytest.raises(TypeError,
                       match="unsupported operand type|can't multiply sequence"):
        op(make(), "x")


# a constructor and one slot of every immutable value type
VALUE_TYPES = {
    "Ball": (lambda: Ball(1, 0, 64), "mid"),
    "Poly": (lambda: Poly([1, 2]), "_num"),
    "ExpPoly": (lambda: ExpPoly.term(1, Poly([1])), "_blocks"),
    "PartialFractionForm": (lambda: PartialFractionForm([(1, 0, 1)]), "terms"),
    "GridSpec": (default_grid, "points"),
    "SourceConstants": (load_constants, "p"),
}


@pytest.mark.parametrize("action", ["set", "del"])
@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_types_immutable(name, action):
    make, field = VALUE_TYPES[name]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        if action == "set":
            setattr(obj, field, before)
        else:
            delattr(obj, field)
    assert getattr(obj, field) is before


class TestExpPoly:
    def test_derivative_of_exp_t(self):
        e = ExpPoly.term(1, Poly([1]))
        assert e.deriv() == e

    def test_derivative_of_displayed_block(self):
        e = ExpPoly.term(3, Poly([-2 * 163296000, 163296000]))
        assert e.deriv() == ExpPoly.term(3, Poly([-5 * 163296000, 3 * 163296000]))

    def test_eval_exact_at_zero(self):
        e = ExpPoly({0: Poly([3]), 1: Poly([4, 99]), 2: Poly([-5])})
        assert e.eval_exact_at_zero() == 2

    # exppoly_interval is the tests' evaluator for stage positivity

    def test_eval_ball_constant(self):
        v = exppoly_interval(ExpPoly.term(0, Poly([5])), F(7), 64)
        assert v.a == v.b == 5

    def test_eval_ball_exact_at_zero(self):
        e = ExpPoly({1: Poly([2, 1]), 3: Poly([-2])})
        v = exppoly_interval(e, 0, 64)
        assert v.a == v.b == 0

    def test_eval_ball_containment_at_4x_precision(self):
        rng = random.Random(13)
        for _ in range(15):
            e = ExpPoly({k: rand_poly(rng, 3) for k in range(rng.randint(1, 4))})
            t0 = F(rng.randint(-8, 8), rng.randint(1, 5))
            enclosure = exppoly_interval(e, t0, 64)
            with mp.workprec(256):
                t = mp.mpf(t0.numerator) / t0.denominator
                value = mp.fsum(mp.mpf(p(t0).numerator) / p(t0).denominator
                                * mp.exp(k * t) for k, p in e.blocks())
            assert enclosure.a <= value <= enclosure.b

    def test_derivative_linearity_randomized(self):
        rng = random.Random(3)
        for _ in range(20):
            a = ExpPoly({k: rand_poly(rng, 3) for k in (0, 2)})
            b = ExpPoly({k: rand_poly(rng, 3) for k in (1, 2)})
            assert (a + b).deriv() == a.deriv() + b.deriv()


class TestPartialFractions:
    def test_textbook_decomposition(self):
        form = pfd_decompose(Poly([1]), [(0, 1), (1, 1)])
        assert form.terms == (PartialFractionTerm(F(1), 0, 1),
                              PartialFractionTerm(F(-1), 1, 1))

    def test_recompose_textbook(self):
        form = PartialFractionForm([
            PartialFractionTerm(F(1), 0, 1), PartialFractionTerm(F(-1), 1, 1)])
        num, den = pfd_recompose(form)
        assert num == Poly([1]) and den == Poly([0, 1, 1])

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            pfd_decompose(Poly([0, 0, 1]), [(0, 1), (1, 1)])

    def test_roundtrip_randomized(self):
        # shifts in {0,1,2,3}, multiplicities up to 10, proper numerators
        rng = random.Random(20240818)
        for _ in range(25):
            shifts = rng.sample((0, 1, 2, 3), rng.randint(1, 3))
            factors = [(a, rng.randint(1, 10)) for a in shifts]
            total = sum(m for _, m in factors)
            num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(rng.randint(1, total))])
            if not num:
                continue
            form = pfd_decompose(num, factors)
            got_num, got_den = pfd_recompose(form)
            den = Poly([1])
            for a, m in factors:
                den = den * Poly([a, 1]) ** m
            assert rational_functions_equal(got_num, got_den, num, den)

    def test_decomposition_of_bound_numerator(self):
        # oracle: multiply the produced terms back over the common denominator
        form = pfd_decompose(Poly(P_COEFFS) * F(1, 900), [(0, 4), (1, 10)])
        num, den = pfd_recompose(form)
        target = Poly.monomial(900, 4) * Poly([1, 1]) ** 10
        assert rational_functions_equal(num, den, Poly(P_COEFFS), target)
        assert num.degree < den.degree  # proper: no polynomial part

    def test_canonical_ordering_and_merge(self):
        form = PartialFractionForm([
            PartialFractionTerm(F(1), 2, 3), PartialFractionTerm(F(1), 0, 1),
            PartialFractionTerm(F(2), 2, 3), PartialFractionTerm(F(-1), 0, 1)])
        assert form.terms == (PartialFractionTerm(F(3), 2, 3),)

    def test_derivative_matches_recomposed_derivative(self):
        form = pfd_decompose(Poly([1, 1]), [(0, 2), (1, 1)])
        num, den = pfd_recompose(form)
        for k in range(5):
            for x in (F(1, 3), F(2), F(-1, 2), F(7, 5)):
                assert form.eval_exact(x, k) == num(x) / den(x)
            # quotient rule on the recomposed fraction
            num, den = deriv(num) * den - num * deriv(den), den * den

    def test_eval_exact(self):
        form = pfd_decompose(Poly([1]), [(0, 1), (1, 1)])
        assert form.eval_exact(F(1, 2)) == F(1) / (F(1, 2) * F(3, 2))

    def test_eval_exact_at_a_pole(self):
        form = PartialFractionForm([(F(1), 0, 1), (F(1), 2, 1)])
        with pytest.raises(DomainError, match="^evaluation at pole x = -2$"):
            form.eval_exact(F(-2))

    @pytest.mark.parametrize("term, message", [
        ((F(1), 0, 0), "partial-fraction order must be >= 1"),
        ((F(1), -1, 1), "shift must be a nonnegative integer"),
    ])
    def test_constructor_refuses_order_zero_and_negative_shift(self, term, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PartialFractionForm([term])

    def test_decompose_refuses_a_repeated_shift(self):
        with pytest.raises(ValueError,
                           match="^denominator shifts must be pairwise distinct$"):
            pfd_decompose(Poly([1]), [(0, 1), (0, 2)])

    def test_repr(self):
        form = PartialFractionForm([(F(-2, 3), 1, 2), (F(1), 0, 1)])
        assert repr(form) == "PF[1/x + -2/3/(x+1)^2]"
        assert repr(PartialFractionForm([])) == "PF[0]"


@pytest.mark.parametrize("make", [
    lambda: PartialFractionForm([(F(1), 1.5, 2.9)]),  # was PF[1/(x+1)^2]
    lambda: PartialFractionForm([(F(1), 0, 2.0)]),
    lambda: PartialFractionForm([(F(1), True, 2)]),
    lambda: PartialFractionForm([(F(1), 0, True)]),
    lambda: pfd_decompose(Poly([1]), [(0, 2.0)]),
    lambda: pfd_decompose(Poly([1]), [(True, 2)]),
    lambda: ExpPoly({True: Poly((1,))}),  # was accepted and printed e^Truet
    lambda: ExpPoly({1.0: Poly((1,))}),
    lambda: ExpPoly.term(1, Poly((1,))).shift_exp(True),
    lambda: ExpPoly.term(1, Poly((1,))).shift_exp(-2),
    lambda: Poly.monomial(5, True),  # was 5t
    lambda: Poly.monomial(5, 2.0),
    lambda: Poly((1, 1)) ** True,  # was the base
    lambda: Poly((1, 1)) ** 2.0,
    lambda: Poly((1, 2)).coeff(True),  # was 2, the t^1 coefficient
    lambda: Poly((1, 2)).coeff(1.5),  # was a bare TypeError
    lambda: ExpPoly.term(1, Poly((1,))).block(True),  # was the e^t block
    lambda: ExpPoly.term(1, Poly((1,))).block(1.0),
], ids=["pf-float-shift", "pf-float-order", "pf-bool-shift", "pf-bool-order",
        "pfd-float-order", "pfd-bool-shift", "exppoly-bool-exponent",
        "exppoly-float-exponent", "shift-exp-bool", "shift-exp-below-zero",
        "monomial-bool-power", "monomial-float-power", "pow-bool-exponent",
        "pow-float-exponent", "coeff-bool-power", "coeff-float-power",
        "block-bool-exponent", "block-float-exponent"])
def test_float_and_bool_indices_refused(make):
    """Shifts, orders, powers and exponents are ints; a float or a bool is
    refused, never truncated by int() or printed as an exponent."""
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("k", [True, 1.0, -1], ids=["bool", "float", "negative"])
def test_eval_exact_refuses_an_order_that_is_not_a_natural_number(k):
    # True acted as k = 1, 1.0 raised a bare TypeError and -1 math.perm's error
    form = PartialFractionForm([(F(1), 0, 1)])
    with pytest.raises(ValueError,
                       match="^derivative order must be a nonnegative integer$"):
        form.eval_exact(F(1, 2), k)


def one_term(coeff, shift, order):
    return PartialFractionForm([PartialFractionTerm(coeff, shift, order)])


class TestKernelMap:
    """kernel_image_lifted on one-term forms: c/(x+a)^m lands at t^(m-1) in
    the e^((LIFT-a)t) block with coefficient c/(m-1)!."""

    def test_displayed_term(self):
        assert kernel_image_lifted(one_term(F(13, 90), 1, 4)) == \
            ExpPoly.term(KERNEL_LIFT - 1, Poly.monomial(F(13, 540), 3))

    def test_simple_pole_at_zero(self):
        assert kernel_image_lifted(one_term(F(1), 0, 1)) == \
            ExpPoly.term(KERNEL_LIFT, Poly.const(1))

    def test_order_ten_factorial_scaling(self):
        # oracle: 1800 * 9! = 653184000
        assert 1800 * math.factorial(9) == 653184000
        assert kernel_image_lifted(one_term(F(-1, 1800), 1, 10)) == \
            ExpPoly.term(KERNEL_LIFT - 1, Poly.monomial(F(-1, 653184000), 9))

    def test_linearity_on_term_lists(self):
        rng = random.Random(11)
        for _ in range(20):
            c, a, m = (F(rng.randint(1, 9), rng.randint(1, 9)),
                       rng.randint(0, KERNEL_LIFT), rng.randint(1, 8))
            c1, c2 = F(rng.randint(-5, 5)), F(rng.randint(1, 5))
            k = kernel_image_lifted(one_term(c, a, m))
            ks = kernel_image_lifted(one_term(c1 * c + c2 * c, a, m))
            assert ks == (c1 + c2) * k
            assert k.exponents() == (KERNEL_LIFT - a,)
            assert k.block(KERNEL_LIFT - a).degree == m - 1

    def test_decay_above_lift_raises(self):
        with pytest.raises(FixtureMismatch,
                           match=f"decay {KERNEL_LIFT + 1} exceeds exponent lift {KERNEL_LIFT}"):
            kernel_image_lifted(one_term(F(1), KERNEL_LIFT + 1, 2))


def test_as_fraction_reads_strings_through_the_guarded_reader():
    for text, value in (("3/4", F(3, 4)), ("0.25", F(1, 4)), ("-3/4", F(-3, 4)),
                        ("1e-3", F(1, 1000))):
        assert as_fraction(text) == value and type(as_fraction(text)) is F
    # 10^10000000 would take tens of seconds to build; it is refused first,
    # at every library entry point that takes a string
    start = time.perf_counter()
    for text in ("1e10000000", "abc"):
        for call in (as_fraction, lambda v: polygamma(1, v), g_eval,
                     lambda v: GridSpec.explicit([v]), Ball):
            with pytest.raises(DomainError):
                call(text)
    assert time.perf_counter() - start < 2
    # ints and Fractions a caller passes are not bounded
    assert as_fraction(10 ** 1000) == F(10 ** 1000)
    assert as_fraction(F(1, 10 ** 1000)) == F(1, 10 ** 1000)


@pytest.mark.parametrize("value", [None, [1], 1j, Poly([1])])
def test_as_fraction_refuses_other_types(value):
    with pytest.raises(TypeError, match="cannot interpret .* as an exact rational"):
        as_fraction(value)
