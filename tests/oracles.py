"""Reference computations used only by the tests.

Each one reaches a value by a route that cmgamma's certified paths do not
take, so agreement between the two is evidence for both.
"""

import math
from fractions import Fraction

from mpmath import iv

from cmgamma.polygamma import polygamma


def polygamma_recurrence_shift(m, x, k, prec=128):
    """psi^(m)(x) as psi^(m)(x+k) minus the exact telescoped shift,

        psi^(m)(x) = psi^(m)(x+k) - sum_{j<k} (-1)^m m! / (x+j)^(m+1);

    k = 0 is the identity.  Must overlap the direct series enclosure.
    """
    x = Fraction(x)
    step = (-1) ** m * math.factorial(m)
    return polygamma(m, x + k, prec) - sum(step / (x + j) ** (m + 1)
                                           for j in range(k))


def exppoly_interval(e, t, prec=128):
    """mpmath interval enclosing the exponential polynomial e at rational t.

    The polynomial factors are evaluated exactly; each e^(k t) with k, t != 0
    comes from mpmath's outward-rounded interval exp at prec bits, so the
    value at t = 0 and the e^0 block stay exact.
    """
    t = Fraction(t)
    ctx = type(iv)()  # a private context: mpmath's shared iv keeps its precision
    ctx.prec = prec
    exact = sum(p(t) for k, p in e.blocks() if k == 0 or t == 0)
    acc = ctx.mpf(exact.numerator) / exact.denominator
    for k, p in e.blocks():
        if k and t:
            v = p(t)
            acc += (ctx.mpf(v.numerator) / v.denominator
                    * ctx.exp(k * ctx.mpf(t.numerator) / t.denominator))
    return acc
