"""Deterministic random generators shared by the test modules.

Everything takes an explicit random.Random so each test pins its own seed;
no global state.  Generated vector fields are built from the log frame, so
they are logarithmic by construction.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from logsym.calculus import LogForm, LogVectorField, log_frame
from logsym.context import make_context
from logsym.poly import Poly
from logsym.scalars import Scalar

NAMES = ["x", "y", "z", "w"]


@pytest.fixture
def digit_limit():
    """CPython's default int/str conversion limit, whatever the environment
    set, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def rand_rational(rng, lo=-4, hi=4):
    num = rng.randint(lo, hi)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_scalar(rng, tmin=-1, tmax=2, terms=2):
    s = Scalar.zero()
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(tmin, tmax)
        re = rand_rational(rng)
        im = rand_rational(rng) if rng.random() < 0.3 else Fraction(0)
        part = Scalar.from_rational(re) + Scalar.i_unit() * Scalar.from_rational(im)
        s = s + part * (Scalar.two_pi_i() ** k if k >= 0
                        else Scalar.two_pi_i().inverse() ** (-k))
    return s


def rand_ctx(rng, nmax=4):
    n = rng.randint(1, nmax)
    names = NAMES[:n]
    k = rng.randint(0, n)
    divisor = sorted(rng.sample(names, k))
    return make_context(names, divisor)


def rand_exponent(ctx, rng, deg=4):
    e = []
    for i in range(ctx.n):
        if ctx.laurent_ok(i):
            e.append(rng.randint(-2, deg - 1))
        else:
            e.append(rng.randint(0, deg - 1))
    return tuple(e)


def rand_poly(ctx, rng, deg=4, terms=3, allow_zero=True):
    """Up to terms random monomials; with allow_zero=False, drawn again until
    the sum is nonzero (a zero coefficient or cancelling terms give 0)."""
    while True:
        p = Poly.zero(ctx)
        for _ in range(rng.randint(0 if allow_zero else 1, terms)):
            c = rand_scalar(rng, tmin=0, tmax=1, terms=1)
            if c.is_zero():
                continue
            p = p + Poly.monomial(ctx, rand_exponent(ctx, rng, deg), c)
        if allow_zero or not p.is_zero():
            return p


def rand_log_field(ctx, rng, deg=3):
    frame = log_frame(ctx)
    out = LogVectorField.zero(ctx)
    for fr in frame:
        if rng.random() < 0.7:
            out = out + fr.scale(rand_poly(ctx, rng, deg=deg, terms=2))
    return out


def rand_form(ctx, rng, degree, deg=3, cells=3):
    if degree == 0:
        return LogForm.function(rand_poly(ctx, rng, deg=deg))
    idx = list(combinations(range(ctx.n), degree))
    if not idx:
        return LogForm.zero(ctx, degree)
    terms = {}
    for _ in range(rng.randint(1, cells)):
        I = rng.choice(idx)
        p = rand_poly(ctx, rng, deg=deg, terms=2)
        if p.is_zero():
            continue
        terms[I] = terms.get(I, Poly.zero(ctx)) + p
    return LogForm(ctx, degree, {k: v for k, v in terms.items() if not v.is_zero()})


def rand_closed_2form(ctx, rng):
    """Exact part plus a constant class on pure log cells: closed by d^2 = 0
    and closedness of the coframe."""
    w = rand_form(ctx, rng, 1).d()
    for i, j in combinations(ctx.divisor, 2):
        if rng.random() < 0.6:
            c = Poly.constant(ctx, rand_scalar(rng, tmin=-1, tmax=1, terms=1))
            w = w + LogForm(ctx, 2, {(i, j): c})
    return w


# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.line(line)
