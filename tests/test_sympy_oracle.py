"""Independent oracle: the exact kernels against sympy.

sympy shares no code with logsym.  T is a sympy symbol and I is sympy.I, so a
Scalar is a Laurent polynomial in T over QQ(i) and a Poly is a polynomial in
x, y over those.  The ring QQ(i)[x, y, T, 1/T] is a localization of a unique
factorization domain whose units are c*T^k, so a quotient is exact when its
reduced denominator is such a monomial, and two gcds agree when their ratio
is one.  Skipped where sympy is not installed; logsym itself stays
stdlib-only.
"""

import random
from fractions import Fraction

import pytest

from logsym.context import make_context
from logsym.poly import Poly, divides, gcd_mv
from logsym.scalars import Scalar, ScalarError, scalar_gcd

sympy = pytest.importorskip("sympy")

T, X, Y = sympy.symbols("T x y")


def rand_scalar(rng, max_terms=3):
    """A nonzero scalar with powers in [-1, 2], denominators up to 6 and
    imaginary parts on about half the terms."""
    while True:
        t = {}
        for _ in range(rng.randint(1, max_terms)):
            re = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            im = Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.5 else 0
            t[rng.randint(-1, 2)] = (re, im)
        s = Scalar(t)
        if not s.is_zero():
            return s


def sym_scalar(s):
    return sum(((sympy.Rational(a.numerator, a.denominator)
                 + sympy.I * sympy.Rational(b.numerator, b.denominator)) * T ** k
                for k, (a, b) in s.terms.items()), sympy.Integer(0))


def sym_poly(p):
    return sum((sym_scalar(c) * X ** e[0] * Y ** e[1] for e, c in p.terms.items()),
               sympy.Integer(0))


def is_zero(expr):
    return sympy.expand(expr) == 0


def is_unit(expr):
    """Whether a nonzero expression is c*T^k, a unit of QQ(i)[x, y, T, 1/T]."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return all(sympy.Poly(part, T, X, Y).is_monomial
               and sympy.Poly(part, X, Y).is_ground for part in (num, den))


def test_scalar_mul_exact_div_gcd_against_sympy():
    rng = random.Random(301)
    for _ in range(60):
        a, b = rand_scalar(rng), rand_scalar(rng)
        sa, sb = sym_scalar(a), sym_scalar(b)
        assert is_zero(sym_scalar(a * b) - sa * sb)
        assert is_zero(sym_scalar((a * b).exact_div(b)) - sa)
        exact = is_unit(sympy.fraction(sympy.cancel(sa / sb))[1])
        try:
            q = a.exact_div(b)
        except ScalarError:
            assert not exact
        else:
            assert exact and is_zero(sym_scalar(q) * sb - sa)
        # gcds with a planted common factor, up to a unit c*T^k
        c = rand_scalar(rng)
        sc = sym_scalar(c)
        g = scalar_gcd(a * c, b * c)
        want = sympy.gcd(sympy.Poly(sympy.expand(sa * sc * T ** 4), T, domain="QQ_I"),
                         sympy.Poly(sympy.expand(sb * sc * T ** 4), T, domain="QQ_I"))
        assert is_unit(sym_scalar(g) / want.as_expr())


def rand_poly(ctx, rng, terms=3, deg=2):
    p = Poly.zero(ctx)
    for _ in range(rng.randint(1, terms)):
        e = (rng.randint(0, deg), rng.randint(0, deg))
        p = p + Poly.monomial(ctx, e, rand_scalar(rng, max_terms=2))
    return p


def test_gcd_mv_and_divides_against_sympy():
    rng = random.Random(302)
    ctx = make_context(["x", "y"])
    for _ in range(30):
        f, g, h = (rand_poly(ctx, rng) for _ in range(3))
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        sf, sg, sh = sym_poly(f), sym_poly(g), sym_poly(h)
        # divides: a planted multiple, and an arbitrary pair decided by sympy
        ok, q = divides(g, f * g)
        assert ok and is_zero(sym_poly(q) - sf)
        ok, q = divides(g, f)
        exact = is_unit(sympy.fraction(sympy.cancel(sf / sg))[1])
        assert ok == exact
        if ok:
            assert is_zero(sym_poly(q) * sg - sf)
        # gcd_mv of two multiples of h, up to a unit c*T^k
        got = sym_poly(gcd_mv(f * h, g * h))
        want = sympy.gcd(sympy.Poly(sympy.expand(sf * sh * T ** 8), X, Y, T, domain="QQ_I"),
                         sympy.Poly(sympy.expand(sg * sh * T ** 8), X, Y, T, domain="QQ_I"))
        assert is_unit(got / want.as_expr())
