"""Exact linear algebra: Bareiss determinants against cofactor expansion,
solver round-trips on systems with a known solution, fraction normalisation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsym.context import make_context
from logsym.linalg import (
    LinAlgError,
    RationalFunction,
    _normalize_fraction,
    det_poly,
    solve_linear,
    solve_linear_poly,
)
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import print_canonical
from conftest import rand_ctx, rand_exponent, rand_poly, rand_scalar


def _cofactor_det(rows):
    # independent oracle: Laplace expansion along the first row
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly.zero(rows[0][0].ctx)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        t = rows[0][j] * _cofactor_det(minor)
        acc = acc - t if j % 2 else acc + t
    return acc


def _xy():
    ctx = make_context(["x", "y"], [])
    return ctx, Poly.variable(ctx, "x"), Poly.variable(ctx, "y")


def test_det_known_values():
    ctx, x, y = _xy()
    one = Poly.one(ctx)
    assert det_poly([[x]]) == x
    # [[x, y], [1, x]] -> x^2 - y
    assert det_poly([[x, y], [one, x]]) == x * x - y
    # a row of zeros kills it
    z = Poly.zero(ctx)
    assert det_poly([[z, z], [x, y]]).is_zero()
    # swapping rows flips the sign
    assert det_poly([[one, x], [x, y]]) == -det_poly([[x, y], [one, x]])


def test_det_matches_cofactor_random():
    rng = random.Random(301)
    for _ in range(60):
        ctx = rand_ctx(rng, nmax=3)
        n = rng.randint(2, 3)
        rows = [
            [rand_poly(ctx, rng, deg=2, terms=2) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_poly(rows) == _cofactor_det(rows)


def test_det_multiplicative_2x2():
    rng = random.Random(302)
    for _ in range(40):
        ctx = rand_ctx(rng, nmax=3)
        a = [[rand_poly(ctx, rng, deg=2, terms=2) for _ in range(2)] for _ in range(2)]
        b = [[rand_poly(ctx, rng, deg=2, terms=2) for _ in range(2)] for _ in range(2)]
        ab = [
            [
                sum((a[i][k] * b[k][j] for k in range(2)), Poly.zero(ctx))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert det_poly(ab) == det_poly(a) * det_poly(b)


def test_solve_recovers_planted_solution():
    rng = random.Random(303)
    solved = 0
    while solved < 40:
        ctx = rand_ctx(rng, nmax=3)
        n = rng.randint(1, 3)
        rows = [
            [rand_poly(ctx, rng, deg=2, terms=2) for _ in range(n)]
            for _ in range(n)
        ]
        if det_poly(rows).is_zero():
            continue
        xs = [rand_poly(ctx, rng, deg=2, terms=2) for _ in range(n)]
        rhs = [
            sum((rows[i][j] * xs[j] for j in range(n)), Poly.zero(ctx))
            for i in range(n)
        ]
        sol = solve_linear(rows, rhs)
        for s, expect in zip(sol, xs):
            assert s == RationalFunction.from_poly(expect)
        solved += 1


def test_solve_singular_raises():
    ctx, x, y = _xy()
    with pytest.raises(LinAlgError):
        solve_linear([[x, y], [x, y]], [Poly.one(ctx), Poly.zero(ctx)])


def test_solve_poly_denominator_cases():
    ctx, x, y = _xy()
    # y/x is not polynomial on a chart with no divisor
    assert solve_linear_poly([[x]], [y]) is None
    # but x is invertible on the torus chart
    tctx = make_context(["x", "y"], ["x"])
    tx, ty = Poly.variable(tctx, "x"), Poly.variable(tctx, "y")
    sol = solve_linear_poly([[tx]], [ty])
    assert sol is not None and sol[0] == ty.mul_var_power(0, -1)


def test_rational_function_normalises():
    ctx, x, y = _xy()
    r = RationalFunction(x * x - y * y, x - y)
    assert r.as_poly() == x + y
    assert RationalFunction(x * y, y).as_poly() == x
    zero = RationalFunction(Poly.zero(ctx), x + y)
    assert zero.is_zero() and zero.den.is_one()


def test_as_poly_on_unit_and_non_unit_denominators():
    ctx, x, y = _xy()
    T = Scalar.two_pi_i()
    two_i = Poly.constant(ctx, Scalar.from_rational(0, 2))
    one_t = Poly.constant(ctx, Scalar.one() + T)
    # unit denominators: a unit scalar here, a Laurent monomial on the torus
    r = RationalFunction(x + y, two_i)
    assert r.den.is_one() and r.as_poly() == (x + y).scale(Scalar.from_rational(0, 2).inverse())
    tctx = make_context(["x", "y"], ["x"])
    tx, ty = Poly.variable(tctx, "x"), Poly.variable(tctx, "y")
    u = tx.scale(T) * tx
    r = RationalFunction(ty + tx, u)
    assert r.den.is_one() and r.as_poly() == (ty + tx) * u.inverse_unit()
    assert RationalFunction(ty + tx, tx * (ty + tx)).as_poly() == tx.inverse_unit()
    # non-unit denominators: a non-unit scalar, y, and x + y on either chart
    assert RationalFunction(x, one_t).as_poly() is None
    assert RationalFunction(x * one_t, one_t).as_poly() == x
    assert RationalFunction(tx, ty).as_poly() is None
    assert RationalFunction(x * x, x + y).as_poly() is None
    assert RationalFunction(tx * tx, tx + ty).as_poly() is None


def test_torus_denominator_keeps_no_unit():
    tctx = make_context(["x", "y"], ["y"])
    y = Poly.variable(tctx, "y")
    one = Poly.one(tctx)
    a = RationalFunction(one, y + y.inverse_unit())
    b = RationalFunction(y, y * y + one)
    assert (a.num, a.den) == (b.num, b.den) == (y, y * y + one)
    c = RationalFunction(one, y * y + y)
    assert (c.num, c.den) == (y.inverse_unit(), y + one)


_CHARTS = (
    make_context(["x", "y"], []),
    make_context(["x", "y"], ["x"]),
    make_context(["x", "y"], ["x", "y"]),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_unreduced_representative_reads_like_the_reduced(data):
    """A fraction built as k*n / k*d, k a seeded common factor times a
    monomial (a Laurent unit on the torus divisor coordinates), is not
    reduced by ==, is_zero or as_poly, which answer as n/d does; its first
    read prints the bytes of an eager _normalize_fraction, and of n/d."""
    ctx = data.draw(st.sampled_from(_CHARTS))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    n = rand_poly(ctx, rng, deg=3, terms=3)
    d, k = (rand_poly(ctx, rng, deg=2, terms=2, allow_zero=False)
            for _ in range(2))
    if data.draw(st.booleans()):
        n = n * d
    c = Scalar.zero()
    while c.is_zero():
        c = rand_scalar(rng, tmin=0, tmax=1, terms=2)
    k = k * Poly.monomial(ctx, rand_exponent(ctx, rng, deg=3), c)
    rep, ref = RationalFunction(k * n, k * d), RationalFunction(n, d)
    off = RationalFunction(n + d, d)
    assert rep == ref and ref == rep
    assert not rep == off and not off == rep
    assert rep.is_zero() == ref.is_zero()
    assert rep.as_poly() == ref.as_poly()
    assert not rep._reduced
    eager = RationalFunction(*_normalize_fraction(k * n, k * d), _normalized=True)
    assert print_canonical(rep) == print_canonical(eager) == print_canonical(ref)
    assert rep._reduced


def test_rational_function_arithmetic():
    ctx, x, y = _xy()
    a = RationalFunction(Poly.one(ctx), x)
    b = RationalFunction(Poly.one(ctx), y)
    s = a + b
    assert s == RationalFunction(x + y, x * y)
    assert (s - b) == a
    assert (a * b) == RationalFunction(Poly.one(ctx), x * y)
    assert (a / b) == RationalFunction(y, x)
    with pytest.raises(ZeroDivisionError):
        a / RationalFunction(Poly.zero(ctx), x)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, Poly.zero(ctx))
