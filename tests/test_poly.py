import random

import pytest

from logsym.context import POLY, TORUS, ContextError, make_context
from logsym.poly import (
    Poly,
    PolyError,
    divides,
    divmod_poly,
    exact_quotient,
    gcd_mv,
    squarefree_part_check,
)
from logsym.scalars import Scalar
from conftest import rand_ctx, rand_poly, rand_scalar


def _xyz(arena="poly", divisor=()):
    ctx = make_context(["x", "y", "z"], list(divisor), arena)
    return ctx, Poly.variable(ctx, "x"), Poly.variable(ctx, "y"), Poly.variable(ctx, "z")


def test_ring_axioms_random():
    rng = random.Random(201)
    for _ in range(120):
        ctx = rand_ctx(rng)
        a, b, c = (rand_poly(ctx, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly.zero(ctx)


def test_context_separation():
    c1 = make_context(["x"], [], "poly")
    c2 = make_context(["x"], [], "torus")
    with pytest.raises(ContextError):
        Poly.variable(c1, "x") + Poly.variable(c2, "x")


def test_laurent_only_on_divisor_coords():
    ctx, x, y, z = _xyz("torus", divisor=("z",))
    zi = Poly.one(ctx).mul_var_power(2, -1)
    assert (zi * z).is_one()
    # only result exponents are checked: x * x^-1 = 1 is fine anywhere
    assert x.mul_var_power(0, -1).is_one()
    with pytest.raises(PolyError):
        y.mul_var_power(0, -1)  # leaves x^-1*y, x not a divisor coordinate
    ctx2, x2, *_ = _xyz("poly", divisor=("x",))
    with pytest.raises(PolyError):
        Poly.one(ctx2).mul_var_power(0, -1)  # poly arena, no Laurent anywhere


def test_grlex_leading():
    ctx, x, y, z = _xyz()
    p = x * y + z * z * z + x
    e, c = p.leading()
    assert e == (0, 0, 3)  # total degree wins, then lex on the tuple
    assert c.is_one()


def test_divmod_euclidean_property():
    rng = random.Random(202)
    for _ in range(120):
        ctx = rand_ctx(rng)
        f = rand_poly(ctx, rng)
        g = rand_poly(ctx, rng, allow_zero=False)
        if g.is_zero():
            continue
        try:
            q, r = divmod_poly(f, g)
        except PolyError:
            continue  # leading-scalar non-divisibility is a legal "no"
        assert q * g + r == f


def test_divides_multiples_random():
    rng = random.Random(203)
    for _ in range(150):
        ctx = rand_ctx(rng)
        a = rand_poly(ctx, rng, deg=3, terms=2)
        b = rand_poly(ctx, rng, deg=3, terms=2, allow_zero=False)
        if b.is_zero():
            continue
        ok, q = divides(b, a * b)
        assert ok
        assert q * b == a * b


def test_divides_witness():
    ctx, x, y, z = _xyz()
    ok, rem = divides(x + y, x * x + y)
    assert not ok
    assert not rem.is_zero()


def test_divides_laurent_strip():
    # in the torus arena a Laurent monomial factor must not block division
    ctx, x, y, z = _xyz("torus", divisor=("x", "y"))
    f = (x + y) * x.mul_var_power(0, -2)
    ok, q = divides(x + y, f)
    assert ok
    assert q * (x + y) == f


def test_divides_unit_monomial_matches_reduction():
    """divides decides a unit-monomial divisor by one product with its
    inverse; divmod_poly, which reduces term by term, is the reference."""
    rng = random.Random(209)
    for arena in (POLY, TORUS):
        for _ in range(80):
            ctx = rand_ctx(rng, arena=arena)
            f = rand_poly(ctx, rng)
            c = Scalar.zero()
            while c.is_zero():
                c = rand_scalar(rng, terms=1)
            e = tuple(rng.randint(-3, 3) if ctx.laurent_ok(i) else 0 for i in range(ctx.n))
            u = Poly.monomial(ctx, e, c)
            assert u.is_unit_monomial()
            q, r = divmod_poly(f, u)
            assert r.is_zero()
            assert divides(u, f) == (True, q)


def test_exact_quotient_raises():
    ctx, x, y, z = _xyz()
    assert exact_quotient(x * y + y * y, y) == x + y
    with pytest.raises(PolyError):
        exact_quotient(x * x + y, x)


def test_gcd_common_factor_random():
    rng = random.Random(204)
    for _ in range(80):
        ctx = rand_ctx(rng, nmax=3)
        g = rand_poly(ctx, rng, deg=2, terms=2, allow_zero=False)
        a = rand_poly(ctx, rng, deg=2, terms=2)
        b = rand_poly(ctx, rng, deg=2, terms=2)
        if g.is_zero():
            continue
        d = gcd_mv(a * g, b * g)
        if (a * g).is_zero() and (b * g).is_zero():
            continue
        ok, _ = divides(g, d) if not d.is_zero() else (False, None)
        # gcd contains every common factor, in particular g
        assert ok or divides(d, g)[0] is False
        assert divides(d, a * g)[0]
        assert divides(d, b * g)[0]


def test_gcd_known_values():
    ctx, x, y, z = _xyz()
    g = gcd_mv((x + y) * x * x, (x + y) * y)
    ok, q = divides(x + y, g)
    assert ok and q.is_constant()
    assert gcd_mv(x, y).is_constant()
    two = Poly.from_int(ctx, 2)
    h = x * y * (x + y) * ((z - two) * x + y)
    dz = h.partial(2)
    g2 = gcd_mv(h, dz)
    assert g2 == x * y * (x + y)


def test_squarefree_joint_criterion():
    ctx, x, y, z = _xyz()
    two = Poly.from_int(ctx, 2)
    h = x * y * (x + y) * ((z - two) * x + y)
    ok, w = squarefree_part_check(h)
    assert ok and w is None
    ok2, w2 = squarefree_part_check(x * x * y)
    assert not ok2
    assert divides(w2, x * x * y)[0]


def test_log_partial_and_substitution():
    ctx, x, y, z = _xyz("torus", divisor=("z",))
    p = x * z + z * z
    assert p.log_partial(2) == x * z + z * z * Poly.from_int(ctx, 2)
    assert p.substitute_zero(2).is_zero()
    q = x.mul_var_power(2, -1)  # x/z has a genuine pole at z=0
    with pytest.raises(PolyError):
        q.substitute_zero(2)


def test_weighted_degree():
    ctx, x, y, z = _xyz()
    p = x * x * y
    assert p.weighted_degree((1, 1, 1)) == 3
    assert p.weighted_degree((2, 3, 1)) == 7


def test_unit_monomials():
    ctx, x, y, z = _xyz("torus", divisor=("x",))
    u = x.scale(Scalar.two_pi_i())
    assert u.is_unit_monomial()
    assert (u * u.inverse_unit()).is_one()
    assert not (x + y).is_unit_monomial()
    assert not y.is_unit_monomial()  # y is not invertible in this arena


def test_power_is_square_and_multiply(monkeypatch):
    """k-th powers of Scalars and Polys take one squaring per bit of k below
    the top bit and one product per set bit past the lowest, and agree with
    repeated products."""
    ctx = make_context(["x", "y"], ["x"], "torus")
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    I, T = Scalar.i_unit(), Scalar.two_pi_i()
    z = Scalar.from_rational(2, 3) + I + T.inverse()
    for base, one in ((I, Scalar.one()), (T, Scalar.one()), (z, Scalar.one()),
                      (x, Poly.one(ctx)), (x + y + Poly.one(ctx), Poly.one(ctx))):
        want = one
        for k in range(13):
            assert base ** k == want
            want = want * base
    assert x ** -3 == (x * x * x).inverse_unit()
    assert T ** -2 == T.inverse() * T.inverse()

    counts = {}
    for cls in (Scalar, Poly):
        mul = cls.__mul__

        def counted(a, b, mul=mul, name=cls.__name__):
            counts[name] = counts.get(name, 0) + 1
            return mul(a, b)
        monkeypatch.setattr(cls, "__mul__", counted)
    k = 10 ** 6 + 3
    want = k.bit_length() - 1 + bin(k).count("1") - 1
    for base, expect in ((I, I ** (k % 4)), (T, Scalar.two_pi_i(k)),
                         (x, Poly.monomial(ctx, (k, 0)))):
        counts.clear()
        assert base ** k == expect
        assert counts.get(type(base).__name__) == want
