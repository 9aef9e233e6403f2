"""Divisor predicates: reducedness, normal crossings, logarithmicity, the
freeness determinant and weighted homogeneity.

The running example is the arrangement xy(x+y)((z-2)x+y) with its known free
basis; every expected value below was computed by hand before being frozen.
"""

import itertools
import random
import time

import pytest

from logsym import poly
from logsym.calculus import LogVectorField
from logsym.context import make_context
from logsym.divisors import (
    DivisorError,
    check_squarefree,
    is_coordinate_ncd,
    is_logarithmic,
    saito_check,
    weighted_homogeneous,
)
from logsym.poly import Poly, PolyError, divides
from logsym.scalars import Scalar
from logsym.sessions import eval_in_session, parse_session, print_canonical
from conftest import rand_scalar


def _arrangement():
    ctx = make_context(["x", "y", "z"], [])
    x, y, z = (Poly.variable(ctx, n) for n in "xyz")
    two = Poly.from_int(ctx, 2)
    h = x * y * (x + y) * ((z - two) * x + y)
    zero = Poly.zero(ctx)
    d1 = LogVectorField(ctx, [x, y, zero])
    d2 = LogVectorField(ctx, [zero, zero, (z - two) * x + y])
    d3 = LogVectorField(ctx, [x * x, -(y * y), -((z - two) * (x + y))])
    return ctx, h, (d1, d2, d3)


def test_divisor_rejects_zero():
    ctx = make_context(["x"], [])
    zero = Poly.zero(ctx)
    for check in (check_squarefree, is_coordinate_ncd, weighted_homogeneous):
        with pytest.raises(DivisorError, match="zero polynomial"):
            check(zero)


def test_squarefree():
    ctx, h, _ = _arrangement()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    ok, witness = check_squarefree(h)
    assert ok and witness is None
    ok, witness = check_squarefree(x * x * y)
    assert not ok
    assert not witness.is_constant()
    # the witness really is a repeated factor
    assert max(sum(e) for e in witness.terms) >= 1
    ok, _ = check_squarefree(x * y * (x + y))
    assert ok


def test_coordinate_ncd():
    ctx, h, _ = _arrangement()
    x, y, z = (Poly.variable(ctx, n) for n in "xyz")
    assert is_coordinate_ncd(x * y * z) == (True, (0, 1, 2))
    assert is_coordinate_ncd(x * z * Poly.from_int(ctx, 3)) == (True, (0, 2))
    assert is_coordinate_ncd(Poly.one(ctx)) == (True, ())
    assert is_coordinate_ncd(x * x * y) == (False, None)
    assert is_coordinate_ncd(x + y) == (False, None)
    assert is_coordinate_ncd(h) == (False, None)


def test_logarithmic_membership():
    ctx, h, (d1, d2, d3) = _arrangement()
    x, y, z = (Poly.variable(ctx, n) for n in "xyz")
    for delta in (d1, d2, d3):
        ok, _ = is_logarithmic(delta, h)
        assert ok
    # the Euler field scales a degree-4 homogeneous h by 4
    euler = LogVectorField(ctx, [x, y, z])
    h4 = x * y * (x + y) * (x + y + z)
    ok, g = is_logarithmic(euler, h4)
    assert ok and g == Poly.from_int(ctx, 4)
    # a bare coordinate field is not logarithmic here
    ok, r = is_logarithmic(LogVectorField.coordinate(ctx, "x"), h)
    assert not ok and not r.is_zero()


def test_saito_free_basis():
    ctx, h, fields = _arrangement()
    rep = saito_check(list(fields), h)
    assert rep.free
    assert rep.certificate == Scalar.one()
    assert rep.det == h


def test_saito_degenerate_family_fails():
    ctx, h, (d1, d2, d3) = _arrangement()
    x = Poly.variable(ctx, "x")
    # replacing d3 by x*d1 keeps everything logarithmic but collapses the rank
    xd1 = LogVectorField(ctx, [x * c for c in d1.coeffs])
    rep = saito_check([d1, d2, xd1], h)
    assert not rep.free
    assert rep.certificate is None


def test_saito_rejects_bad_input():
    ctx, h, (d1, d2, d3) = _arrangement()
    with pytest.raises(DivisorError):
        saito_check([d1, d2], h)
    with pytest.raises(DivisorError):
        saito_check([d1, d2, LogVectorField.coordinate(ctx, "x")], h)


def test_weighted_homogeneity_known():
    ctx2 = make_context(["x", "y"], [])
    x, y = Poly.variable(ctx2, "x"), Poly.variable(ctx2, "y")
    assert weighted_homogeneous(x * x * y + y * y * y) == ((1, 1), 3)
    assert weighted_homogeneous(x * x * x + y * y) == ((2, 3), 6)
    assert weighted_homogeneous(x * y) == ((1, 1), 2)
    # x^3 + y^2 + y: degrees 3w1 = 2w2 = w2 force w2 = 0
    assert weighted_homogeneous(x ** 3 + y * y + y) is None
    _, h, _ = _arrangement()
    assert weighted_homogeneous(h) is None


def test_weighted_homogeneity_properties():
    # whenever weights come back they really grade the polynomial; a Laurent
    # polynomial is refused, as check_squarefree refuses it
    rng = random.Random(311)
    from conftest import rand_ctx, rand_poly

    found = poles = 0
    for _ in range(200):
        ctx = rand_ctx(rng, nmax=3)
        p = rand_poly(ctx, rng, deg=3, terms=3, allow_zero=False)
        if p.pole() is not None:
            with pytest.raises(PolyError, match="not in the polynomial ring: pole in"):
                weighted_homogeneous(p)
            poles += 1
            continue
        res = weighted_homogeneous(p)
        if res is None:
            continue
        w, deg = res
        assert all(isinstance(wi, int) and wi >= 1 for wi in w)
        assert {sum(wi * k for wi, k in zip(w, e)) for e in p.terms} == {deg}
        found += 1
    assert found >= 20 and poles >= 20


def _same_up_to_unit(p, q):
    p, q = p.in_polynomial_ring(), q.in_polynomial_ring()
    return divides(p, q)[0] and divides(q, p)[0]


def _check_torus_product():
    """On the 2-variable torus product, h*g is reduced, and h*h*g has h, up
    to a unit, as its witness; each check gets 2 s.  h and g are the
    Laurent polynomials (1 - 2/3*I)*T*x^-1*y + T*x^-2*y^-2 and
    x + 2/3*x^-1*y - 4/3*T*y^-2 times the units x^2*y^2 and x*y^2, which
    clear their poles: reducedness is asked in the polynomial ring, and the
    gcd takes the same images either way."""
    m = parse_session("vars x y\ndivisor coords x y\n")
    h = eval_in_session(m, "(1 - 2/3*I)*T*x*y^3 + T")
    g = eval_in_session(m, "x^2*y^2 + 2/3*y^3 - 4/3*T*x")
    t0 = time.perf_counter()
    assert check_squarefree(h * g) == (True, None)
    t1 = time.perf_counter()
    ok, witness = check_squarefree(h * h * g)
    t2 = time.perf_counter()
    assert not ok
    assert print_canonical(witness) == "x*y^3 + (9/13 + 6/13*I)"
    assert _same_up_to_unit(witness, h)
    assert t1 - t0 < 2.0 and t2 - t1 < 2.0


def test_squarefree_torus_product_in_budget():
    """The 2-variable torus product whose gcds swelled past 30 s under the
    primitive PRS that gcd_mv once used; the heuristic gcd decides both of
    its checks in well under the budget."""
    _check_torus_product()


def test_squarefree_torus_product_with_spoiled_candidates(monkeypatch):
    """The same checks when every candidate of the heuristic gcd below
    xi = 10^40 is spoiled, so each level rejects several values of xi
    before one passes its certificate: they finish in the same budget with
    the same witness."""
    expand = poly._expand
    spoiled = []

    def spoil(h, j, xi):
        out = expand(h, j, xi)
        if xi < 10 ** 40:
            # a term of degree 99 in the evaluated place fails the division
            out[tuple(99 * (k == j) for k in range(len(next(iter(h)))))] = (1, 0)
            spoiled.append(xi)
        return out
    monkeypatch.setattr(poly, "_expand", spoil)
    _check_torus_product()
    assert spoiled


def test_squarefree_monomial_content_in_budget():
    """x^100000*y has the repeated factor x^99999, which the gcd finds by
    taking the lowest power of each variable out of both inputs rather than
    evaluating x at a value of xi to the 100000th power: under 1 s."""
    ctx = make_context(["x", "y"], [])
    h = Poly.monomial(ctx, (100000, 1))
    t0 = time.perf_counter()
    ok, witness = check_squarefree(h)
    spent = time.perf_counter() - t0
    assert not ok and witness == Poly.monomial(ctx, (99999, 0))
    assert spent < 1.0


def _dense(ctx, rng, deg):
    """Every monomial of total degree <= deg with a seeded coefficient in
    Q(i)[T]: Gaussian in about a third of them, a T-power in about half."""
    terms = {}
    for e in itertools.product(range(deg + 1), repeat=ctx.n):
        if sum(e) <= deg:
            terms[e] = rand_scalar(rng, tmin=0, tmax=1, terms=1)
    return Poly(ctx, terms)


def test_squarefree_dense_products_in_budget():
    """The harder tier, in 3 variables: products of 3 dense quadratic and of
    5 dense linear factors, with no divisor and on the torus, each
    once as drawn (reduced) and once with its first factor squared (the
    witness is that factor up to a unit).  The verdicts are checked against
    the planted factors with divides; all 8 checks share a 10 s budget."""
    rng = random.Random(312)
    spent = 0.0
    for divisor in ([], ["x", "y", "z"]):
        ctx = make_context(["x", "y", "z"], divisor)
        for deg, k in ((2, 3), (1, 5)):
            fs = [_dense(ctx, rng, deg) for _ in range(k)]
            h = Poly.one(ctx)
            for f in fs:
                h = h * f
            t0 = time.perf_counter()
            reduced = check_squarefree(h)
            ok, witness = check_squarefree(h * fs[0])
            spent += time.perf_counter() - t0
            assert reduced == (True, None)
            assert not ok and _same_up_to_unit(witness, fs[0])
    assert spent < 10.0
