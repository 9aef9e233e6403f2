"""Exterior calculus in the log coframe: the graded laws on random input,
frame/coframe duality, residues with their sign conventions, and the
constant-residue probe for 1-forms."""

import random

import pytest

from logsym.calculus import (
    CalculusError,
    LogForm,
    LogVectorField,
    d_of_function,
    log_frame,
    res_const,
)
from logsym.context import make_context
from logsym.poly import Poly
from logsym.scalars import Scalar
from conftest import rand_ctx, rand_form, rand_log_field, rand_poly


def test_d_squared_is_zero():
    rng = random.Random(401)
    for _ in range(100):
        ctx = rand_ctx(rng)
        a = rand_form(ctx, rng, rng.randint(0, ctx.n))
        assert a.d().d().is_zero()


def test_d_is_an_antiderivation():
    rng = random.Random(402)
    for _ in range(80):
        ctx = rand_ctx(rng)
        p = rng.randint(0, ctx.n)
        q = rng.randint(0, ctx.n)
        a = rand_form(ctx, rng, p)
        b = rand_form(ctx, rng, q)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b)
        second = a.wedge(b.d())
        if p % 2:
            second = -second
        assert lhs == rhs + second


def test_interior_is_an_antiderivation():
    rng = random.Random(403)
    checked = 0
    while checked < 80:
        ctx = rand_ctx(rng)
        if ctx.n < 2:
            continue
        p = rng.randint(1, ctx.n - 1)
        q = rng.randint(1, ctx.n - p) if ctx.n - p >= 1 else 1
        a = rand_form(ctx, rng, p)
        b = rand_form(ctx, rng, q)
        xi = rand_log_field(ctx, rng)
        lhs = a.wedge(b).interior(xi)
        rhs = a.interior(xi).wedge(b)
        second = a.wedge(b.interior(xi))
        if p % 2:
            second = -second
        assert lhs == rhs + second
        checked += 1


def test_lie_commutes_with_d():
    rng = random.Random(404)
    for _ in range(60):
        ctx = rand_ctx(rng)
        a = rand_form(ctx, rng, rng.randint(0, ctx.n))
        xi = rand_log_field(ctx, rng)
        assert a.d().lie(xi) == a.lie(xi).d()


def test_lie_bracket_compatibility():
    # L_[xi,eta] = L_xi L_eta - L_eta L_xi, and the same with i_[xi,eta]
    rng = random.Random(405)
    for _ in range(50):
        ctx = rand_ctx(rng, nmax=3)
        a = rand_form(ctx, rng, rng.randint(0, ctx.n), deg=2, cells=2)
        xi = rand_log_field(ctx, rng, deg=2)
        eta = rand_log_field(ctx, rng, deg=2)
        br = xi.bracket(eta)
        assert a.lie(br) == a.lie(eta).lie(xi) - a.lie(xi).lie(eta)
        if a.degree >= 1:
            assert a.interior(br) == a.interior(eta).lie(xi) - a.lie(xi).interior(eta)


def test_field_bracket_laws():
    rng = random.Random(406)
    for _ in range(60):
        ctx = rand_ctx(rng, nmax=3)
        xi = rand_log_field(ctx, rng, deg=2)
        eta = rand_log_field(ctx, rng, deg=2)
        zeta = rand_log_field(ctx, rng, deg=2)
        f = rand_poly(ctx, rng, deg=2, terms=2)
        assert xi.bracket(eta) == -(eta.bracket(xi))
        jac = (
            xi.bracket(eta.bracket(zeta))
            + eta.bracket(zeta.bracket(xi))
            + zeta.bracket(xi.bracket(eta))
        )
        assert jac.is_zero()
        # [xi, f*eta] = xi(f)*eta + f*[xi, eta]
        assert xi.bracket(eta.scale(f)) == eta.scale(xi.apply(f)) + xi.bracket(eta).scale(f)
        g = rand_poly(ctx, rng, deg=2, terms=2)
        assert xi.apply(f * g) == f * xi.apply(g) + g * xi.apply(f)


def test_d_product_rule_on_functions():
    rng = random.Random(407)
    for _ in range(60):
        ctx = rand_ctx(rng)
        f = rand_poly(ctx, rng, deg=2, terms=2)
        g = rand_poly(ctx, rng, deg=2, terms=2)
        assert d_of_function(f * g) == d_of_function(g).scale(f) + d_of_function(f).scale(g)


def test_frame_coframe_duality():
    rng = random.Random(408)
    for _ in range(20):
        ctx = rand_ctx(rng)
        frame = log_frame(ctx)
        for i, name in enumerate(ctx.names):
            e = LogForm.coframe(ctx, name)
            for j, xi in enumerate(frame):
                expect = Poly.one(ctx) if i == j else Poly.zero(ctx)
                assert e.evaluate([xi]) == expect


def test_evaluate_is_alternating():
    rng = random.Random(409)
    checked = 0
    while checked < 40:
        ctx = rand_ctx(rng)
        if ctx.n < 2:
            continue
        w = rand_form(ctx, rng, 2)
        xi = rand_log_field(ctx, rng)
        eta = rand_log_field(ctx, rng)
        assert w.evaluate([xi, eta]) == -(w.evaluate([eta, xi]))
        assert w.evaluate([xi, xi]).is_zero()
        checked += 1


def test_lie_on_functions_is_apply():
    rng = random.Random(410)
    for _ in range(40):
        ctx = rand_ctx(rng)
        f = rand_poly(ctx, rng, deg=2, terms=2)
        xi = rand_log_field(ctx, rng)
        lf = LogForm.function(f).lie(xi)
        assert lf.coefficient(()) == xi.apply(f)


def test_coframe_is_closed_and_dlog_exactness():
    ctx = make_context(["x", "y"], ["x", "y"])
    ex = LogForm.coframe(ctx, "x")
    assert ex.d().is_zero()
    # d(x) = x * e^x in the log coframe
    x = Poly.variable(ctx, "x")
    assert d_of_function(x) == ex.scale(x)


def test_residue_signs():
    ctx = make_context(["x", "y"], ["x", "y"])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    w = LogForm(ctx, 2, {(0, 1): x + y})
    # along x: e^x ^ ((x+y) e^y), value restricted to x = 0
    rx = w.residue(0)
    assert rx == LogForm(ctx, 1, {(1,): y})
    # along y the cell enters as -e^y ^ ((x+y) e^x)
    ry = w.residue(1)
    assert ry == LogForm(ctx, 1, {(0,): -x})


def test_residue_requires_divisor_coordinate_and_no_pole():
    ctx = make_context(["x", "y"], ["y"])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    ey = LogForm.coframe(ctx, "y")
    with pytest.raises(CalculusError):
        ey.residue(0)  # x is not a divisor coordinate
    bad = ey.scale(Poly.one(ctx).mul_var_power(1, -1))  # coefficient y^-1
    with pytest.raises(CalculusError):
        bad.residue(1)
    with pytest.raises(CalculusError):
        LogForm.function(x).residue(1)


def test_res_const_examples():
    ctx = make_context(["x", "y"], ["x", "y"])
    y = Poly.variable(ctx, "y")
    eta = LogForm(ctx, 1, {(0,): Poly.from_int(ctx, 3), (1,): Poly.from_int(ctx, 2) + y})
    ok, consts = res_const(eta)
    assert ok
    assert consts == [Scalar.from_int(3), Scalar.from_int(2)]

    ctx2 = make_context(["x", "y"], ["x"])
    y2 = Poly.variable(ctx2, "y")
    eta2 = LogForm(ctx2, 1, {(0,): y2})
    ok, witness = res_const(eta2)
    assert not ok
    idx, c = witness
    assert idx == 0 and c == y2
    with pytest.raises(CalculusError):
        res_const(LogForm.coframe(ctx2, "x").wedge(LogForm.coframe(ctx2, "x")))


def test_res_const_reads_each_residue_through_residue():
    # x*dlog(y): the residue along y is x in either order of the variables
    for names in (["x", "y"], ["y", "x"]):
        ctx = make_context(names, ["x", "y"])
        x = Poly.variable(ctx, "x")
        eta = LogForm.coframe(ctx, "y").scale(x)
        assert res_const(eta) == (False, (ctx.index("y"), x)), names
        assert eta.residue(ctx.index("y")).coefficient(()) == x

    ctx = make_context(["x", "y"], ["x", "y"])
    x_inv = Poly.one(ctx).mul_var_power(0, -1)
    # a pole in another coordinate is part of the residue
    assert res_const(LogForm.coframe(ctx, "y").scale(x_inv)) == (False, (1, x_inv))
    # a pole in the coordinate's own coefficient is residue's error
    y_inv = Poly.one(ctx).mul_var_power(1, -1)
    with pytest.raises(CalculusError, match="pole in y beyond the log factor"):
        res_const(LogForm.coframe(ctx, "y").scale(y_inv))


def test_shape_errors():
    ctx = make_context(["x", "y"], [])
    x = Poly.variable(ctx, "x")
    with pytest.raises(CalculusError):
        LogForm(ctx, -1)
    with pytest.raises(CalculusError):
        LogForm(ctx, 3, {(0, 1, 1): x})
    with pytest.raises(CalculusError):
        LogForm(ctx, 1, {(0, 1): x})
    with pytest.raises(CalculusError):
        LogForm.coframe(ctx, "x") + LogForm.function(x)
    with pytest.raises(CalculusError):
        LogForm.coframe(ctx, "x") - LogForm.function(x)
    with pytest.raises(CalculusError):
        LogForm.function(x).interior(LogVectorField.coordinate(ctx, "x"))
    with pytest.raises(CalculusError):
        LogForm.coframe(ctx, "x").evaluate([])


def test_forms_past_the_top_degree_keep_their_degree():
    """Past the chart dimension a form has no cells: wedge and d give the
    zero form of the degree they produce, not one clamped to the dimension,
    and the Lie derivative of a top-degree form is d i_delta."""
    ctx = make_context(["x", "y"], ["y"])
    x = Poly.variable(ctx, "x")
    top = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(x)
    assert top.d() == LogForm(ctx, 3)
    assert top.wedge(LogForm.coframe(ctx, "x")) == LogForm(ctx, 3)
    assert top.wedge(top) == LogForm(ctx, 4)
    for delta in log_frame(ctx):
        assert top.lie(delta) == top.interior(delta).d()


def _revalidated(obj):
    """obj rebuilt through the validating public constructor."""
    if isinstance(obj, LogForm):
        return LogForm(obj.ctx, obj.degree, obj.terms)
    return LogVectorField(obj.ctx, list(obj.coeffs))


def test_internal_results_pass_the_public_checks():
    """Forms and fields built by the trusted constructors are what the
    validating constructors would build: the same value, sorted in-range
    index sets, no zero coefficient, coefficients stored as a tuple."""
    rng = random.Random(409)
    for _ in range(150):
        ctx = rand_ctx(rng)
        p = rng.randint(1, ctx.n)
        a, b = rand_form(ctx, rng, p), rand_form(ctx, rng, p)
        c = rand_form(ctx, rng, rng.randint(0, ctx.n - p))
        u, v = rand_log_field(ctx, rng), rand_log_field(ctx, rng)
        f = rand_poly(ctx, rng, deg=2, terms=2)
        s = rng.choice([Scalar.zero(), Scalar.from_int(rng.randint(-3, 3))])
        results = [a + b, a - a, -a, a.scale(f), a.scale(Poly.zero(ctx)),
                   a.scale_scalar(s), a.wedge(c), a.d(), a.interior(u),
                   a.lie(u), LogForm.function(f), u + v, u - u, -u, u.scale(f),
                   u.scale_scalar(s), u.bracket(v), LogVectorField.zero(ctx)]
        results += log_frame(ctx)
        for i in ctx.divisor:
            try:
                results.append(a.residue(i))
            except CalculusError:  # a pole beyond the log factor
                pass
        for r in results:
            assert r == _revalidated(r)
            if isinstance(r, LogForm):
                assert all(not q.is_zero() for q in r.terms.values())
            else:
                assert isinstance(r.coeffs, tuple) and len(r.coeffs) == ctx.n


def test_atom_constructors_match_the_checked_ones():
    """Poly.constant, Poly.variable, LogForm.coframe and
    LogVectorField.coordinate skip the checks of the public constructors;
    each builds the value its checked constructor builds, on a chart with no
    divisor coordinate and on one with a divisor coordinate (y), on y and
    off it (x)."""
    one, T = Scalar.one(), Scalar.two_pi_i()
    for divisor in ([], ["y"]):
        ctx = make_context(["x", "y"], divisor)
        e0 = (0, 0)
        for c in (Scalar.zero(), one, T, one + T):
            assert Poly.constant(ctx, c) == Poly(ctx, {e0: c})
        for name, e in (("x", (1, 0)), ("y", (0, 1))):
            i = ctx.index(name)
            assert Poly.variable(ctx, name) == Poly(ctx, {e: one})
            assert LogForm.coframe(ctx, name) == LogForm(ctx, 1, {(i,): Poly(ctx, {e0: one})})
            coeffs = [Poly(ctx)] * ctx.n
            coeffs[i] = Poly(ctx, {e0: one})
            assert LogVectorField.coordinate(ctx, name) == LogVectorField(ctx, coeffs)


def test_form_subtraction_is_adding_the_negation():
    """omega - eta walks eta once; it equals omega + (-eta) for forms of
    degree 0 to 2, and leaves both tables as they were."""
    rng = random.Random(217)
    for _ in range(120):
        ctx = rand_ctx(rng, nmax=3)
        for degree in range(min(ctx.n, 2) + 1):
            w = rand_form(ctx, rng, degree)
            eta = rng.choice([rand_form(ctx, rng, degree), w, -w,
                              w + rand_form(ctx, rng, degree, cells=1)])
            tw, te = dict(w.terms), dict(eta.terms)
            assert (w - eta).terms == (w + (-eta)).terms
            assert w.terms == tw and eta.terms == te
            assert (w - w).is_zero()


def test_d_of_function_is_d_of_the_0_form():
    """d_of_function builds d(f) directly; it is LogForm.function(f).d() on
    seeded polynomials, with Laurent exponents on divisor coordinates and
    with coordinates off the divisor, and on a chart with no coordinates,
    where d(f) is the zero 1-form."""
    rng = random.Random(131)
    laurent = off_divisor = 0
    for _ in range(300):
        ctx = rand_ctx(rng, nmax=4)
        f = rand_poly(ctx, rng, deg=4, terms=4)
        assert d_of_function(f) == LogForm.function(f).d()
        laurent += any(x < 0 for e in f.terms for x in e)
        off_divisor += len(ctx.divisor) < ctx.n and not f.is_zero()
    assert laurent > 20 and off_divisor > 100
    empty = make_context([], [])
    for c in (Scalar.zero(), Scalar.from_int(3)):
        f = Poly.constant(empty, c)
        assert d_of_function(f) == LogForm.function(f).d() == LogForm.zero(empty, 1)


def test_log_components_are_kept_and_handed_out_fresh():
    """A field converts to log components once; each call returns a new list,
    so changing one does not change the next.  The chart's ring inverts y,
    so a @y coefficient that y does not divide has the component x/y."""
    ctx = make_context(["x", "y"], ["y"])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    v = LogVectorField(ctx, [x, x * y])
    first = v.log_components()
    assert first == [x, x]
    first[0] = y
    first.append(y)
    second = v.log_components()
    assert second == [x, x] and second is not first
    assert LogVectorField(ctx, [x, x]).log_components() == [x, x * y ** -1]
