"""Connections on the trivialized module: gauge shifts, flatness with residue
lists, periods and integrality, the homotopy split into class + exact part,
residue normalization, and the full prequantization pipeline."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from logsym import connections
from logsym.calculus import LogForm, assemble_symplectic, d_of_function
from logsym.connections import (
    Connection1,
    PrequantError,
    _normalize_residues_soft,
    class_and_primitive,
    gauge,
    integrality_check,
    is_flat,
    normalize_residues,
    periods,
    prequantize,
)
from logsym.context import make_context
from logsym.operators import dirac_check
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import eval_in_session, parse_session
from conftest import rand_closed_2form, rand_ctx, rand_form, rand_poly, rand_scalar

T = Scalar.two_pi_i()
ROOT = Path(__file__).resolve().parent.parent


def _full_torus():
    return make_context(["x", "y"], ["x", "y"], "torus")


def _half_chart():
    return make_context(["x", "y"], ["y"], "torus")


def _const_form(ctx, cells):
    return LogForm(
        ctx, 1, {(i,): Poly.constant(ctx, c) for i, c in cells.items()}
    )


# -- gauge and flatness ------------------------------------------------------


def test_gauge_preserves_curvature_random():
    rng = random.Random(701)
    for _ in range(100):
        ctx = rand_ctx(rng, nmax=3)
        conn = Connection1(rand_form(ctx, rng, 1))
        tau = d_of_function(rand_poly(ctx, rng, deg=3, terms=2))
        for i in range(ctx.n):
            if rng.random() < 0.4:
                tau = tau + LogForm(
                    ctx, 1, {(i,): Poly.constant(ctx, rand_scalar(rng, terms=1))}
                )
        out = gauge(conn, tau)
        assert out.curvature == conn.curvature
        assert out.sigma == conn.sigma + tau


def test_gauge_rejects_bad_tau():
    ctx = _half_chart()
    x = Poly.variable(ctx, "x")
    conn = Connection1(LogForm.zero(ctx, 1))
    with pytest.raises(PrequantError):
        gauge(conn, LogForm.coframe(ctx, "y").scale(x))  # d(x e^y) != 0
    with pytest.raises(PrequantError):
        gauge(conn, LogForm.zero(ctx, 2))


def test_flatness_examples():
    ctx = _full_torus()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    # constant residues plus an exact tail
    sigma = _const_form(ctx, {0: Scalar.from_rational(Fraction(5, 2))})
    sigma = sigma + d_of_function(x * x * y)
    flat, res = is_flat(Connection1(sigma))
    assert flat
    assert res == [Scalar.from_rational(Fraction(5, 2)), Scalar.zero()]

    # curvature obstruction
    ctxb = _half_chart()
    xb = Poly.variable(ctxb, "x")
    curved = Connection1(LogForm.coframe(ctxb, "y").scale(xb))
    flat, k = is_flat(curved)
    assert not flat
    assert k == curved.curvature and not k.is_zero()

    # Laurent coefficients still decompose
    inv = Poly.one(ctx).mul_var_power(0, -1)
    flat, res = is_flat(Connection1(LogForm(ctx, 1, {(0,): -inv})))
    assert flat
    assert res == [Scalar.zero(), Scalar.zero()]


def test_flat_residues_are_cross_checked(monkeypatch):
    ctx = _full_torus()
    sigma = _const_form(ctx, {0: Scalar.from_rational(Fraction(5, 2))})
    for spoiled in ((True, [Scalar.zero(), Scalar.zero()]),
                    (False, (1, Poly.variable(ctx, "x")))):
        monkeypatch.setattr(connections, "res_const", lambda eta, r=spoiled: r)
        with pytest.raises(PrequantError, match="residue decomposition mismatch"):
            is_flat(Connection1(sigma))


# -- residue normalization ---------------------------------------------------


def test_normalize_residue_triple():
    ctx = make_context(["x", "y", "z"], ["x", "y", "z"], "torus")
    sigma = _const_form(
        ctx,
        {
            0: Scalar.from_rational(Fraction(5, 2)),
            1: Scalar.from_int(-1),
            2: Scalar.from_rational(Fraction(1, 3)),
        },
    )
    conn = Connection1(sigma)
    out, shifts = normalize_residues(conn)
    assert shifts == [-2, 1, 0]
    got = [
        out.sigma.residue(i).coefficient(()).as_constant() for i in range(3)
    ]
    assert got == [
        Scalar.from_rational(Fraction(1, 2)),
        Scalar.zero(),
        Scalar.from_rational(Fraction(1, 3)),
    ]
    assert out.curvature == conn.curvature


def test_normalize_noop_when_in_range():
    ctx = _full_torus()
    sigma = _const_form(
        ctx, {0: Scalar.from_rational(Fraction(1, 2)), 1: Scalar.zero()}
    )
    out, shifts = normalize_residues(Connection1(sigma))
    assert shifts == [0, 0]
    assert out.sigma == sigma


def test_normalize_rejections():
    ctx = _full_torus()
    y = Poly.variable(ctx, "y")
    with pytest.raises(PrequantError):
        normalize_residues(Connection1(LogForm(ctx, 1, {(0,): y})))
    with pytest.raises(PrequantError):
        normalize_residues(Connection1(_const_form(ctx, {0: T})))
    ctxp = make_context(["x", "y"], [], "poly")
    with pytest.raises(PrequantError):
        normalize_residues(Connection1(LogForm.zero(ctxp, 1)))


# -- periods and integrality -------------------------------------------------


def test_periods_known_values():
    ctx = _full_torus()
    x = Poly.variable(ctx, "x")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    assert periods(w) == [((0, 1), T * T)]
    # nonconstant coefficients do not contribute to the cycle integral
    assert periods(w.scale(x)) == [((0, 1), Scalar.zero())]
    # a single log direction has no 2-cycles
    assert periods(LogForm.coframe(_half_chart(), "x").wedge(LogForm.coframe(_half_chart(), "y"))) == []


def test_integrality_sweep():
    ctx = _full_torus()
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    for m in (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(3, 2)):
        scaled = w.scale_scalar(Scalar.from_rational(Fraction(m)) * T.inverse())
        ok, data = integrality_check(scaled)
        if Fraction(m).denominator == 1:
            assert ok
            assert data == [((0, 1), int(m))]
        else:
            assert not ok
            pair, period = data
            assert pair == (0, 1)
            assert period == Scalar.from_rational(Fraction(m)) * T


def test_periods_reject_bad_input():
    ctx = _full_torus()
    x = Poly.variable(ctx, "x")
    with pytest.raises(PrequantError):
        periods(LogForm.coframe(ctx, "x"))
    ctx4 = make_context(["x", "y", "z", "w"], ["x", "y"], "torus")
    z4 = Poly.variable(ctx4, "z")
    bad = LogForm.coframe(ctx4, "x").wedge(LogForm.coframe(ctx4, "y")).scale(z4)
    with pytest.raises(PrequantError):
        periods(bad)


# -- homotopy ---------------------------------------------------------------


def test_class_and_primitive_examples():
    ctx = _full_torus()
    x = Poly.variable(ctx, "x")
    ex, ey = LogForm.coframe(ctx, "x"), LogForm.coframe(ctx, "y")
    harmonic = ex.wedge(ey).scale_scalar(Scalar.from_int(2))
    cls, prim = class_and_primitive(harmonic)
    assert cls == harmonic and prim.is_zero()

    exact = ex.wedge(ey).scale(x)  # = d(x e^y)
    cls, prim = class_and_primitive(exact)
    assert cls.is_zero()
    assert prim == ey.scale(x)

    mixed = harmonic + exact
    cls, prim = class_and_primitive(mixed)
    assert cls == harmonic and prim == ey.scale(x)

    # plain-coordinate weight: d(x) ^ dlog(y) = d(x dlog y)
    ctxb = _half_chart()
    xb = Poly.variable(ctxb, "x")
    w = LogForm.coframe(ctxb, "x").wedge(LogForm.coframe(ctxb, "y"))
    cls, prim = class_and_primitive(w)
    assert cls.is_zero()
    assert prim == LogForm.coframe(ctxb, "y").scale(xb)

    # Laurent exponents pick the log pivot with its actual weight
    inv = Poly.one(ctx).mul_var_power(0, -1)
    lw = ex.wedge(ey).scale(inv)
    cls, prim = class_and_primitive(lw)
    assert cls.is_zero()
    assert prim == ey.scale(-inv)


def test_homotopy_random_closed_forms():
    rng = random.Random(702)
    done = 0
    while done < 100:
        ctx = rand_ctx(rng, nmax=4)
        if ctx.n < 2:
            continue
        w = rand_closed_2form(ctx, rng)
        cls, prim = class_and_primitive(w)
        assert prim.d() + cls == w
        for I, c in cls.terms.items():
            assert all(ctx.is_divisor_index(i) for i in I)
            assert c.is_constant()
        # the class is its own class, the exact part has none
        cls2, prim2 = class_and_primitive(cls) if not cls.is_zero() else (cls, None)
        assert cls2 == cls
        if not cls.is_zero():
            assert prim2.is_zero()
        # periods only see the class
        assert periods(w) == periods(cls)
        done += 1


def test_homotopy_rejects_bad_input():
    ctx = _full_torus()
    x = Poly.variable(ctx, "x")
    with pytest.raises(PrequantError):
        class_and_primitive(LogForm.function(x))
    ctx4 = make_context(["x", "y", "z", "w"], ["x", "y"], "torus")
    z4 = Poly.variable(ctx4, "z")
    with pytest.raises(PrequantError):
        class_and_primitive(
            LogForm.coframe(ctx4, "x").wedge(LogForm.coframe(ctx4, "y")).scale(z4)
        )


# -- the pipeline ------------------------------------------------------------


def test_prequantize_standard_chart():
    ctx = _half_chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    rep = prequantize(w)
    assert rep.closed and rep.nondegenerate and rep.even_dim
    assert rep.integral is True and rep.witness is None
    assert rep.prequantizable is True
    assert rep.class_part.is_zero()
    assert rep.connection is not None
    assert rep.connection.sigma == LogForm.coframe(ctx, "y").scale(x.scale(T))
    assert rep.connection.curvature == w.scale_scalar(T)
    assert rep.normalized_shifts == [0]
    assert rep.residues == [(1, x.scale(T))]
    # the constructed connection satisfies the bracket condition
    S = assemble_symplectic(w)
    assert dirac_check(x, y, S, rep.connection.sigma).holds


def test_prequantize_connection_needs_no_residue_shift():
    """The pipeline returns the homotopy primitive itself with shifts all 0:
    the one shift rule moves none of its residues, since each monomial of
    the primitive has a nonzero exponent and no residue has a constant
    term."""
    rng = random.Random(709)
    built = 0
    for _ in range(120):
        names = ["x", "y", "z", "w"][: rng.choice((2, 4))]
        ctx = make_context(names, rng.sample(names, rng.randint(0, len(names))),
                           rng.choice(("poly", "torus")))
        e = [LogForm.coframe(ctx, nm) for nm in names]
        w = e[0].wedge(e[1])
        if ctx.n == 4:
            w = w + e[2].wedge(e[3])
        rep = prequantize(w + rand_form(ctx, rng, 1).d())
        if rep.connection is None:
            continue
        built += 1
        assert rep.connection.sigma == rep.primitive
        assert rep.normalized_shifts == [0] * len(ctx.divisor)
        shifted, shifts = _normalize_residues_soft(rep.connection)
        assert (shifted.sigma, shifts) == (rep.primitive, rep.normalized_shifts)
    assert built > 10


def test_prequantize_integral_class():
    ctx = _full_torus()
    base = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    w = base.scale_scalar(Scalar.from_int(2) * T.inverse())
    rep = prequantize(w)
    assert rep.closed and rep.nondegenerate and rep.even_dim
    assert rep.periods == [((0, 1), T + T)]
    assert rep.integral is True
    assert rep.prequantizable is True
    assert rep.connection is None
    assert rep.class_part == base.scale_scalar(Scalar.from_int(2))
    assert rep.obstruction is not None and "class part nonzero" in rep.obstruction


def test_prequantize_harmonic_form_is_not_integral():
    # period T^2 is not an integer multiple of T
    ctx = _full_torus()
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    rep = prequantize(w)
    assert rep.integral is False
    assert rep.witness == ((0, 1), T * T)
    assert rep.prequantizable is False
    assert "non-integral" in rep.obstruction


def test_prequantize_non_integral():
    ctx = _full_torus()
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    half = w.scale_scalar(Scalar.from_rational(Fraction(1, 2)) * T.inverse())
    rep = prequantize(half)
    assert rep.closed and rep.nondegenerate
    assert rep.integral is False
    assert rep.prequantizable is False
    assert rep.witness == ((0, 1), Scalar.from_rational(Fraction(1, 2)) * T)
    assert "non-integral" in rep.obstruction


def test_prequantize_reads_integrality_from_its_periods(monkeypatch):
    """One prequantize call computes the periods once, and its integrality
    verdict and witness are integrality_check's on the same form."""
    ctx = _full_torus()
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    forms = [w.scale_scalar(Scalar.from_rational(Fraction(m)) * T.inverse())
             for m in (0, 2, Fraction(1, 2))] + [w]
    want = [integrality_check(f) for f in forms]
    calls = []

    def counting_periods(omega):
        calls.append(omega)
        return periods(omega)

    monkeypatch.setattr(connections, "periods", counting_periods)
    for f, (ok, data) in zip(forms, want):
        rep = prequantize(f)
        assert calls == [f]
        calls.clear()
        assert rep.integral is ok
        assert rep.witness == (None if ok else data)


def test_prequantize_decides_closedness_once(monkeypatch):
    """One prequantize call takes the exterior derivative of omega once, for
    its closedness verdict, its periods and the homotopy split of T*omega;
    the other d is the homotopy's own check d(primitive) + class == T*omega.
    A form that is not closed is differentiated once and goes no further."""
    m = parse_session((ROOT / "sessions" / "torus.lsx").read_text())
    degrees = []
    real = LogForm.d
    monkeypatch.setattr(LogForm, "d", lambda self: degrees.append(self.degree) or real(self))
    for name in ("w", "w1"):
        del degrees[:]
        rep = prequantize(m.forms[name])
        assert rep.closed and degrees == [2, 1]
    ctx4 = make_context(["x", "y", "z", "w"], ["x", "y"], "torus")
    z4 = Poly.variable(ctx4, "z")
    del degrees[:]
    rep = prequantize(LogForm.coframe(ctx4, "x").wedge(LogForm.coframe(ctx4, "y")).scale(z4))
    assert not rep.closed and degrees == [2]


def test_connections_differentiate_each_form_once(monkeypatch):
    """A connection's curvature is its one d(sigma): is_flat splits a flat
    connection form without taking d(sigma) again (only the homotopy's
    check d(primitive) + class == sigma differentiates), and prequantize
    reuses the d(primitive) of its split's check as the curvature."""
    m = parse_session((ROOT / "sessions" / "torus.lsx").read_text())
    sigma = eval_in_session(m, "(5/2)*dlog(x) + d(x*y)")
    degrees = []
    real = LogForm.d
    monkeypatch.setattr(LogForm, "d", lambda self: degrees.append(self.degree) or real(self))
    conn = Connection1(sigma)
    assert degrees == [1]
    del degrees[:]
    ok, residues = is_flat(conn)
    assert ok and residues == [Scalar.from_rational(Fraction(5, 2)), Scalar.zero()]
    assert degrees == [0]
    del degrees[:]
    rep = prequantize(m.forms["wexact"])
    assert degrees == [2, 1]
    assert rep.connection is not None
    assert rep.connection.curvature == m.forms["wexact"].scale_scalar(T)


def test_prequantize_failure_modes():
    ctxp = make_context(["x", "y"], [], "poly")
    xp = Poly.variable(ctxp, "x")
    w = LogForm.coframe(ctxp, "x").wedge(LogForm.coframe(ctxp, "y"))
    rep = prequantize(w.scale(xp))
    assert not rep.nondegenerate
    assert rep.prequantizable is False
    assert rep.obstruction == "form is degenerate on this chart"

    ctx3 = make_context(["x", "y", "z"], [], "poly")
    w3 = LogForm.coframe(ctx3, "x").wedge(LogForm.coframe(ctx3, "y"))
    rep = prequantize(w3)
    assert not rep.even_dim
    assert rep.prequantizable is False

    ctx4 = make_context(["x", "y", "z", "w"], ["x", "y"], "torus")
    z4 = Poly.variable(ctx4, "z")
    rep = prequantize(
        LogForm.coframe(ctx4, "x").wedge(LogForm.coframe(ctx4, "y")).scale(z4)
    )
    assert not rep.closed
    assert rep.obstruction == "form is not closed"
    assert rep.prequantizable is False

    with pytest.raises(PrequantError):
        prequantize(LogForm.coframe(ctxp, "x"))


def test_prequantize_chart_notes():
    ctx = _full_torus()
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    assert "normal crossing" in prequantize(w).lct_caveat

    ctxp = make_context(["x", "y"], [], "poly")
    wp = LogForm.coframe(ctxp, "x").wedge(LogForm.coframe(ctxp, "y"))
    assert "de Rham" in prequantize(wp).lct_caveat
    xp, yp = Poly.variable(ctxp, "x"), Poly.variable(ctxp, "y")
    note = prequantize(wp, divisor_h=xp * yp).lct_caveat
    assert "normal crossing" in note
    note = prequantize(wp, divisor_h=xp ** 3 + yp * yp).lct_caveat
    assert "weighted homogeneous" in note and "2,3" in note
    assert "undecided" in note and "holds" not in note
    skew = xp * yp * (xp + yp) * (xp + yp * yp)
    note = prequantize(wp, divisor_h=skew).lct_caveat
    assert "not weighted homogeneous" in note
