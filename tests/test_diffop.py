"""First-order operators in normal form (symbol, multiplier), the splitting
of the operator extension, and the Dirac bracket condition.

The working chart is torus x,y with y on the divisor and omega = d(x)^dlog(y);
sigma = T*x*dlog(y) has curvature T*omega there, so prequantization holds on
the nose and every frozen value below was first derived by hand.
"""

import random

import pytest

from logsym.calculus import LogForm, LogVectorField, assemble_symplectic
from logsym.context import make_context
from logsym.operators import (
    CochainSpec,
    DiracReport,
    LogDiffOp1,
    OperatorError,
    atiyah_check,
    cochain_eval,
    decompose,
    dirac_check,
    from_connection,
    prequantum_op,
    splitting_check,
    verify_E_condition,
)
from logsym.poisson import bracket, hamiltonian
from logsym.poly import Poly
from logsym.scalars import Scalar
from conftest import rand_log_field, rand_poly

T = Scalar.two_pi_i()


def _chart():
    ctx = make_context(["x", "y"], ["y"])
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    S = assemble_symplectic(w)
    x = Poly.variable(ctx, "x")
    sigma = LogForm.coframe(ctx, "y").scale(x.scale(T))
    return ctx, S, sigma


def _rand_op(ctx, rng):
    return LogDiffOp1(rand_log_field(ctx, rng, deg=2), rand_poly(ctx, rng, deg=2, terms=2))


def test_operator_normal_form_apply():
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    phi = LogDiffOp1(LogVectorField(ctx, [y, Poly.zero(ctx)]), x)
    f = x * y
    assert phi.apply(f) == y * y + x * x * y


def test_commutator_matches_composition():
    ctx, S, sigma = _chart()
    rng = random.Random(601)
    for _ in range(100):
        p1 = _rand_op(ctx, rng)
        p2 = _rand_op(ctx, rng)
        f = rand_poly(ctx, rng, deg=2, terms=2)
        lhs = p1.apply(p2.apply(f)) - p2.apply(p1.apply(f))
        assert p1.commutator(p2).apply(f) == lhs


def test_symbol_is_a_lie_homomorphism():
    ctx, S, sigma = _chart()
    rng = random.Random(602)
    for _ in range(100):
        p1 = _rand_op(ctx, rng)
        p2 = _rand_op(ctx, rng)
        assert p1.commutator(p2).symbol() == p1.symbol().bracket(p2.symbol())
    # kernel of the symbol map: pure multipliers, with trivial brackets
    m1 = LogDiffOp1.multiplier(rand_poly(ctx, rng, deg=2, terms=2))
    m2 = LogDiffOp1.multiplier(rand_poly(ctx, rng, deg=2, terms=2))
    assert m1.symbol().is_zero()
    assert m1.commutator(m2).is_zero()


def test_splitting_identities():
    ctx, S, sigma = _chart()
    rng = random.Random(603)
    ops = [_rand_op(ctx, rng) for _ in range(30)]
    fields = [rand_log_field(ctx, rng, deg=2) for _ in range(30)]
    rep = splitting_check(sigma, ops, fields)
    assert rep.holds
    assert all(d.is_zero() for d in rep.identity_defects)
    assert all(m.is_zero() for m in rep.composite_defects)


def test_decompose_roundtrip():
    ctx, S, sigma = _chart()
    rng = random.Random(604)
    for _ in range(50):
        phi = _rand_op(ctx, rng)
        delta, m = decompose(phi, sigma)
        assert LogDiffOp1.multiplier(m) + from_connection(sigma, delta) == phi


def test_atiyah_pairs():
    ctx, S, sigma = _chart()
    rng = random.Random(605)
    for _ in range(30):
        phi = _rand_op(ctx, rng)
        ok, witness = atiyah_check(phi, phi.symbol())
        assert ok and witness is None
    xi = LogVectorField.coordinate(ctx, "x")
    phi = LogDiffOp1(xi, Poly.zero(ctx))
    ok, witness = atiyah_check(phi, LogVectorField.zero(ctx))
    assert not ok
    assert witness == Poly.variable(ctx, "x")


def test_prequantum_operators_known():
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    zero = Poly.zero(ctx)
    qx = prequantum_op(x, S, sigma)
    assert qx.delta == LogVectorField(ctx, [zero, -y])
    assert qx.mult.is_zero()
    qy = prequantum_op(y, S, sigma)
    assert qy.delta == LogVectorField(ctx, [y, zero])
    assert qy.mult == y.scale(T)


def test_dirac_holds_on_function_pool():
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    pool = [x, y, x * y, x * x, x + y]
    for f in pool:
        for g in pool:
            rep = dirac_check(f, g, S, sigma)
            assert rep.holds
            assert rep.defect.is_zero()


def test_dirac_defect_without_connection_term():
    ctx, S, _ = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    zero_sigma = LogForm.zero(ctx, 1)
    rep = dirac_check(x, y, S, zero_sigma)
    assert not rep.holds
    # K = 0, so the defect is -T*omega(delta_x, delta_y) = -T*y
    assert rep.predicted_mult == (-y).scale(T)
    assert rep.defect.mult == (-y).scale(T)
    assert rep.defect.delta.is_zero()


def test_dirac_with_explicit_alpha():
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    # sigma has curvature T*omega; testing against alpha = 2T must fail
    rep = dirac_check(x, y, S, sigma, alpha=T + T)
    assert not rep.holds
    assert rep.predicted_mult == y.scale(T) - y.scale(T + T)


def test_dirac_predicted_multiplier_is_the_omega_formula():
    """dirac_check reads omega(delta_f, delta_g) as -{f,g}: its predicted
    multiplier is K(delta_f, delta_g) - alpha*omega(delta_f, delta_g) with
    omega contracted directly, for connections with and without the
    matching curvature and for several alpha."""
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    sigmas = [sigma, LogForm.zero(ctx, 1), LogForm.coframe(ctx, "x").scale(x * y)]
    rng = random.Random(131)
    for _ in range(6):
        f, g = (rand_poly(ctx, rng, deg=2, terms=2) for _ in range(2))
        df, dg = hamiltonian(S, f).delta, hamiltonian(S, g).delta
        for s in sigmas:
            for alpha in (None, T + T, Scalar.from_int(-3)):
                a = T if alpha is None else alpha
                want = s.d().evaluate([df, dg]) - S.omega.evaluate([df, dg]).scale(a)
                assert dirac_check(f, g, S, s, alpha).predicted_mult == want


def test_cochain_eval():
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    assert cochain_eval(S.omega, [x, y], S) == y
    assert cochain_eval(sigma, [y], S).is_zero()
    with pytest.raises(OperatorError):
        cochain_eval(S.omega, [x], S)


def test_E_condition():
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    # Q(f) = nabla_{delta_f} + alpha*f against the curvature-matching sigma
    bare = CochainSpec(theta=LogForm.zero(ctx, 1), c=Scalar.one())
    pool = [x, y, x * y, x + y]
    for f in pool:
        for g in pool:
            assert verify_E_condition(bare, f, g, T, S, sigma).is_zero()
    # shifting the cochain by an exact theta adds no curvature
    from logsym.calculus import d_of_function

    shifted = CochainSpec(
        theta=d_of_function(x * y).scale_scalar(T.inverse()), c=Scalar.one()
    )
    for f in pool:
        assert verify_E_condition(shifted, f, y, T, S, sigma).is_zero()
    # with no connection at all the bracket term is left over
    defect = verify_E_condition(bare, x, y, T, S, LogForm.zero(ctx, 1))
    assert defect == -bracket(S, x, y)
    with pytest.raises(OperatorError):
        verify_E_condition(bare, x, y, Scalar.zero(), S, sigma)


def test_E_condition_makes_each_field_once():
    """verify_E_condition gives the defect of its formula written with the
    public API, for a cochain whose theta asks for the fields of f, g and
    {f,g}; the fields it makes, 3, are counted by
    tests/test_poisson.py::test_each_entry_point_makes_each_field_once."""
    ctx, S, sigma = _chart()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    m = CochainSpec(theta=LogForm.coframe(ctx, "y").scale(x), c=Scalar.from_int(3))
    f, g = x, y * y
    df, dg = hamiltonian(S, f).delta, hamiltonian(S, g).delta
    want = (dg.apply(m.eval(f, S)) - df.apply(m.eval(g, S))
            + m.eval(bracket(S, f, g), S)
            - sigma.d().evaluate([df, dg]).scale(T.inverse()))
    assert not want.is_zero()
    assert verify_E_condition(m, f, g, T, S, sigma) == want
