"""Hamiltonian fields and the two brackets, against hand-worked charts.

Chart A: torus x,y with both coordinates on the divisor, omega = e^x ^ e^y.
The expected fields there were derived by solving i_delta omega = df on the
log frame: delta_f = (y df/dy) x d/dx - (x df/dx) y d/dy.

Chart B: torus x,y with only y on the divisor, omega = d(x) ^ dlog(y), the
standard form with one log direction.

Chart C: torus x,y,z,w all on the divisor, omega = e^x ^ e^y + e^z ^ e^w.

The fields are read off the adjugate stored at assembly; the reference they
are checked against solves the Gram system A^T v = b with solve_linear.
"""

import random

import pytest

from logsym import calculus, poisson
from logsym.calculus import (
    FRAME_SAITO,
    CalculusError,
    DegenerateError,
    LogForm,
    LogVectorField,
    assemble_symplectic,
)
from logsym.context import make_context
from logsym.linalg import RationalFunction, solve_linear
from logsym.poisson import (
    PoissonError,
    _exact_ratio,
    _ideal_member,
    bracket,
    hamiltonian,
    jacobi_defect,
    sing_bracket,
    tilde_hamiltonian,
    verify_identities,
)
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import print_canonical
from conftest import rand_poly


def _chart_a():
    ctx = make_context(["x", "y"], ["x", "y"], "torus")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    return ctx, assemble_symplectic(w)


def _chart_b():
    ctx = make_context(["x", "y"], ["y"], "torus")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    return ctx, assemble_symplectic(w)


def _chart_c():
    ctx = make_context(["x", "y", "z", "w"], ["x", "y", "z", "w"], "torus")
    e = [LogForm.coframe(ctx, nm) for nm in ctx.names]
    return ctx, assemble_symplectic(e[0].wedge(e[1]) + e[2].wedge(e[3]))


def _chart_saito():
    """Plain frame on the polynomial plane, omega = (1+T) d(x)^d(y): the Gram
    determinant (1+T)^2 is a nonzero constant but not a unit."""
    ctx = make_context(["x", "y"], [], "poly")
    one_t = Poly.constant(ctx, Scalar.one() + Scalar.two_pi_i())
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(one_t)
    frame = [LogVectorField.coordinate(ctx, "x"), LogVectorField.coordinate(ctx, "y")]
    return ctx, assemble_symplectic(w, frame, FRAME_SAITO)


def _reference_field(S, b):
    """sum_k v_k frame_k with A^T v = b, by a fraction-field solve; None when
    some v_k is not a polynomial."""
    n = S.ctx.n
    at_rows = [[S.gram[k][l] for k in range(n)] for l in range(n)]
    out = LogVectorField.zero(S.ctx)
    for fr, s in zip(S.frame, solve_linear(at_rows, b)):
        p = s.as_poly()
        if p is None:
            return None
        out = out + fr.scale(p)
    return out


def _reference_hamiltonian(S, f):
    return _reference_field(S, [fr.apply(f) for fr in S.frame])


def test_hamiltonian_fields_chart_a():
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    zero = Poly.zero(ctx)
    assert hamiltonian(S, x).delta == LogVectorField(ctx, [zero, -(x * y)])
    assert hamiltonian(S, y).delta == LogVectorField(ctx, [x * y, zero])
    assert bracket(S, x, y) == -(x * y)


def test_hamiltonian_fields_chart_b():
    ctx, S = _chart_b()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    zero = Poly.zero(ctx)
    assert hamiltonian(S, x).delta == LogVectorField(ctx, [zero, -y])
    assert hamiltonian(S, y).delta == LogVectorField(ctx, [y, zero])
    assert bracket(S, x, y) == -y


def test_hamiltonian_matches_closed_form_random():
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    rng = random.Random(501)
    for _ in range(50):
        f = rand_poly(ctx, rng, deg=3, terms=3)
        expect = LogVectorField(ctx, [x * y * f.partial(1), -(x * y * f.partial(0))])
        assert hamiltonian(S, f).delta == expect


def test_bracket_is_antisymmetric_leibniz():
    ctx, S = _chart_b()
    rng = random.Random(502)
    for _ in range(40):
        f = rand_poly(ctx, rng, deg=2, terms=2)
        g = rand_poly(ctx, rng, deg=2, terms=2)
        h = rand_poly(ctx, rng, deg=2, terms=2)
        assert bracket(S, f, g) == -bracket(S, g, f)
        assert bracket(S, f, g * h) == g * bracket(S, f, h) + h * bracket(S, f, g)


def test_jacobi_vanishes_random():
    for maker in (_chart_a, _chart_b):
        ctx, S = maker()
        rng = random.Random(503)
        for _ in range(60):
            f, g, k = (rand_poly(ctx, rng, deg=2, terms=2) for _ in range(3))
            assert jacobi_defect(S, f, g, k).is_zero()


def test_hamiltonian_flows_preserve_omega():
    for maker in (_chart_a, _chart_b):
        ctx, S = maker()
        rng = random.Random(504)
        for _ in range(40):
            f = rand_poly(ctx, rng, deg=3, terms=2)
            assert S.omega.lie(hamiltonian(S, f).delta).is_zero()


def test_sing_bracket_values():
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    # both in the ideal: {x,y}/(xy) = -1
    assert sing_bracket(S, x, y) == Poly.from_int(ctx, -1)
    # one side only, and by antisymmetry in either slot
    a = x + Poly.one(ctx)
    assert sing_bracket(S, x, a).is_zero()
    assert sing_bracket(S, a, x).is_zero()

    ctxb, Sb = _chart_b()
    xb, yb = Poly.variable(ctxb, "x"), Poly.variable(ctxb, "y")
    # {x,y}/y = -1 with only y in the ideal
    assert sing_bracket(Sb, xb, yb) == Poly.from_int(ctxb, -1)


def test_ideal_member_torus_table():
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    two = Poly.from_int(ctx, 2)
    one_t = Poly.constant(ctx, Scalar.one() + Scalar.two_pi_i())
    assert _ideal_member(S, two * x * y)
    assert _ideal_member(S, x)
    assert not _ideal_member(S, x.mul_var_power(0, -2))  # x^-1
    assert not _ideal_member(S, two)  # a unit constant
    assert not _ideal_member(S, one_t * x)  # 1+T is not a unit
    assert not _ideal_member(S, x + y)
    assert not _ideal_member(S, Poly.zero(ctx))
    # chart B: only y is on the divisor, so a monomial touching x is out
    ctxb, Sb = _chart_b()
    xb, yb = Poly.variable(ctxb, "x"), Poly.variable(ctxb, "y")
    assert _ideal_member(Sb, yb)
    assert not _ideal_member(Sb, xb)
    assert not _ideal_member(Sb, xb * yb)


def test_exact_ratio_matches_rational_function():
    rng = random.Random(505)
    for maker in (_chart_a, _chart_b):
        ctx, _ = maker()
        seen = {True: 0, False: 0}
        for k in range(60):
            den = Poly.zero(ctx)
            while den.is_zero():
                den = rand_poly(ctx, rng, deg=2, terms=2, allow_zero=False)
            num = rand_poly(ctx, rng, deg=2, terms=3)
            if k % 2:
                num = num * den  # an exact multiple
            r = RationalFunction(num, den)
            want = r.as_poly()
            seen[want is not None] += 1
            if want is None:
                with pytest.raises(PoissonError) as exc:
                    _exact_ratio(num, den, "ratio")
                # the CLI prints this text: the fraction in canonical notation
                assert str(exc.value) == (
                    "ratio does not stay in the arena ring: %s" % print_canonical(r)
                )
            else:
                assert _exact_ratio(num, den, "ratio") == want
        assert seen[True] and seen[False]


def test_sing_bracket_ring_escape_is_an_error():
    # plain polynomial chart: {x,y} = -1 never becomes divisible by x
    ctx = make_context(["x", "y"], [], "poly")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    S = assemble_symplectic(w)
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    assert bracket(S, x, y) == Poly.from_int(ctx, -1)
    with pytest.raises(PoissonError):
        sing_bracket(S, x, y, h=x)


def test_tilde_fields():
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    zero = Poly.zero(ctx)
    assert tilde_hamiltonian(S, x) == LogVectorField(ctx, [zero, -y])
    assert tilde_hamiltonian(S, y) == LogVectorField(ctx, [x, zero])
    # compound monomial: dlog(xy) = e^x + e^y
    assert tilde_hamiltonian(S, x * y) == LogVectorField(ctx, [x, -y])
    with pytest.raises(PoissonError):
        tilde_hamiltonian(S, x + y)

    ctxp = make_context(["x", "y"], [], "poly")
    wp = LogForm.coframe(ctxp, "x").wedge(LogForm.coframe(ctxp, "y"))
    with pytest.raises(PoissonError):
        tilde_hamiltonian(assemble_symplectic(wp), Poly.variable(ctxp, "x"))


def test_identity_suite_chart_a():
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    rng = random.Random(505)
    for _ in range(15):
        a = rand_poly(ctx, rng, deg=3, terms=2)
        b = rand_poly(ctx, rng, deg=3, terms=2)
        rep = verify_identities(S, x, y, a, b)
        assert rep.core_identities_hold
    # the product identity picks up an honest correction term
    rep = verify_identities(S, x, y, x + Poly.one(ctx), y)
    assert rep.defect_ii == RationalFunction(x * x, x + y)


def test_identity_suite_chart_b():
    ctx, S = _chart_b()
    y = Poly.variable(ctx, "y")
    rng = random.Random(506)
    for _ in range(10):
        a = rand_poly(ctx, rng, deg=3, terms=2)
        b = rand_poly(ctx, rng, deg=3, terms=2)
        rep = verify_identities(S, y, y * y, a, b)
        assert rep.core_identities_hold


def test_assembly_rejects_bad_forms():
    ctx = make_context(["x", "y"], [], "poly")
    x = Poly.variable(ctx, "x")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    with pytest.raises(DegenerateError):
        assemble_symplectic(w.scale(x))
    with pytest.raises(CalculusError):
        assemble_symplectic(LogForm.coframe(ctx, "x"))
    ctx3 = make_context(["x", "y", "z"], [], "poly")
    w3 = LogForm.coframe(ctx3, "x").wedge(LogForm.coframe(ctx3, "y"))
    with pytest.raises(CalculusError):
        assemble_symplectic(w3)  # odd chart dimension
    ctx4 = make_context(["x", "y", "z", "w"], ["x", "y"], "torus")
    z4 = Poly.variable(ctx4, "z")
    wz = LogForm.coframe(ctx4, "x").wedge(LogForm.coframe(ctx4, "y")).scale(z4)
    with pytest.raises(CalculusError):
        assemble_symplectic(wz)  # d(omega) != 0


def test_degenerate_error_carries_det():
    ctx = make_context(["x", "y"], [], "poly")
    x = Poly.variable(ctx, "x")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(x)
    try:
        assemble_symplectic(w)
    except DegenerateError as e:
        assert e.det == x * x
    else:
        pytest.fail("degenerate form was accepted")


def test_hamiltonian_matches_gram_solve():
    for maker, count in ((_chart_a, 30), (_chart_b, 30), (_chart_c, 12)):
        ctx, S = maker()
        rng = random.Random(507)
        for _ in range(count):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            assert hamiltonian(S, f).delta == _reference_hamiltonian(S, f)


def test_tilde_matches_gram_solve():
    for maker in (_chart_a, _chart_c):
        ctx, S = maker()
        rng = random.Random(508)
        for _ in range(8):
            e = tuple(rng.randint(-2, 2) for _ in range(ctx.n))
            if not any(e):
                continue
            u = Poly.monomial(ctx, e, Scalar.from_rational(rng.randint(1, 5), 0, 1))
            b = [Poly.from_int(ctx, x) for x in e]
            assert tilde_hamiltonian(S, u) == _reference_field(S, b)


def test_saito_frame_with_non_unit_constant_det():
    ctx, S = _chart_saito()
    x = Poly.variable(ctx, "x")
    one_t = Poly.constant(ctx, Scalar.one() + Scalar.two_pi_i())
    assert S.det_cert == one_t * one_t
    assert not S.det_cert.is_unit_monomial()
    # delta_x = -(d/dy)/(1+T) leaves the ring ...
    assert _reference_hamiltonian(S, x) is None
    with pytest.raises(PoissonError, match="component 1 leaves the arena ring"):
        hamiltonian(S, x)
    # ... while (1+T)*x has the polynomial field -d/dy
    f = one_t * x
    delta = hamiltonian(S, f).delta
    assert delta == _reference_hamiltonian(S, f)
    assert delta == LogVectorField(ctx, [Poly.zero(ctx), -Poly.one(ctx)])


def test_stored_adjugate_inverts_the_gram_matrix():
    for maker in (_chart_a, _chart_b, _chart_c, _chart_saito):
        ctx, S = maker()
        n = ctx.n
        zero = Poly.zero(ctx)
        for l in range(n):
            for m in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + S.gram[k][l] * S.adjugate[k][m]
                assert acc == (S.det_cert if l == m else zero)


def test_assembly_rejects_a_wrong_adjugate(monkeypatch):
    # corrupt every cofactor (the 1x1 minors of a 2x2 Gram matrix) but not
    # the determinant itself: the check at assembly must catch it
    real = calculus.det_poly

    def skewed(rows):
        d = real(rows)
        return d if len(rows) == 2 else d + Poly.one(d.ctx)

    monkeypatch.setattr(calculus, "det_poly", skewed)
    ctx = make_context(["x", "y"], ["x", "y"], "torus")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    with pytest.raises(CalculusError, match="adjugate"):
        assemble_symplectic(w)


# -- fields passed down --------------------------------------------------------


def _chart_c_open():
    """Chart C with omega + x*e^y^e^z: nondegenerate (Pfaffian 1) but not
    closed, so the Jacobi defect does not vanish; assembled by hand since
    assemble_symplectic rejects it."""
    ctx = make_context(["x", "y", "z", "w"], ["x", "y", "z", "w"], "torus")
    e = [LogForm.coframe(ctx, nm) for nm in ctx.names]
    w = e[0].wedge(e[1]) + e[2].wedge(e[3]) + e[1].wedge(e[2]).scale(Poly.variable(ctx, "x"))
    frame = calculus.log_frame(ctx)
    rows, det, _ = calculus.gram_determinant(w, frame, calculus.FRAME_LOG)
    S = calculus.SymplecticData(
        omega=w, frame=tuple(frame), gram=tuple(tuple(r) for r in rows),
        det_cert=det, adjugate=calculus._adjugate_transpose(rows, det),
        frame_kind=calculus.FRAME_LOG,
    )
    return ctx, S


def _dlog(ctx, u):
    ((e, _),) = u.terms.items()
    return LogForm(ctx, 1, {(i,): Poly.constant(ctx, Scalar.from_int(x))
                            for i, x in enumerate(e) if x})


def _reference_jacobi(S, f, g, k):
    return (bracket(S, f, bracket(S, g, k)) + bracket(S, g, bracket(S, k, f))
            + bracket(S, k, bracket(S, f, g)))


def _reference_identities(S, u, v, a, b):
    """The six defects with every field and bracket recomputed through the
    public hamiltonian, bracket, sing_bracket and tilde_hamiltonian."""
    def field(f):
        return hamiltonian(S, f).delta

    buv = bracket(S, u, v)
    d_sing = field(sing_bracket(S, u, v))
    lhs_i = S.omega.interior(field(buv) - d_sing.scale(u * v))
    defect_i = lhs_i - (_dlog(S.ctx, u) + _dlog(S.ctx, v)).scale(buv)
    defect_ii = (RationalFunction(bracket(S, u, a), u)
                 + RationalFunction(bracket(S, v, a), v)
                 - RationalFunction(bracket(S, u + v, a), u + v))
    defect_iii = -S.omega.evaluate([field(a), field(b)]) - field(a).apply(b)
    defect_iv = field(a).bracket(field(b)) - field(bracket(S, a, b))
    tu, tv = tilde_hamiltonian(S, u), tilde_hamiltonian(S, v)
    defect_v = field(buv) - (tu.bracket(tv).scale(u * v) + (tv + tu).scale(buv))
    return (defect_i, defect_ii, defect_iii, defect_iv, defect_v,
            _reference_jacobi(S, u, a, b))


def _counting_hamiltonian(monkeypatch):
    calls = []
    real = poisson.hamiltonian

    def counting(S, f):
        calls.append(f)
        return real(S, f)

    monkeypatch.setattr(poisson, "hamiltonian", counting)
    return calls


def _ideal_pair(maker, ctx):
    if maker is _chart_b:
        y = Poly.variable(ctx, "y")
        return y, y * y
    return Poly.variable(ctx, "x"), Poly.variable(ctx, ctx.names[1 if ctx.n == 2 else 2])


def test_identities_and_jacobi_pass_fields_down(monkeypatch):
    """verify_identities and jacobi_defect give the defects the public
    functions give when every field is recomputed, with one Hamiltonian
    field per distinct function: 10 and 6 (31 and 12 when every bracket
    made its own fields)."""
    rng = random.Random(507)
    nonzero_jacobi = 0
    for maker in (_chart_a, _chart_b, _chart_c, _chart_c_open):
        ctx, S = maker()
        u, v = _ideal_pair(maker, ctx)
        triples = [[rand_poly(ctx, rng, deg=2, terms=2) for _ in range(3)]
                   for _ in range(4)]
        triples.append([Poly.variable(ctx, nm) for nm in ctx.names[:2] + ctx.names[-1:]])
        for a, b, k in triples:
            want = _reference_identities(S, u, v, a, b)
            want_jac = _reference_jacobi(S, a, b, k)
            calls = _counting_hamiltonian(monkeypatch)
            rep = verify_identities(S, u, v, a, b)
            assert len(calls) == 10
            del calls[:]
            jac = jacobi_defect(S, a, b, k)
            assert len(calls) == 6
            monkeypatch.undo()
            got = (rep.defect_i, rep.defect_ii, rep.defect_iii, rep.defect_iv,
                   rep.defect_v, rep.jacobi)
            assert got == want
            assert jac == want_jac
            nonzero_jacobi += not jac.is_zero()
    # the open chart puts nonzero Jacobi defects to the test
    assert nonzero_jacobi > 0


def test_every_passed_field_was_certified(monkeypatch):
    """Corrupting any one Hamiltonian field the identity suite or the Jacobi
    defect makes is caught by that field's certificate."""
    ctx, S = _chart_c()
    u, v = _ideal_pair(_chart_c, ctx)
    rng = random.Random(508)
    a, b, k = (rand_poly(ctx, rng, deg=2, terms=2) for _ in range(3))
    real = poisson._gram_field
    for run, count in ((lambda: verify_identities(S, u, v, a, b), 10),
                       (lambda: jacobi_defect(S, a, b, k), 6)):
        for bad in range(count):
            made = []

            def corrupt(S, b, what, bad=bad, made=made):
                delta = real(S, b, what)
                if what == "Hamiltonian":
                    made.append(delta)
                    if len(made) == bad + 1:
                        delta = delta + LogVectorField.coordinate(S.ctx, "x")
                return delta

            monkeypatch.setattr(poisson, "_gram_field", corrupt)
            with pytest.raises(PoissonError, match="Hamiltonian certificate failed"):
                run()
            monkeypatch.undo()
