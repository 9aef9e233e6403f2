"""Hamiltonian fields and the two brackets, against hand-worked charts.

Chart A: torus x,y with both coordinates on the divisor, omega = e^x ^ e^y.
The expected fields there were derived by solving i_delta omega = df on the
log frame: delta_f = (y df/dy) x d/dx - (x df/dx) y d/dy.

Chart B: torus x,y with only y on the divisor, omega = d(x) ^ dlog(y), the
standard form with one log direction.

Chart C: torus x,y,z,w all on the divisor, omega = e^x ^ e^y + e^z ^ e^w.

The fields are read off the field map stored at assembly, built from the
Poisson tensor; the reference they are checked against recomputes the Gram
matrix A from the chart's frame and solves A^T v = b with solve_linear.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsym import calculus, linalg, poisson
from logsym.calculus import (
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
    _jacobi,
    _ideal_member,
    bracket,
    hamiltonian,
    bracket_of_fields,
    jacobi_defect,
    sing_bracket,
    tilde_hamiltonian,
    verify_identities,
)
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import eval_in_session, parse_session, print_canonical
from conftest import rand_poly, rand_scalar


def _chart_a():
    ctx = make_context(["x", "y"], ["x", "y"])
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    return ctx, assemble_symplectic(w)


def _chart_b():
    ctx = make_context(["x", "y"], ["y"])
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    return ctx, assemble_symplectic(w)


def _chart_c():
    ctx = make_context(["x", "y", "z", "w"], ["x", "y", "z", "w"])
    e = [LogForm.coframe(ctx, nm) for nm in ctx.names]
    return ctx, assemble_symplectic(e[0].wedge(e[1]) + e[2].wedge(e[3]))


def _plain_frame(ctx):
    return [LogVectorField.coordinate(ctx, nm) for nm in ctx.names]


def _frames(makers):
    """(ctx, S, frame) for charts whose maker returns (ctx, S) assembled on
    the log frame."""
    out = []
    for maker in makers:
        ctx, S = maker()
        out.append((ctx, S, calculus.log_frame(ctx)))
    return out


def _reference_field(S, frame, b):
    """sum_k v_k frame_k with A^T v = b, A the Gram matrix of omega on frame,
    by a fraction-field solve; None when some v_k is not a polynomial."""
    rows = calculus.gram_matrix(S.omega, frame)
    out = LogVectorField.zero(S.ctx)
    for fr, s in zip(frame, solve_linear([list(c) for c in zip(*rows)], b)):
        p = s.as_poly()
        if p is None:
            return None
        out = out + fr.scale(p)
    return out


def _reference_hamiltonian(S, frame, f):
    return _reference_field(S, frame, [fr.apply(f) for fr in frame])


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
                    "ratio does not stay in the chart's ring: %s" % print_canonical(r)
                )
            else:
                assert _exact_ratio(num, den, "ratio") == want
        assert seen[True] and seen[False]


def test_sing_bracket_ring_escape_is_an_error():
    # plain polynomial chart: {x,y} = -1 never becomes divisible by x
    ctx = make_context(["x", "y"], [])
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

    # x has no tilde field on a chart with no divisor, and it has chart A's
    # fields once x and y are divisor coordinates
    ctxp = make_context(["x", "y"], [])
    wp = LogForm.coframe(ctxp, "x").wedge(LogForm.coframe(ctxp, "y"))
    with pytest.raises(PoissonError):
        tilde_hamiltonian(assemble_symplectic(wp), Poly.variable(ctxp, "x"))
    ctxd = make_context(["x", "y"], ["x", "y"])
    Sd = assemble_symplectic(LogForm.coframe(ctxd, "x").wedge(LogForm.coframe(ctxd, "y")))
    xd, yd, zd = Poly.variable(ctxd, "x"), Poly.variable(ctxd, "y"), Poly.zero(ctxd)
    assert tilde_hamiltonian(Sd, xd) == LogVectorField(ctxd, [zd, -yd])
    assert tilde_hamiltonian(Sd, xd * xd * yd) == LogVectorField(ctxd, [xd, -yd - yd])
    with pytest.raises(PoissonError):
        tilde_hamiltonian(Sd, xd + yd)


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


def test_identity_verdict_reduces_no_fraction(monkeypatch):
    """The verdict core_identities_hold never reads defect (ii), so the suite
    and the verdict call _normalize_fraction zero times; the first read of
    defect_ii.num reduces the fraction once, and later reads reuse it."""
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    calls = []
    reduce = linalg._normalize_fraction

    def counted(num, den):
        calls.append(num)
        return reduce(num, den)
    monkeypatch.setattr(linalg, "_normalize_fraction", counted)
    rep = verify_identities(S, x, y, x + Poly.one(ctx), y)
    assert rep.core_identities_hold and not calls
    assert rep.defect_ii.num == x * x and len(calls) == 1
    assert rep.defect_ii.den == x + y
    assert print_canonical(rep.defect_ii) == "(x^2) / (x + y)"
    assert len(calls) == 1


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
    ctx = make_context(["x", "y"], [])
    x = Poly.variable(ctx, "x")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    with pytest.raises(DegenerateError):
        assemble_symplectic(w.scale(x))
    with pytest.raises(CalculusError):
        assemble_symplectic(LogForm.coframe(ctx, "x"))
    ctx3 = make_context(["x", "y", "z"], [])
    w3 = LogForm.coframe(ctx3, "x").wedge(LogForm.coframe(ctx3, "y"))
    with pytest.raises(CalculusError):
        assemble_symplectic(w3)  # odd chart dimension
    ctx4 = make_context(["x", "y", "z", "w"], ["x", "y"])
    z4 = Poly.variable(ctx4, "z")
    wz = LogForm.coframe(ctx4, "x").wedge(LogForm.coframe(ctx4, "y")).scale(z4)
    with pytest.raises(CalculusError):
        assemble_symplectic(wz)  # d(omega) != 0


def test_degenerate_error_carries_det():
    ctx = make_context(["x", "y"], [])
    x = Poly.variable(ctx, "x")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(x)
    try:
        assemble_symplectic(w)
    except DegenerateError as e:
        assert e.det == x * x
    else:
        pytest.fail("degenerate form was accepted")


def test_nondegeneracy_is_decided_once(monkeypatch):
    """SymplecticData decides nondegeneracy when it is built, by one
    is_unit_monomial on det, so Hamiltonian fields run no unit test; a
    hand-built degenerate structure is judged all the same and has no
    Hamiltonian fields."""
    calls = []
    unit = Poly.is_unit_monomial
    monkeypatch.setattr(Poly, "is_unit_monomial",
                        lambda self: calls.append(self) or unit(self))
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        assert S.nondegenerate
        calls.clear()
        x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        for f in (x, y, x * y + Poly.one(ctx)):
            hamiltonian(S, f)
        assert calls == []
    ctx = make_context(["x", "y"], [])
    x = Poly.variable(ctx, "x")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(x)
    rows, det, _ = calculus.gram_determinant(w)
    calls.clear()
    S = calculus.SymplecticData(w, det, ())
    assert calls == [det] and not S.nondegenerate
    with pytest.raises(PoissonError,
                       match=r"degenerate form has no Hamiltonian fields: det = x\^2"):
        hamiltonian(S, x)


def test_gram_determinant_needs_a_2_form():
    """Only a 2-form has a Gram matrix: a form of any other degree is refused
    with its degree named, not answered with an all-zero matrix and a
    "degenerate" verdict."""
    ctx = make_context(["x", "y", "z", "w"], ["x", "y", "z", "w"])
    x, y, z, w = (LogForm.coframe(ctx, v) for v in ctx.names)
    for form in (LogForm.function(Poly.one(ctx)), x, x.wedge(y).wedge(z),
                 x.wedge(y).wedge(z).wedge(w)):
        with pytest.raises(CalculusError) as e:
            calculus.gram_determinant(form)
        assert str(e.value) == "a Gram matrix needs a 2-form, got degree %d" % form.degree
    rows, det, nondeg = calculus.gram_determinant(x.wedge(y) + z.wedge(w))
    assert nondeg and det == Poly.one(ctx)


def test_hamiltonian_matches_gram_solve():
    for maker, count in ((_chart_a, 30), (_chart_b, 30), (_chart_c, 12)):
        ctx, S = maker()
        frame = calculus.log_frame(ctx)
        rng = random.Random(507)
        for _ in range(count):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            assert hamiltonian(S, f).delta == _reference_hamiltonian(S, frame, f)


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
            assert tilde_hamiltonian(S, u) == _reference_field(S, calculus.log_frame(ctx), b)


def _one_plus_t(ctx):
    return Poly.constant(ctx, Scalar.one() + Scalar.two_pi_i())


def test_saito_frame_with_non_unit_constant_det():
    """omega = (1+T) d(x)^d(y) on the polynomial plane: the Gram determinant
    (1+T)^2 is a nonzero constant but no unit of Q(i)[T, T^-1], so the form
    is degenerate on the plain frame given as a frame, as on the log frame,
    which is the same frame here."""
    ctx = make_context(["x", "y"], [])
    one_t = _one_plus_t(ctx)
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(one_t)
    for frame in (_plain_frame(ctx), None):
        rows, det, nondeg = calculus.gram_determinant(w, frame)
        assert det == one_t * one_t and not nondeg
        with pytest.raises(DegenerateError) as e:
            assemble_symplectic(w, frame)
        assert e.value.det == one_t * one_t


def _chart_cross(fields, c):
    """omega = c d(x)^d(y) on the polynomial plane, c a constant Poly, with
    the frame whose coefficient rows fields(x, y, one, zero) returns, of
    determinant 1: the Gram determinant is c^2.  Returns (ctx, S, frame)."""
    ctx = make_context(["x", "y"], [])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y")).scale(c(ctx))
    frame = [LogVectorField(ctx, r) for r in fields(x, y, Poly.one(ctx), Poly.zero(ctx))]
    return ctx, assemble_symplectic(w, frame), frame


_CROSS_FIELDS = [
    lambda x, y, one, zero: [[one, zero], [x, one]],  # @x, x*@x + @y
    lambda x, y, one, zero: [[one, one], [x, one + x]],
]


def _two_pi_i(ctx):
    return Poly.constant(ctx, Scalar.two_pi_i())


def _cross_charts():
    """The two frames whose second field has two nonzero coefficients, with
    omega = T d(x)^d(y): the Gram determinant T^2 is a unit that is not 1."""
    return [_chart_cross(fields, _two_pi_i) for fields in _CROSS_FIELDS]


def test_gram_field_meets_cross_terms():
    """Frames whose fields have several nonzero coefficients, so that the
    coefficients of the Hamiltonian field gather terms from more than one
    frame field: every field equals the fraction-field solve, on these
    frames and on charts A, B and C.  With (1+T) in place of T the same
    frames are degenerate."""
    for fields in _CROSS_FIELDS:
        with pytest.raises(DegenerateError) as e:
            _chart_cross(fields, _one_plus_t)
        one_t = _one_plus_t(e.value.det.ctx)
        assert e.value.det == one_t * one_t
    for ctx, S, frame in _cross_charts():
        t = _two_pi_i(ctx)
        assert S.det_cert == t * t
        assert sum(not c.is_zero() for c in frame[1].coeffs) == 2
        rng = random.Random(515)
        for _ in range(20):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            ref = _reference_hamiltonian(S, frame, f)
            assert ref is not None and hamiltonian(S, f).delta == ref
    for ctx, S, frame in _frames((_chart_a, _chart_b, _chart_c)):
        rng = random.Random(516)
        for _ in range(6):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            assert hamiltonian(S, f).delta == _reference_hamiltonian(S, frame, f)
            e = tuple(rng.randint(-2, 2) if ctx.is_divisor_index(i) else 0
                      for i in range(ctx.n))
            if not any(e):
                continue
            u = Poly.monomial(ctx, e, Scalar.from_rational(rng.randint(1, 5), 0, 1))
            b = [Poly.from_int(ctx, x) for x in e]
            assert tilde_hamiltonian(S, u) == _reference_field(S, frame, b)


def test_adjugate_inverts_the_gram_matrix():
    """The adjugate assembly composes the field map from satisfies
    A^T * adj == det * I, with A and adj recomputed from the chart's frame
    and det the structure's det_cert."""
    for ctx, S, frame in _frames((_chart_a, _chart_b, _chart_c)) + _cross_charts():
        rows = calculus.gram_matrix(S.omega, frame)
        adj = calculus._adjugate_transpose(rows, S.det_cert)
        n = ctx.n
        zero = Poly.zero(ctx)
        for l in range(n):
            for m in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + rows[k][l] * adj[k][m]
                assert acc == (S.det_cert if l == m else zero)


def test_assembly_rejects_a_wrong_adjugate(monkeypatch):
    # corrupt every cofactor (the 1x1 minors of a 2x2 Gram matrix) but not
    # the determinant itself: the check at assembly must catch it
    real = calculus.det_poly

    def skewed(rows):
        d = real(rows)
        return d if len(rows) == 2 else d + Poly.one(d.ctx)

    monkeypatch.setattr(calculus, "det_poly", skewed)
    ctx = make_context(["x", "y"], ["x", "y"])
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    with pytest.raises(CalculusError, match="adjugate"):
        assemble_symplectic(w)


def _gram_product(rows, m):
    """A^T * m for the Gram matrix A = rows."""
    n = len(rows)
    zero = Poly.zero(m[0][0].ctx)
    out = []
    for l in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + rows[k][l] * m[k][j]
            row.append(acc)
        out.append(row)
    return out


def test_poisson_tensor_inverts_and_fields_divide_nothing(monkeypatch):
    """On every chart, the log frames and the cross frames of det T^2, the
    Poisson tensor recomputed from the chart's frame satisfies
    A^T * pi == I, and a Hamiltonian field divides nothing."""
    divisions = []
    real_divides = poisson.divides

    def counting(g, f):
        divisions.append(g)
        return real_divides(g, f)

    monkeypatch.setattr(poisson, "divides", counting)
    rng = random.Random(517)
    for ctx, S, frame in _frames((_chart_a, _chart_b, _chart_c)) + _cross_charts():
        n = ctx.n
        assert S.det_cert.is_unit_monomial()
        rows = calculus.gram_matrix(S.omega, frame)
        pi = calculus._poisson_tensor(calculus._adjugate_transpose(rows, S.det_cert),
                                      S.det_cert)
        identity = [[Poly.one(ctx) if l == j else Poly.zero(ctx) for j in range(n)]
                    for l in range(n)]
        assert _gram_product(rows, pi) == identity
        del divisions[:]
        f = rand_poly(ctx, rng, deg=3, terms=3)
        assert hamiltonian(S, f).delta == _reference_hamiltonian(S, frame, f)
        assert divisions == []


def test_assembly_rejects_a_wrong_poisson_tensor(monkeypatch):
    # skew one entry of pi, leaving the adjugate and det as they are
    real = calculus._poisson_tensor

    def skewed(adj, det):
        pi = [list(row) for row in real(adj, det)]
        pi[0][-1] = pi[0][-1] + Poly.one(det.ctx)
        return tuple(tuple(row) for row in pi)

    monkeypatch.setattr(calculus, "_poisson_tensor", skewed)
    for maker in (_chart_a, _chart_b, _chart_c):
        with pytest.raises(CalculusError, match="Poisson tensor check"):
            maker()


def test_one_derivative_per_hamiltonian_field(monkeypatch):
    """A Hamiltonian field takes d(f) once, for its covector and its
    certificate, and applies no frame field to f; the fields still equal the
    fraction-field solve, on log frames and on a cross frame."""
    counts = {"d": 0, "apply": 0}
    real_d, real_apply = poisson.d_of_function, LogVectorField.apply

    def counting_d(f):
        counts["d"] += 1
        return real_d(f)

    def counting_apply(self, f):
        counts["apply"] += 1
        return real_apply(self, f)

    rng = random.Random(518)
    charts = _frames((_chart_a, _chart_b, _chart_c)) + [_cross_charts()[1]]
    for ctx, S, frame in charts:
        for _ in range(6):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            want = _reference_hamiltonian(S, frame, f)
            with monkeypatch.context() as mp:
                mp.setattr(poisson, "d_of_function", counting_d)
                mp.setattr(LogVectorField, "apply", counting_apply)
                counts.update(d=0, apply=0)
                got = hamiltonian(S, f).delta
                assert counts == {"d": 1, "apply": 0}
            assert got == want


def _saito_charts():
    """omega = dlog(x)^dlog(y) with both coordinates on the divisor, on two
    Saito frames of determinant 1 between their log components, so the Gram
    determinant is 1 and the Poisson tensor exists: x@x, x@x + y@y, and
    x@x + xy@y, y@y.  Each is returned with the log-frame structure of the
    same form and the frame."""
    out = []
    m = parse_session("vars x y\ndivisor coords x y\n")
    w = eval_in_session(m, "dlog(x)^dlog(y)")
    for fields in (("x*@x", "x*@x + y*@y"), ("x*@x + x*y*@y", "y*@y")):
        frame = [eval_in_session(m, t) for t in fields]
        out.append((m, assemble_symplectic(w, frame),
                    assemble_symplectic(w), frame))
    return out


def test_tilde_field_on_a_saito_frame():
    """The tilde field of u = x on the Saito frame x@x, x@x + y@y is the
    log-frame one, -y@y: du/u itself is handed to the field map, not its
    coframe coefficients read as pairings with the frame."""
    for m, S, _, _ in _saito_charts()[:1]:
        u = eval_in_session(m, "x")
        assert tilde_hamiltonian(S, u) == eval_in_session(m, "-y*@y")


def test_fields_do_not_depend_on_the_frame():
    """Hamiltonian fields, brackets and tilde fields on the Saito frames equal
    their log-frame values: an oracle that needs no solver, on frames whose
    plain coefficients are not the log frame's."""
    rng = random.Random(522)
    for m, S, L, _ in _saito_charts():
        ctx = S.ctx
        for _ in range(25):
            f, g = (rand_poly(ctx, rng, deg=3, terms=3) for _ in range(2))
            assert hamiltonian(S, f).delta == hamiltonian(L, f).delta
            assert bracket(S, f, g) == bracket(L, f, g)
        for _ in range(2):
            e = (rng.randint(-2, 2), rng.randint(1, 2))
            u = Poly.monomial(ctx, e, Scalar.from_rational(rng.randint(1, 5), 0, 1))
            assert tilde_hamiltonian(S, u) == tilde_hamiltonian(L, u)


def test_stored_field_map_is_the_gram_solve():
    """The field map composed at assembly sends each coframe basis 1-form e^j
    to the fraction-field solve of A^T v = (frame_l(e^j))_l: its entries are
    the solved field's coefficients."""
    charts = _frames((_chart_a, _chart_b, _chart_c))
    charts += [(S.ctx, S, frame) for _, S, _, frame in _saito_charts()] + _cross_charts()
    for ctx, S, frame in charts:
        n = ctx.n
        zero = Poly.zero(ctx)
        logs = [fr.log_components() for fr in frame]
        for j, name in enumerate(ctx.names):
            b = [logs[l][j] for l in range(n)]
            stored = [dict(row).get(j, zero) for row in S.field_map]
            want = _reference_field(S, frame, b)
            assert list(want.coeffs) == stored
            assert poisson._gram_field(S, LogForm.coframe(ctx, name)) == want


def test_one_field_map_per_structure(monkeypatch):
    """Assembly composes the field map once; Hamiltonian fields, brackets and
    tilde fields compose none."""
    calls = []
    real = calculus._field_map
    monkeypatch.setattr(calculus, "_field_map",
                        lambda *a: calls.append(a) or real(*a))
    for maker in (_chart_a, _chart_b, _chart_c):
        del calls[:]
        ctx, S = maker()
        assert len(calls) == 1
        x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        hamiltonian(S, x * y + x)
        bracket(S, x, y * y)
        tilde_hamiltonian(S, _ideal_pair(maker, ctx)[0])
        assert len(calls) == 1


# -- fields passed down --------------------------------------------------------


def _chart_c_open():
    """Chart C with omega + x*e^y^e^z: nondegenerate (Pfaffian 1) but not
    closed, so the Jacobi defect does not vanish; assembled by hand since
    assemble_symplectic rejects it."""
    ctx = make_context(["x", "y", "z", "w"], ["x", "y", "z", "w"])
    e = [LogForm.coframe(ctx, nm) for nm in ctx.names]
    w = e[0].wedge(e[1]) + e[2].wedge(e[3]) + e[1].wedge(e[2]).scale(Poly.variable(ctx, "x"))
    frame = calculus.log_frame(ctx)
    rows, det, _ = calculus.gram_determinant(w)
    pi = calculus._poisson_tensor(calculus._adjugate_transpose(rows, det), det)
    logs = tuple(tuple(fr.log_components()) for fr in frame)
    return ctx, calculus.SymplecticData(w, det, calculus._field_map(ctx, frame, pi, logs))


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


def test_identities_build_dlog_once_per_monomial(monkeypatch):
    """verify_identities builds du/u and dv/v once each: identity (i) and the
    tilde fields of (v) share them, with the same defects."""
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        u, v = _ideal_pair(maker, ctx)
        x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        want = _reference_identities(S, u, v, x * y + x, x + y)
        calls = []
        real = poisson._dlog_unit
        monkeypatch.setattr(poisson, "_dlog_unit",
                            lambda S, w: calls.append(w) or real(S, w))
        rep = verify_identities(S, u, v, x * y + x, x + y)
        monkeypatch.undo()
        assert calls == [u, v]
        assert (rep.defect_i, rep.defect_ii, rep.defect_iii, rep.defect_iv,
                rep.defect_v, rep.jacobi) == want


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


def _caller():
    """The name of the function that called the caller of _caller: for a
    stand-in of poisson._gram_field, hamiltonian or _tilde."""
    return sys._getframe(2).f_code.co_name


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

            def corrupt(S, b, bad=bad, made=made):
                delta = real(S, b)
                if _caller() == "hamiltonian":
                    made.append(delta)
                    if len(made) == bad + 1:
                        delta = delta + LogVectorField.coordinate(S.ctx, "x")
                return delta

            monkeypatch.setattr(poisson, "_gram_field", corrupt)
            with pytest.raises(PoissonError, match="Hamiltonian certificate failed"):
                run()
            monkeypatch.undo()


def test_a_spoiled_tilde_field_is_caught(monkeypatch):
    """Corrupting the tilde field of u is caught by its own certificate
    i_tilde omega == du/u, called alone or from the identity suite."""
    real = poisson._gram_field

    def corrupt(S, b):
        delta = real(S, b)
        if _caller() == "_tilde":
            delta = delta + LogVectorField.coordinate(S.ctx, S.ctx.names[0])
        return delta

    monkeypatch.setattr(poisson, "_gram_field", corrupt)
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        u, v = _ideal_pair(maker, ctx)
        with pytest.raises(PoissonError, match="tilde certificate failed"):
            tilde_hamiltonian(S, u)
        a = Poly.variable(ctx, "x")
        with pytest.raises(PoissonError, match="tilde certificate failed"):
            verify_identities(S, u, v, a, a * a)


def test_certificates_are_decided_by_equality(monkeypatch):
    """hamiltonian and tilde_hamiltonian decide their certificates by
    comparing i_delta omega with d(f) and du/u: no LogForm difference is
    built.  A Hamiltonian result carries the d(f) its certificate proved
    equal to i_delta omega."""
    subtractions = []
    real = LogForm.__sub__

    def counting(self, other):
        subtractions.append(other)
        return real(self, other)

    monkeypatch.setattr(LogForm, "__sub__", counting)
    rng = random.Random(519)
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        u, _ = _ideal_pair(maker, ctx)
        for _ in range(4):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            res = hamiltonian(S, f)
            assert res.df == LogForm.function(f).d() == S.omega.interior(res.delta)
        tilde_hamiltonian(S, u)
    assert subtractions == []


def test_a_field_converts_to_log_components_once(monkeypatch):
    """A Hamiltonian field is converted to log components by its certificate
    and never again: repeated brackets of held fields convert nothing, and a
    Jacobi defect converts only the three fields it makes, once each."""
    conversions = []
    real = Poly.mul_var_power

    def counting(self, i, k):
        conversions.append(i)
        return real(self, i, k)

    rng = random.Random(520)
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        f, g, k = (rand_poly(ctx, rng, deg=2, terms=2) for _ in range(3))
        hf, hg, hk = (hamiltonian(S, p) for p in (f, g, k))
        monkeypatch.setattr(Poly, "mul_var_power", counting)
        del conversions[:]
        for _ in range(3):
            bracket_of_fields(S, hf, hg)
            bracket_of_fields(S, hg, hk)
        assert conversions == []
        _jacobi(S, hf, hg, hk)
        assert len(conversions) == 3 * len(ctx.divisor)
        monkeypatch.undo()


def test_a_bracket_vs_pairing_defect_is_reported(monkeypatch):
    """Identity (iii) is decided, not raised: with only the omega side of
    {a,b} (the pairing of the certified d(b) with delta_a) spoiled, the
    report carries the difference as (iii)'s defect and every other defect
    is unchanged."""
    ctx, S = _chart_a()
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    a, b = x * y + x, x + y
    want = verify_identities(S, x, y, a, b)
    real = poisson._bracket_sides

    def spoiled(S, hf, hg):
        via_pairing, via_apply = real(S, hf, hg)
        return (via_pairing + Poly.one(S.ctx) if hg.f is b else via_pairing), via_apply

    monkeypatch.setattr(poisson, "_bracket_sides", spoiled)
    rep = verify_identities(S, x, y, a, b)
    assert rep.defect_iii == Poly.one(ctx)
    assert not rep.core_identities_hold
    assert rep._replace(defect_iii=want.defect_iii) == want


def test_a_bracket_contracts_omega_only_in_its_certificates(monkeypatch):
    """{f,g} contracts omega twice, once in each Hamiltonian certificate: the
    cross-check reads omega(delta_g, delta_f) off the certified d(g), on
    charts A, B and C and on both cross frames, and gives the bracket
    -omega(delta_f, delta_g) contracted from omega itself."""
    contractions = []
    real = LogForm.contract

    def counting(self, v):
        contractions.append(self)
        return real(self, v)

    rng = random.Random(521)
    for ctx, S, _ in _frames((_chart_a, _chart_b, _chart_c)) + _cross_charts():
        for _ in range(4):
            f, g = (rand_poly(ctx, rng, deg=2, terms=2) for _ in range(2))
            want = -S.omega.evaluate([hamiltonian(S, f).delta, hamiltonian(S, g).delta])
            monkeypatch.setattr(LogForm, "contract", counting)
            del contractions[:]
            got = bracket(S, f, g)
            monkeypatch.undo()
            assert sum(w is S.omega for w in contractions) == 2
            assert got == want


def test_a_wrong_d_of_g_is_refused_by_the_cross_check():
    """The cross-check pairs the d(g) a Hamiltonian result carries with
    delta_f, so a result built by hand with a wrong d(g) is refused."""
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        hx, hy = hamiltonian(S, x), hamiltonian(S, y)
        assert bracket_of_fields(S, hx, hy) == bracket(S, x, y) != Poly.zero(ctx)
        for wrong in (hy.df + hy.df, hamiltonian(S, x * y).df):
            with pytest.raises(PoissonError, match="bracket consistency failed"):
                bracket_of_fields(S, hx, hy._replace(df=wrong))


def test_identity_i_holds_off_the_divisor_ideal():
    """Identity (i) takes s = {u,v}/(uv): for unit monomials off the divisor
    ideal, where the singular bracket divides by one of u, v or neither, the
    report still agrees with the reference and (i) holds."""
    for maker in (_chart_a, _chart_c):
        ctx, S = maker()
        x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        half_t = Poly.constant(ctx, Scalar.from_rational(Fraction(1, 2), power=1))
        pairs = [(x.inverse_unit(), y), (x * x, x.inverse_unit() * y),
                 (x.inverse_unit(), y.inverse_unit()), (half_t * x.inverse_unit(), x * y)]
        for u, v in pairs:
            assert not (_ideal_member(S, u) and _ideal_member(S, v))
            a, b = x * y + x, x + y
            rep = verify_identities(S, u, v, a, b)
            assert rep.defect_i.is_zero() and rep.core_identities_hold
            got = (rep.defect_i, rep.defect_ii, rep.defect_iii, rep.defect_iv,
                   rep.defect_v, rep.jacobi)
            assert got == _reference_verify_identities(S, u, v, a, b)


# -- the identity suite before its brackets were shared ----------------------


def _reference_bracket(S, df, dg, g):
    """{f,g} = df(g) from the fields df, dg of f, g, cross-checked against
    omega(dg, df) contracted from omega itself."""
    fg = df.apply(g)
    assert S.omega.evaluate([dg, df]) == fg
    return fg


def _reference_bracket_and_field(S, df, dg, g):
    fg = _reference_bracket(S, df, dg, g)
    return fg, hamiltonian(S, fg).delta


def _reference_jacobi_of_fields(S, f, g, k, df, dg, dk, inner=None):
    """_jacobi as it was before it took {f,g} from its caller: each of the
    three inner brackets is cross-checked and given its field here."""
    gk, dgk = inner or _reference_bracket_and_field(S, dg, dk, k)
    kf, dkf = _reference_bracket_and_field(S, dk, df, f)
    fg, dfg = _reference_bracket_and_field(S, df, dg, g)
    return (
        _reference_bracket(S, df, dgk, gk)
        + _reference_bracket(S, dg, dkf, kf)
        + _reference_bracket(S, dk, dfg, fg)
    )


def _reference_verify_identities(S, u, v, a, b):
    """verify_identities as it was before (iii), (iv) and the Jacobi defect
    shared {a,b} and {u,a} and (ii) became one fraction, with every bracket
    cross-checked and (i) and (iii) contracted from omega itself: the same
    steps in the same order, so the same exception where one is raised.
    (i) takes s = {u,v}/(uv); off the divisor ideal it is divided once du/u
    and dv/v exist."""
    du = hamiltonian(S, u).delta
    dv = hamiltonian(S, v).delta
    buv, duv = _reference_bracket_and_field(S, du, dv, v)
    in_u, in_v = _ideal_member(S, u), _ideal_member(S, v)
    sing_uv = poisson._sing_quotient(u, v, in_u, in_v, buv)
    dlog_sum = poisson._dlog_unit(S, u) + poisson._dlog_unit(S, v)
    if not (in_u and in_v):
        sing_uv = _exact_ratio(buv, u * v, "{u,v}/(uv)")
    d_sing = hamiltonian(S, sing_uv).delta
    x_field = duv - d_sing.scale(u * v)
    lhs_i = S.omega.interior(x_field)
    defect_i = lhs_i - dlog_sum.scale(buv)
    da = hamiltonian(S, a).delta
    lhs_ii = RationalFunction(_reference_bracket(S, du, da, a), u) + RationalFunction(
        _reference_bracket(S, dv, da, a), v
    )
    d_sum = hamiltonian(S, u + v).delta
    rhs_ii = RationalFunction(_reference_bracket(S, d_sum, da, a), u + v)
    defect_ii = lhs_ii - rhs_ii
    db = hamiltonian(S, b).delta
    defect_iii = -S.omega.evaluate([da, db]) - da.apply(b)
    bab, dab = _reference_bracket_and_field(S, da, db, b)
    defect_iv = da.bracket(db) - dab
    tu = tilde_hamiltonian(S, u, du)
    tv = tilde_hamiltonian(S, v, dv)
    rhs_v = tu.bracket(tv).scale(u * v) + (tv + tu).scale(buv)
    defect_v = duv - rhs_v
    return (defect_i, defect_ii, defect_iii, defect_iv, defect_v,
            _reference_jacobi_of_fields(S, u, a, b, du, da, db, (bab, dab)))


_SUM_ZERO = "u + v = 0: identity (ii) divides by u + v"


def _outcome(run):
    try:
        return run(), None
    except Exception as e:  # compared by type and message
        return None, e


def _divisor_monomial(ctx, rng, exps):
    """A scalar from the conftest generator (zero sometimes) times a Laurent
    monomial on the divisor coordinates; nonnegative exponents, not all 0,
    make a divisor-ideal member."""
    e = [0] * ctx.n
    for i, x in zip(ctx.divisor, exps):
        e[i] = x
    return Poly.monomial(ctx, e, rand_scalar(rng, tmin=0, tmax=1, terms=1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((_chart_a, _chart_b, _chart_c)),
    st.lists(st.integers(-1, 2), min_size=4, max_size=4),
    st.lists(st.integers(-1, 2), min_size=4, max_size=4),
    st.sampled_from(("free", "free", "free", "-u", "u")),
    st.integers(0, 2**32 - 1),
)
def test_shared_brackets_match_the_reference(maker, eu, ev, tie, seed):
    """verify_identities with its brackets and fraction shared gives the
    reference's six defects, (ii) with the same printed bytes, and wherever
    the reference raises it raises the same exception with the same message;
    the one exception is u + v = 0, where the reference's ZeroDivisionError
    is a PoissonError naming the condition."""
    ctx, S = maker()
    rng = random.Random(seed)
    u = _divisor_monomial(ctx, rng, eu)
    v = -u if tie == "-u" else u if tie == "u" else _divisor_monomial(ctx, rng, ev)
    a, b = (rand_poly(ctx, rng, deg=3, terms=3) for _ in range(2))
    want, want_err = _outcome(lambda: _reference_verify_identities(S, u, v, a, b))
    got, got_err = _outcome(lambda: verify_identities(S, u, v, a, b))
    if want_err is None:
        assert got_err is None
        assert got == want
        assert print_canonical(got.defect_ii) == print_canonical(want[1])
    elif isinstance(want_err, ZeroDivisionError):
        assert (u + v).is_zero()
        assert (type(got_err), str(got_err)) == (PoissonError, _SUM_ZERO)
    else:
        assert (type(got_err), str(got_err)) == (type(want_err), str(want_err))


def test_u_plus_v_zero_is_named_where_ii_is_built(monkeypatch):
    """u + v = 0 raises a PoissonError at identity (ii), after its three
    brackets, and no earlier: an input that fails in (i) keeps (i)'s error."""
    for maker in (_chart_a, _chart_b, _chart_c):
        ctx, S = maker()
        u, _ = _ideal_pair(maker, ctx)
        a, b = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        with pytest.raises(ZeroDivisionError):
            _reference_verify_identities(S, u, -u, a, b)
        calls = _counting_hamiltonian(monkeypatch)
        with pytest.raises(PoissonError) as exc:
            verify_identities(S, u, -u, a, b)
        assert str(exc.value) == _SUM_ZERO
        # u, v, {u,v}, {u,v}/(uv), a and u + v: b is never reached
        assert calls[-2:] == [a, Poly.zero(ctx)]
        monkeypatch.undo()
    # on the half chart x is off the divisor, so du/u fails in (i) first
    ctx, S = _chart_b()
    x = Poly.variable(ctx, "x")
    for run in (_reference_verify_identities, verify_identities):
        with pytest.raises(PoissonError, match="du/u leaves the chart's ring for u = x"):
            run(S, x, -x, x, x)
