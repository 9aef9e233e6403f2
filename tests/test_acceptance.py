"""Acceptance gate: one timed check per release criterion.

Each test covers exactly one criterion and reports a single line
"criterion N: PASS/FAIL (summary, time)" in the terminal summary; the stated
wall-clock budgets are asserted, so a slow pass is a failure.  All checks are
exact (no tolerances anywhere in the package).
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from logsym.calculus import (
    LogForm,
    LogVectorField,
    assemble_symplectic,
    d_of_function,
)
from logsym.cli import main as cli_main
from logsym.connections import (
    Connection1,
    class_and_primitive,
    integrality_check,
    is_flat,
    gauge,
    normalize_residues,
    periods,
    prequantize,
)
from logsym.context import TORUS, make_context
from logsym.divisors import is_logarithmic, saito_check, weighted_homogeneous
from logsym.operators import LogDiffOp1, dirac_check, splitting_check
from logsym.poisson import (
    bracket,
    hamiltonian,
    jacobi_defect,
    sing_bracket,
    verify_identities,
)
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import eval_in_session, parse_session, print_canonical
import logsym
import conftest
from conftest import (
    rand_closed_2form,
    rand_ctx,
    rand_form,
    rand_log_field,
    rand_poly,
    rand_scalar,
)

T = Scalar.two_pi_i()
ROOT = Path(__file__).resolve().parent.parent
SAITO = ROOT / "sessions" / "saito3.lsx"
EXACT = ROOT / "sessions" / "exact.lsx"
TORUS_SESSION = ROOT / "sessions" / "torus.lsx"
PACKAGE_ROOT = str(Path(logsym.__file__).resolve().parent.parent)


@contextmanager
def criterion(n, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append("criterion %d: FAIL (%s)" % (n, desc))
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        conftest.ACCEPTANCE_LINES.append(
            "criterion %d: FAIL (%s, %.2fs over the %ds budget)" % (n, desc, dt, budget)
        )
        raise AssertionError("criterion %d exceeded its %ds budget: %.2fs" % (n, budget, dt))
    conftest.ACCEPTANCE_LINES.append("criterion %d: PASS (%s, %.2fs)" % (n, desc, dt))


def _session(path):
    return parse_session(path.read_text())


def _cli(capsys, *argv):
    code = cli_main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out


def test_criterion_1_free_divisor_example(capsys):
    """The cubic-surface divisor: freeness certified with determinant 1*h,
    all three fields logarithmic, and no weighted homogeneity."""
    with criterion(1, "free divisor certificate with det = 1*h and no weights", budget=1):
        m = _session(SAITO)
        h = m.divisor_equation()
        fields = [m.vfields[k] for k in ("d1", "d2", "d3")]
        for delta in fields:
            ok, _ = is_logarithmic(delta, h)
            assert ok
        res = saito_check(fields, h)
        assert res.free
        assert res.certificate == Scalar.one()
        assert res.det == h
        assert weighted_homogeneous(h) is None

        code, out = _cli(capsys, "check-saito", "--session", SAITO,
                         "--fields", "d1,d2,d3")
        assert code == 0
        assert out.splitlines()[0].startswith("free: det = ")
        assert out.splitlines()[0].endswith(" = 1*h")
        code, out = _cli(capsys, "weights", "--session", SAITO)
        assert code == 1 and out.strip() == "none"


def test_criterion_2_calculus_laws():
    """d.d = 0, the Cartan identity, the interior-product sign rule and the
    Leibniz law of the field bracket, 500 random instances each."""
    with criterion(2, "four calculus laws, 500 random instances each", budget=30):
        rng = random.Random(9102)
        for _ in range(500):
            ctx = rand_ctx(rng, nmax=4)
            w = rand_form(ctx, rng, rng.randint(0, ctx.n), deg=4)
            assert w.d().d().is_zero()
        for _ in range(500):
            ctx = rand_ctx(rng, nmax=4)
            w = rand_form(ctx, rng, rng.randint(1, ctx.n), deg=4)
            delta = rand_log_field(ctx, rng, deg=2)
            rhs = w.interior(delta).d()
            dw = w.d()
            if dw.degree == w.degree + 1:
                rhs = rhs + dw.interior(delta)
            else:
                assert dw.is_zero()  # top degree: the i.d term vanishes
            assert w.lie(delta) == rhs
        for _ in range(500):
            ctx = rand_ctx(rng, nmax=4)
            while ctx.n < 2:  # contraction needs positive degree on both sides
                ctx = rand_ctx(rng, nmax=4)
            p = rng.randint(1, ctx.n - 1)
            a = rand_form(ctx, rng, p, deg=3, cells=2)
            b = rand_form(ctx, rng, rng.randint(1, ctx.n - p), deg=3, cells=2)
            delta = rand_log_field(ctx, rng, deg=2)
            lhs = a.wedge(b).interior(delta)
            rhs = a.interior(delta).wedge(b)
            if p % 2 == 0:
                rhs = rhs + a.wedge(b.interior(delta))
            else:
                rhs = rhs - a.wedge(b.interior(delta))
            assert lhs == rhs
        for _ in range(500):
            ctx = rand_ctx(rng, nmax=4)
            delta = rand_log_field(ctx, rng, deg=2)
            eta = rand_log_field(ctx, rng, deg=2)
            g = rand_poly(ctx, rng, deg=3, terms=2)
            lhs = delta.bracket(eta.scale(g))
            rhs = delta.bracket(eta).scale(g) + eta.scale(delta.apply(g))
            assert lhs == rhs


def test_criterion_3_poisson_suite():
    """The bracket pair on the normal-crossing chart plus the derived
    identities, Jacobi on 200 triples and invariance of omega."""
    with criterion(3, "poisson suite on the full torus chart", budget=30):
        ctx = make_context(["x", "y"], ["x", "y"], "torus")
        w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
        S = assemble_symplectic(w)
        x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
        assert bracket(S, x, y) == -(x * y)
        assert sing_bracket(S, x, y) == Poly.from_int(ctx, -1)

        rng = random.Random(9103)
        for _ in range(25):
            a = rand_poly(ctx, rng, deg=3, terms=3)
            b = rand_poly(ctx, rng, deg=3, terms=3)
            rep = verify_identities(S, x, y, a, b)
            assert rep.core_identities_hold
            for defect in (rep.defect_i, rep.defect_iii, rep.defect_iv, rep.defect_v):
                assert defect.is_zero()
            assert rep.jacobi.is_zero()
        for _ in range(200):
            f, g, k = (rand_poly(ctx, rng, deg=3, terms=3) for _ in range(3))
            assert jacobi_defect(S, f, g, k).is_zero()
        for _ in range(50):
            f = rand_poly(ctx, rng, deg=3, terms=3)
            assert w.lie(hamiltonian(S, f).delta).is_zero()


def test_criterion_4_operator_layer():
    """The symbol map is a Lie homomorphism with the multipliers as kernel,
    and the operator extension splits on both sides."""
    with criterion(4, "symbol homomorphism, multiplier kernel, splitting"):
        ctx = make_context(["x", "y"], ["y"], "torus")
        x = Poly.variable(ctx, "x")
        sigma = LogForm.coframe(ctx, "y").scale(x.scale(T))
        rng = random.Random(9104)

        def op():
            return LogDiffOp1(rand_log_field(ctx, rng, deg=2),
                              rand_poly(ctx, rng, deg=2, terms=2))

        for _ in range(100):
            p1, p2 = op(), op()
            assert p1.commutator(p2).symbol() == p1.symbol().bracket(p2.symbol())
            m1 = LogDiffOp1.multiplier(rand_poly(ctx, rng, deg=2, terms=2))
            assert m1.symbol().is_zero()
            assert m1.commutator(LogDiffOp1.multiplier(
                rand_poly(ctx, rng, deg=2, terms=2))).is_zero()

        ops = [op() for _ in range(30)]
        fields = [rand_log_field(ctx, rng, deg=2) for _ in range(30)]
        rep = splitting_check(sigma, ops, fields)
        assert rep.holds
        assert all(d.is_zero() for d in rep.identity_defects)
        assert all(m.is_zero() for m in rep.composite_defects)


def test_criterion_5_dirac_equivalence():
    """Prequantization commutes with the bracket exactly when the curvature
    is T*omega: positive on the session connection, negative with the
    predicted defect when the connection is dropped."""
    with criterion(5, "bracket condition on 25 pairs, both directions", budget=5):
        m = _session(EXACT)
        S = assemble_symplectic(m.forms["w"])
        sigma = m.conns["s"].sigma
        pool = [m.funcs[k] for k in ("f1", "f2", "f3", "f4", "f5")]
        assert sigma.d() == S.omega.scale_scalar(T)
        for f in pool:
            for g in pool:
                assert dirac_check(f, g, S, sigma).holds

        zero = LogForm.zero(m.ctx, 1)
        nonzero = 0
        for f in pool:
            for g in pool:
                rep = dirac_check(f, g, S, zero)
                df = hamiltonian(S, f).delta
                dg = hamiltonian(S, g).delta
                want = S.omega.evaluate([df, dg]).scale(Scalar.from_int(-1) * T)
                assert rep.defect.delta.is_zero()
                assert rep.defect.mult == want
                if not want.is_zero():
                    nonzero += 1
                    assert not rep.holds
        assert nonzero > 0  # the failing direction is genuinely exercised


def test_criterion_6_connection_laws():
    """Gauge moves, the two-sided flatness criterion on the three stock
    examples, and residue normalization into [0,1)."""
    with criterion(6, "gauge invariance, flatness examples, residue shifts"):
        rng = random.Random(9106)
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

        ctx = make_context(["x", "y"], ["x", "y"], "torus")
        x = Poly.variable(ctx, "x")
        half5 = Scalar.from_rational(Fraction(5, 2))
        ex = LogForm.coframe(ctx, "x")
        ey = LogForm.coframe(ctx, "y")

        flat, res = is_flat(Connection1(ex.scale_scalar(half5)))
        assert flat and res == [half5, Scalar.zero()]
        # curved example on the half chart, where d(x) is the plain coframe
        ctxh = make_context(["x", "y"], ["y"], "torus")
        xh = Poly.variable(ctxh, "x")
        exh, eyh = LogForm.coframe(ctxh, "x"), LogForm.coframe(ctxh, "y")
        flat, curv = is_flat(Connection1(eyh.scale(xh.scale(T))))
        assert not flat and curv == exh.wedge(eyh).scale_scalar(T)
        tail = d_of_function(rand_poly(ctx, rng, deg=3, terms=3))
        flat, res = is_flat(Connection1(ex + tail))
        assert flat and res == [Scalar.one(), Scalar.zero()]
        # converse: constant residues on the coframe always give curvature 0
        a, b = rand_scalar(rng), rand_scalar(rng)
        conn = Connection1(ex.scale_scalar(a) + ey.scale_scalar(b))
        assert conn.curvature.is_zero()
        assert is_flat(conn) == (True, [a, b])

        ctx3 = make_context(["x", "y", "z"], ["x", "y", "z"], "torus")
        cells = {0: half5, 1: Scalar.from_int(-1),
                 2: Scalar.from_rational(Fraction(1, 3))}
        sigma = LogForm(ctx3, 1, {(i,): Poly.constant(ctx3, c)
                                  for i, c in cells.items()})
        conn = Connection1(sigma + d_of_function(rand_poly(ctx3, rng, deg=2, terms=2)))
        out, shifts = normalize_residues(conn)
        assert shifts == [-2, 1, 0]
        got = [out.sigma.residue(i).coefficient(()).as_constant() for i in range(3)]
        assert got == [Scalar.from_rational(Fraction(1, 2)), Scalar.zero(),
                       Scalar.from_rational(Fraction(1, 3))]
        assert out.curvature == conn.curvature


def test_criterion_7_integrality_pipeline(capsys):
    """Periods of the scaled torus form are integral exactly for integer
    scale, and the exact chart runs end to end from the session file through
    the command line."""
    with criterion(7, "integrality sweep and end-to-end chart pipeline", budget=5):
        ctx = make_context(["x", "y"], ["x", "y"], "torus")
        w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
        for m in (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(3, 2)):
            scaled = w.scale_scalar(Scalar.from_rational(Fraction(m)) * T.inverse())
            ok, data = integrality_check(scaled)
            if Fraction(m).denominator == 1:
                assert ok and data == [((0, 1), int(m))]
            else:
                assert not ok
                assert data == ((0, 1), Scalar.from_rational(Fraction(m)) * T)

        # same sweep through the session file and the CLI
        names = ["wm2", "wm1", "w0", "w1", "w2", "wh", "w3h"]
        for name in names:
            code, out = _cli(capsys, "integrality", "--session", TORUS_SESSION,
                             "--form", name)
            integral = name[1] != "h" and not name.endswith("h")
            assert code == (0 if integral else 1), name
            if not integral:
                assert out.startswith("non-integral: period "), name
        code, out = _cli(capsys, "integrality", "--session", TORUS_SESSION,
                         "--form", "w")
        assert code == 1
        assert out.strip() == "non-integral: period T^2 over T_{x,y}"

        # the exact chart: session file -> pipeline -> constructed connection
        sess = _session(EXACT)
        report = prequantize(sess.forms["w"], sess.divisor_equation())
        assert report.prequantizable
        assert report.connection is not None
        S = assemble_symplectic(sess.forms["w"])
        pool = [sess.funcs[k] for k in ("f1", "f2", "f3", "f4", "f5")]
        for f in pool:
            for g in pool:
                assert dirac_check(f, g, S, report.connection.sigma).holds
        code, out = _cli(capsys, "prequantize", "--session", EXACT)
        assert code == 0
        assert "connection: sigma = T*x*dlog(y)" in out.splitlines()
        code, out = _cli(capsys, "dirac-test", "--session", EXACT,
                         "--conn", "s", "--f", "x*y", "--g", "x^2")
        assert code == 0 and out.strip() == "holds"


def test_criterion_8_homotopy_primitive():
    """Splitting a closed form into class plus exact part is bit-exact and
    the periods never see the exact part."""
    with criterion(8, "class + d(primitive) on 100 random closed forms"):
        rng = random.Random(9108)
        done = 0
        while done < 100:
            ctx = rand_ctx(rng, nmax=4, arena=TORUS)
            if ctx.n < 2:
                continue
            w = rand_closed_2form(ctx, rng)
            cls, prim = class_and_primitive(w)
            assert prim.d() + cls == w
            assert periods(w) == periods(cls)
            done += 1


def test_criterion_9_frontend(capsys):
    """Print/parse round-trips on 1000 random objects, the shared session
    files, and byte-identical CLI output across interpreter runs."""
    with criterion(9, "1000 round-trips, session files, byte-stable CLI"):
        rng = random.Random(9109)
        cache = {}
        for _ in range(1000):
            ctx = rand_ctx(rng, nmax=3)
            key = (ctx.names, ctx.divisor, ctx.arena)
            if key not in cache:
                lines = ["vars " + " ".join(ctx.names)]
                if ctx.divisor:
                    lines.append("divisor coords "
                                 + " ".join(ctx.names[i] for i in ctx.divisor))
                lines.append("arena " + ctx.arena)
                cache[key] = parse_session("\n".join(lines) + "\n")
            m = cache[key]
            kind = rng.randrange(4)
            if kind == 0:
                obj = Poly.constant(m.ctx, rand_scalar(rng))
            elif kind == 1:
                obj = rand_poly(m.ctx, rng, deg=3, terms=3)
            elif kind == 2:
                obj = rand_log_field(m.ctx, rng, deg=2)
            else:
                obj = rand_form(m.ctx, rng, rng.randint(0, m.ctx.n), deg=2, cells=2)
            text = print_canonical(obj)
            back = eval_in_session(m, text)
            if isinstance(obj, LogForm) and obj.degree == 0:
                obj = obj.coefficient(())
            assert back == obj, text
            assert print_canonical(back) == text

        for path in (SAITO, EXACT, TORUS_SESSION):
            assert path.is_file()
            parse_session(path.read_text())  # no errors

        argv = [sys.executable, "-m", "logsym.cli", "prequantize",
                "--session", str(TORUS_SESSION), "--form", "w2",
                "--format", "json"]
        # A scrubbed environment, so the output cannot depend on the caller's;
        # it holds only the directory of the logsym package imported here.
        runs = [subprocess.run(argv, capture_output=True,
                               env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                                    "PYTHONPATH": PACKAGE_ROOT})
                for seed in ("0", "1")]
        assert runs[0].returncode == runs[1].returncode == 0, \
            (runs[0].stderr + runs[1].stderr).decode()
        assert runs[0].stdout == runs[1].stdout
