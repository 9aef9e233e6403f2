"""Independent oracle: the exact kernels against sympy.

sympy shares no code with logsym.  T is a sympy symbol and I is sympy.I, so a
Scalar is a Laurent polynomial in T over QQ(i) and a Poly is a polynomial in
x, y over those.  The ring QQ(i)[x, y, T, 1/T] is a localization of a unique
factorization domain whose units are c*T^k, so a quotient is exact when its
reduced denominator is such a monomial, and two gcds agree when their ratio
is one.  A chart inverts its divisor coordinates too, so there the units
are c*T^k times monomials in those coordinates.  Skipped
where sympy is not installed; logsym itself stays stdlib-only.

Random factors stay of degree at most 1: sympy's multivariate gcd over QQ_I
took 35 s on one 3-variable case, so denser products are checked against
their planted factors in test_divisor.py instead.
"""

import random
from fractions import Fraction

import pytest

from logsym.calculus import LogForm, along_divisor, gram_determinant, log_frame
from logsym.context import make_context
from logsym.divisors import check_squarefree
from logsym.linalg import det_poly
from logsym.poly import Poly, divides, gcd_mv
from logsym.scalars import Scalar, ScalarError, scalar_gcd

sympy = pytest.importorskip("sympy")

T, X, Y, Z = sympy.symbols("T x y z")
VARS = (X, Y, Z)
RING = sympy.QQ_I[T, X, Y, Z]


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
    return sum((sym_scalar(c) * sympy.Mul(*(v ** k for v, k in zip(VARS, e)))
                for e, c in p.terms.items()), sympy.Integer(0))


def is_zero(expr):
    return sympy.expand(expr) == 0


def is_unit(expr, invertible=()):
    """Whether a nonzero expression is c*T^k times a monomial in the
    invertible variables, a unit of QQ(i)[T, 1/T] with those inverted."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    fixed = [v for v in VARS if v not in invertible]
    return all(sympy.Poly(part, T, *VARS).is_monomial
               and sympy.Poly(part, *fixed).is_ground for part in (num, den))


def exact_quotient_by_sympy(sf, sg, invertible=()):
    """Whether sg divides sf in the ring with T and the invertible variables
    inverted: the reduced denominator of sf/sg is a unit there."""
    return is_unit(sympy.fraction(sympy.cancel(sf / sg))[1], invertible)


def sympy_gcd(*exprs, invertible=()):
    """sympy's gcd of Laurent expressions, each first divided by its lowest
    monomial in T and the invertible variables (a unit of the ring)."""
    gens = (T,) + VARS
    shift = T ** 8 * sympy.Mul(*(v ** 8 for v in invertible))
    polys = []
    for e in exprs:
        p = sympy.Poly(sympy.expand(e * shift), *gens, domain="QQ_I")
        low = [min(m[k] for m in p.monoms()) if v == T or v in invertible else 0
               for k, v in enumerate(gens)]
        polys.append(sympy.Poly.from_dict(
            {tuple(a - b for a, b in zip(m, low)): c for m, c in p.terms()},
            *gens, domain="QQ_I"))
    g = polys[0]
    for p in polys[1:]:
        g = sympy.gcd(g, p)
    return g.as_expr()


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
        assert ok == exact_quotient_by_sympy(sf, sg)
        if ok:
            assert is_zero(sym_poly(q) * sg - sf)
        # gcd_mv of two multiples of h, up to a unit c*T^k
        got = sym_poly(gcd_mv(f * h, g * h))
        assert is_unit(got / sympy_gcd(sf * sh, sg * sh))


def rand_linear(ctx, rng, unit_shift=False):
    """A random factor of degree at most 1 in the context's variables, with
    nonconstant scalar coefficients now and then; times a random Laurent
    monomial in the divisor coordinates when unit_shift is set."""
    while True:
        p = Poly.zero(ctx)
        for e in [(0,) * ctx.n] + [tuple(int(i == j) for j in range(ctx.n))
                                   for i in range(ctx.n)]:
            if rng.random() < 0.7:
                c = rand_scalar(rng, max_terms=2 if rng.random() < 0.2 else 1)
                p = p + Poly.monomial(ctx, e, c)
        if not p.is_constant():
            break
    if unit_shift:
        for i in ctx.divisor:
            p = p.mul_var_power(i, rng.randint(-2, 1))
    return p


def test_gcd_mv_and_divides_three_variables_against_sympy():
    rng = random.Random(303)
    ctx = make_context(["x", "y", "z"])
    for _ in range(8):
        l1, l2, l3 = (rand_linear(ctx, rng) for _ in range(3))
        f, g = l1 * l2, l1 * l3
        sf, sg, s3 = sym_poly(f), sym_poly(g), sym_poly(l3)
        got = sym_poly(gcd_mv(f, g))
        assert is_unit(got / sympy_gcd(sf, sg))
        ok, q = divides(l1, f)
        assert ok and is_zero(sym_poly(q) * sym_poly(l1) - sf)
        ok, q = divides(l3, f)
        assert ok == exact_quotient_by_sympy(sf, s3)
        if ok:
            assert is_zero(sym_poly(q) * s3 - sf)


def test_torus_negative_exponents_against_sympy():
    """Laurent inputs on the divisor coordinates x, y of a 3-variable torus
    chart; gcds agree up to units of that ring, monomials in x, y included."""
    rng = random.Random(304)
    ctx = make_context(["x", "y", "z"], ["x", "y"])
    inv = (X, Y)
    for _ in range(6):
        l1, l2, l3 = (rand_linear(ctx, rng, unit_shift=True) for _ in range(3))
        f, g = l1 * l2, l1 * l3
        sf, sg = sym_poly(f), sym_poly(g)
        got = sym_poly(gcd_mv(f, g))
        assert is_unit(got / sympy_gcd(sf, sg, invertible=inv), inv)
        for d in (l1, l3, l2 * l3):
            sd = sym_poly(d)
            ok, q = divides(d, f)
            assert ok == exact_quotient_by_sympy(sf, sd, inv)
            if ok:
                assert is_zero(sym_poly(q) * sd - sf)


def test_gcd_of_t_polynomial_contents_against_sympy():
    """Contents that are polynomials in T (not units) survive into the gcd."""
    rng = random.Random(305)
    ctx = make_context(["x", "y"])
    for _ in range(15):
        a, b, c = (Poly.constant(ctx, rand_scalar(rng)) for _ in range(3))
        l1, l2 = rand_linear(ctx, rng), rand_linear(ctx, rng)
        f, g = c * a * l1, c * b * l2
        got = sym_poly(gcd_mv(f, g))
        assert is_unit(got / sympy_gcd(sym_poly(f), sym_poly(g)))
        # a constant against a polynomial: the gcd is their scalar gcd
        got = sym_poly(gcd_mv(c * a, f * l2))
        assert is_unit(got / sympy_gcd(sym_poly(c * a), sym_poly(f * l2)))


def test_check_squarefree_planted_squares_against_sympy():
    """A planted square is found and nothing else is.  sympy checks that the
    two factors are not proportional, and that the witness divides h and
    every partial of h and is the squared factor times a scalar."""
    rng = random.Random(306)
    for names in (["x", "y"], ["x", "y", "z"]):
        ctx = make_context(names)
        gens = VARS[:len(names)]
        for it in range(10):
            l1, l2 = rand_linear(ctx, rng), rand_linear(ctx, rng)
            s1 = sym_poly(l1)
            if not any(sympy.cancel(s1 / sym_poly(l2)).has(v) for v in gens):
                continue  # proportional factors would plant a square
            squared = it % 2 == 1
            h = l1 * l1 * l2 if squared else l1 * l2
            ok, witness = check_squarefree(h)
            assert ok != squared
            if squared:
                sw, sh = sym_poly(witness), sym_poly(h)
                for e in [sh] + [sympy.diff(sh, v) for v in gens]:
                    assert exact_quotient_by_sympy(e, sw)
                assert not sympy.cancel(sw / s1).has(*gens)


def test_divides_by_unit_monomials_against_sympy():
    rng = random.Random(307)
    for divisor in ([], ["x"], ["x", "y"]):
        ctx = make_context(["x", "y"], divisor)
        inv = tuple(VARS[ctx.index(n)] for n in divisor)
        for _ in range(15):
            f = rand_linear(ctx, rng, unit_shift=True) * rand_linear(ctx, rng)
            e = tuple(rng.randint(-3, 3) if ctx.laurent_ok(i) else 0 for i in range(ctx.n))
            u = Poly.monomial(ctx, e, rand_scalar(rng, max_terms=1))
            assert u.is_unit_monomial() and is_unit(sym_poly(u), inv)
            ok, q = divides(u, f)
            assert ok and is_zero(sym_poly(q) * sym_poly(u) - sym_poly(f))


def rand_entry(ctx, rng, laurent=()):
    """A polynomial of one or two terms of degree at most 1 in each variable,
    -1 allowed on the indices in laurent; 0 about a tenth of the time."""
    p = Poly.zero(ctx)
    if rng.random() < 0.1:
        return p
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(-1 if i in laurent else 0, 1) for i in range(ctx.n))
        p = p + Poly.monomial(ctx, e, rand_scalar(rng, max_terms=2))
    return p


def ring_poly(p, s):
    """p times (T*x*y*z)^s as an element of RING, built term by term; s
    clears the negative powers of T and of the torus coordinates."""
    out = {}
    for e, c in p.terms.items():
        for k, (a, b) in c.terms.items():
            m = (k + s,) + tuple(x + s for x in e) + (s,) * (len(VARS) - len(e))
            out[m] = RING.domain.from_sympy(sym_scalar(Scalar({0: (a, b)})))
    return RING.ring.from_dict(out)


def test_det_poly_against_sympy():
    """det_poly, whose Bareiss steps are exact divisions, against sympy's
    determinant over QQ_I[T, x, y, z]: 3x3 and 4x4 matrices of small
    polynomials with and without divisor coordinates, with Laurent entries on a torus chart, a
    zero first pivot and a singular matrix among them.  Each entry is scaled
    by T*x*y*z, so the determinants differ by (T*x*y*z)^n."""
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(308)
    charts = ((make_context(["x", "y"]), ()),
              (make_context(["x", "y", "z"], ["x"]), ()),
              (make_context(["x", "y"], ["x", "y"]), (0, 1)))
    for ctx, laurent in charts:
        for k, n in enumerate((3, 3, 4, 4)):
            rows = [[rand_entry(ctx, rng, laurent) for _ in range(n)] for _ in range(n)]
            if k == 1:
                rows[0][0] = Poly.zero(ctx)
            if k == 3:
                c = rand_entry(ctx, rng, laurent)
                rows[-1] = [p * c + q for p, q in zip(rows[0], rows[1])]
            want = DomainMatrix([[ring_poly(p, 1) for p in r] for r in rows],
                                (n, n), RING).det()
            got = det_poly(rows)
            assert ring_poly(got, n) == want
            assert got.is_zero() == (k == 3)


def _along_d_by_sympy(w, syms):
    """Whether the 2-form w is nondegenerate along D, decided by sympy alone:
    the skew matrix of its log-coframe coefficients has entries whose
    reduced denominators are free of the coordinates, and its determinant is
    c*T^k for a nonzero c.  Also the coordinates that some entry or the
    determinant has in its reduced denominator."""
    n = w.ctx.n
    m = sympy.zeros(n, n)
    for (i, j), c in w.terms.items():
        m[i, j] = sum((sym_scalar(s) * sympy.Mul(*(v ** k for v, k in zip(syms, e)))
                       for e, s in c.terms.items()), sympy.Integer(0))
        m[j, i] = -m[i, j]
    dens = [sympy.fraction(sympy.together(a))[1] for a in list(m) + [m.det()]]
    poles = {v for d in dens for v in syms if d.has(v)}
    num, den = sympy.fraction(sympy.together(m.det()))
    unit = num != 0 and all(sympy.Poly(p, T, *syms).is_monomial
                            and not p.has(*syms) for p in (num, den))
    return not poles and unit, poles


def test_along_divisor_against_sympy():
    """along_divisor on the log frame against sympy, on 60 seeded charts of
    2 and 4 coordinates from the conftest generators: a constant symplectic
    form (unit or 1 + T coefficients, a cross term now and then), plus a
    seeded 2-form with Laurent coefficients on the divisor coordinates on
    most charts.  Both verdicts occur, and a reported pole is one that sympy
    finds in an entry or the determinant."""
    from conftest import rand_ctx, rand_form

    rng = random.Random(309)
    syms = sympy.symbols("x y z w")
    seen = {True: 0, False: 0}
    charts = 0
    while charts < 60:
        ctx = rand_ctx(rng, nmax=4)
        if ctx.n not in (2, 4):
            continue
        charts += 1
        e = [LogForm.coframe(ctx, name) for name in ctx.names]
        unit = Poly.constant(ctx, Scalar.two_pi_i(rng.randint(-1, 1)))
        w = e[0].wedge(e[1]).scale(unit)
        if ctx.n == 4:
            w = w + e[2].wedge(e[3])
            if rng.random() < 0.3:
                w = w + e[0].wedge(e[2]).scale(Poly.from_int(ctx, rng.randint(1, 3)))
        if rng.random() < 0.1:
            w = w.scale_scalar(Scalar.one() + Scalar.two_pi_i())
        if rng.random() < 0.7:
            w = w + rand_form(ctx, rng, 2, deg=2, cells=2)
        rows, det, _ = gram_determinant(w, log_frame(ctx), "log")
        got = along_divisor(rows, det)
        want, poles = _along_d_by_sympy(w, syms[:ctx.n])
        assert got.holds == want
        if got.pole is not None:
            assert syms[got.pole] in poles
        else:
            assert not poles
        seen[want] += 1
    assert seen[True] >= 10 and seen[False] >= 10
