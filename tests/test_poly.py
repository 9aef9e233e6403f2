import random
from fractions import Fraction
from math import gcd
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsym import divisors, poly
from logsym.context import ContextError, make_context
from logsym.divisors import check_squarefree
from logsym.poly import (
    Poly,
    PolyError,
    _grlex_key,
    _strip_laurent,
    divides,
    exact_quotient,
    gcd_mv,
)
from logsym.scalars import Scalar, ScalarError, scalar_gcd
from logsym.sessions import print_canonical
from conftest import rand_ctx, rand_poly, rand_scalar


def _xyz(divisor=()):
    ctx = make_context(["x", "y", "z"], list(divisor))
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
    c1 = make_context(["x"], [])
    c2 = make_context(["x"], ["x"])
    with pytest.raises(ContextError):
        Poly.variable(c1, "x") + Poly.variable(c2, "x")


def test_laurent_only_on_divisor_coords():
    ctx, x, y, z = _xyz(divisor=("z",))
    zi = Poly.one(ctx).mul_var_power(2, -1)
    assert (zi * z).is_one()
    # only result exponents are checked: x * x^-1 = 1 is fine anywhere
    assert x.mul_var_power(0, -1).is_one()
    with pytest.raises(PolyError):
        y.mul_var_power(0, -1)  # leaves x^-1*y, x not a divisor coordinate
    ctx2, x2, *_ = _xyz()
    with pytest.raises(PolyError):
        Poly.one(ctx2).mul_var_power(0, -1)  # no divisor, no Laurent anywhere


def test_grlex_leading():
    ctx, x, y, z = _xyz()
    p = x * y + z * z * z + x
    e, c = p.leading()
    assert e == (0, 0, 3)  # total degree wins, then lex on the tuple
    assert c.is_one()


def _reference_divmod(f, g):
    """The single-divisor reduction divides used before it divided integer
    images: (q, r) with f == q*g + r, reducing the Laurent-stripped sides
    under graded lex while the leading monomial and the leading scalar of
    the remainder divide exactly.  When g divides f every remainder stays a
    multiple of g and the reduction ends at r == 0."""
    fs, f0 = _strip_laurent(f)
    gs, g0 = _strip_laurent(g)
    ge, gc = g0.leading()
    q, r = Poly.zero(f.ctx), f0
    while not r.is_zero():
        re, rc = r.leading()
        diff = tuple(map(sub, re, ge))
        if any(d < 0 for d in diff):
            break
        try:
            c = rc.exact_div(gc)
        except ScalarError:
            break
        t = Poly(f.ctx, {diff: c})
        q, r = q + t, r - t * g0
    for i, (sf, sg) in enumerate(zip(fs, gs)):
        q = q.mul_var_power(i, sf - sg)
        r = r.mul_var_power(i, sf)
    return q, r


_CHARTS = [make_context(["x", "y"], []),
           make_context(["x", "y", "z"], ["x"]),
           make_context(["x", "y"], ["x", "y"]),
           make_context(["x", "y", "z"], ["y"])]
_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
_SCALARS = st.dictionaries(
    st.integers(-1, 2), st.tuples(_RATIONALS, _RATIONALS), min_size=1, max_size=2,
).map(Scalar).filter(lambda c: not c.is_zero())


def _polys(ctx, min_size=0):
    exps = st.tuples(*(st.integers(-1 if ctx.laurent_ok(i) else 0, 2) for i in range(ctx.n)))
    return st.dictionaries(exps, _SCALARS, min_size=min_size, max_size=3).map(
        lambda t: Poly(ctx, t))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_divides_contract(data):
    """With and without divisor coordinates: a planted product g*q gives back q; any f gives
    (True, q) with q*g == f or (False, r) with r != 0 and g | f - r; and
    the verdict and quotient are those of the reference reduction."""
    ctx = data.draw(st.sampled_from(_CHARTS))
    g = data.draw(_polys(ctx, min_size=1))
    q = data.draw(_polys(ctx))
    assert divides(g, g * q) == (True, q)
    for f in (g * q, data.draw(_polys(ctx))):
        ok, x = divides(g, f)
        if ok:
            assert x * g == f
        else:
            assert not x.is_zero()
            assert divides(g, f - x)[0]
        ref_q, ref_r = _reference_divmod(f, g)
        assert ok == ref_r.is_zero()
        if ok:
            assert x == ref_q


def test_rand_poly_without_zero_is_nonzero():
    """rand_poly(..., allow_zero=False) never returns 0, also where a drawn
    coefficient is 0 or two terms cancel."""
    ctx = make_context(["x", "y"], [])
    zero = [s for s in range(2000)
            if rand_poly(ctx, random.Random(s), deg=2, terms=2,
                         allow_zero=False).is_zero()]
    assert zero == []


def test_divides_multiples_random():
    rng = random.Random(203)
    for _ in range(150):
        ctx = rand_ctx(rng)
        a = rand_poly(ctx, rng, deg=3, terms=2)
        b = rand_poly(ctx, rng, deg=3, terms=2, allow_zero=False)
        ok, q = divides(b, a * b)
        assert ok
        assert q * b == a * b


def test_divides_witness():
    ctx, x, y, z = _xyz()
    ok, rem = divides(x + y, x * x + y)
    assert not ok
    assert not rem.is_zero()


def test_divides_laurent_strip():
    # a Laurent monomial factor on the divisor must not block division
    ctx, x, y, z = _xyz(divisor=("x", "y"))
    f = (x + y) * x.mul_var_power(0, -2)
    ok, q = divides(x + y, f)
    assert ok
    assert q * (x + y) == f


def test_divides_unit_monomial_matches_reduction():
    """divides decides a unit-monomial divisor by one product with its
    inverse; the reference reduction, term by term, agrees."""
    rng = random.Random(209)
    for _ in range(160):
        ctx = rand_ctx(rng)
        f = rand_poly(ctx, rng)
        c = Scalar.zero()
        while c.is_zero():
            c = rand_scalar(rng, terms=1)
        e = tuple(rng.randint(-3, 3) if ctx.laurent_ok(i) else 0 for i in range(ctx.n))
        u = Poly.monomial(ctx, e, c)
        assert u.is_unit_monomial()
        q, r = _reference_divmod(f, u)
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


# -- the gcd against the content-in-every-case reference ---------------------
#
# The reference is the primitive PRS that gcd_mv used before the heuristic
# gcd became its one algorithm, with its own copies of the coefficient,
# degree and pseudo-remainder helpers that went with it.


def _degree_in(f, i):
    """Degree of f in variable i, -1 on the zero poly."""
    return max((e[i] for e in f.terms), default=-1)


def _variables_used(f):
    return {i for e in f.terms for i, x in enumerate(e) if x}


def _coeffs_in(f, i):
    """Coefficients of f as a univariate poly in variable i (dict deg -> Poly)."""
    out = {}
    for e, c in f.terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {k: Poly(f.ctx, t) for k, t in out.items()}


def _pseudo_rem(f, g, i):
    """Pseudo-remainder of f by g in the variable i: lc(g)^(df-dg+1) * f mod g."""
    dg = _degree_in(g, i)
    lg = _coeffs_in(g, i)[dg]
    r = f
    while not r.is_zero() and (dr := _degree_in(r, i)) >= dg:
        lr = _coeffs_in(r, i)[dr]
        r = r * lg - g * lr.mul_var_power(i, dr - dg)
        assert r.is_zero() or _degree_in(r, i) < dr
    return r


def _reference_strip(f):
    shifts = [0] * f.ctx.n
    for i in range(f.ctx.n):
        m = f.min_degree_in(i)
        if m < 0 or (m > 0 and f.ctx.laurent_ok(i)):
            shifts[i] = m
    if all(s == 0 for s in shifts):
        return f
    return Poly(f.ctx, {
        tuple(x - s for x, s in zip(e, shifts)): c for e, c in f.terms.items()
    })


def _reference_content(f, i):
    cs = list(_coeffs_in(f, i).values())
    acc = cs[0]
    for c in cs[1:]:
        acc = _reference_gcd(acc, c)
        if acc.is_one():
            break
    return acc


def _reference_normalize(g):
    if g.is_zero():
        return g
    g = _reference_strip(g)
    _, lc = g.leading()
    return g.scale(lc.unit_part().inverse())


def _reference_gcd(a, b):
    """gcd_mv as a primitive PRS that computes every content by gcds, divides
    by it even when it is 1, and strips every coordinate."""
    if a.is_zero() and b.is_zero():
        return a
    if a.is_zero():
        return _reference_normalize(b)
    if b.is_zero():
        return _reference_normalize(a)
    a, b = _reference_strip(a), _reference_strip(b)
    used = _variables_used(a) | _variables_used(b)
    if not used:
        c = scalar_gcd(a.constant_coefficient(), b.constant_coefficient())
        return Poly.constant(a.ctx, c)
    i = max(used)
    if _degree_in(a, i) == 0 or _degree_in(b, i) == 0:
        f, g = (a, b) if _degree_in(b, i) > 0 else (b, a)
        return _reference_gcd(f, _reference_content(g, i))
    ca, cb = _reference_content(a, i), _reference_content(b, i)
    cont = _reference_gcd(ca, cb)
    pa, pb = exact_quotient(a, ca), exact_quotient(b, cb)
    if _degree_in(pa, i) < _degree_in(pb, i):
        pa, pb = pb, pa
    while True:
        r = _pseudo_rem(pa, pb, i)
        if r.is_zero():
            break
        if _degree_in(r, i) == 0:
            pb = Poly.one(a.ctx)
            break
        pa, pb = pb, exact_quotient(r, _reference_content(r, i))
    return _reference_normalize(cont * pb)


def _factors(deg, terms):
    """Seeded nonzero factors (c, g, a, b) in 2 and 3 variables, with no
    divisor coordinate and with negative exponents on one or every divisor
    coordinate.  The constant c is a polynomial in T more often than a unit,
    so contents that are not units reach the gcds."""
    rng = random.Random(213)
    for names in (["x", "y"], ["x", "y", "z"]):
        for divisor in ([], names[:1], names):
            ctx = make_context(names, divisor)
            k = 0
            while k < 10:
                c = Poly.constant(ctx, rand_scalar(rng, tmin=0, tmax=1, terms=3))
                fs = [c] + [rand_poly(ctx, rng, deg, terms, allow_zero=False)
                            for _ in range(3)]
                if not c.is_zero():
                    k += 1
                    yield fs


def test_gcd_matches_reference():
    """gcd_mv and the reference PRS agree on every ordered pair, as drawn
    and with seeded monomial content planted on both sides (a unit on the
    divisor coordinates, a factor elsewhere)."""
    rng = random.Random(214)
    n = 0
    for c, g, a, b in _factors(deg=3, terms=2):
        f1, f2 = c * g * a, g * b
        ctx = c.ctx
        m1, m2 = (Poly.monomial(ctx, [rng.randint(0, 4) for _ in range(ctx.n)])
                  for _ in range(2))
        for p, q in ((f1, f2), (m1 * f1, m2 * f2)):
            assert gcd_mv(p, q) == _reference_gcd(p, q)
            assert gcd_mv(q, p) == _reference_gcd(q, p)
        n += 1
    assert n == 60


def test_gcd_tries_past_six_values_of_xi(monkeypatch):
    """A level of the heuristic keeps growing xi until a candidate passes its
    division certificate: with every candidate below xi = 10^40 spoiled,
    gcd_mv gives the same bytes on all 60 pairs, and some level rejected
    more than six candidates in a row."""
    pairs = [(c * g * a, g * b) for c, g, a, b in _factors(deg=2, terms=2)]
    want = [gcd_mv(p, q) for p, q in pairs]
    expand, heu = poly._expand, poly._heu
    tries, rejected = [], []

    def spoiled(h, j, xi):
        # a term of degree 99 in the evaluated place spoils the candidate
        tries[-1] += 1
        out = expand(h, j, xi)
        if xi < 10 ** 40:
            out[tuple(99 * (k == j) for k in range(len(next(iter(h)))))] = (1, 0)
        return out

    def level(f, g, places):
        tries.append(0)
        try:
            return heu(f, g, places)
        finally:
            rejected.append(max(tries.pop() - 1, 0))
    monkeypatch.setattr(poly, "_expand", spoiled)
    monkeypatch.setattr(poly, "_heu", level)
    for (p, q), w in zip(pairs, want):
        got = gcd_mv(p, q)
        assert got.terms == w.terms
        assert print_canonical(got) == print_canonical(w)
    assert max(rejected) > 6


def test_every_level_is_certified(monkeypatch):
    """The heuristic checks its candidate by exact division at every level
    of the evaluation, not only at the top: for a gcd in x, y, z and T the
    certificate sees inputs that use 4, 3, 2 and 1 of those places, and the
    answer is the planted factor."""
    ctx, x, y, z = _xyz()
    one, t = Poly.one(ctx), Poly.constant(ctx, Scalar.two_pi_i())
    g = x * y + t * z + one
    a, b = x + y * z + one + one, x * z + y + t
    used = []
    certify = poly._divide_image
    monkeypatch.setattr(poly, "_divide_image", lambda h, f: used.append(
        sum(any(e[j] for e in f) for j in range(4))) or certify(h, f))
    assert gcd_mv(a * g, b * g) == g
    assert set(used) == {1, 2, 3, 4}


def test_gaussian_gcd_matches_euclid():
    """_ggcd, which works through rational integer gcds, against Euclid in
    Z[i] up to a unit: seeded pairs with common factors that are rational,
    divisible by 1 + i, squares, or of several hundred bits, with zero and
    rational operands among them."""
    def euclid(u, v):
        a, b = u
        c, d = v
        while c or d:
            n = c * c + d * d
            x, y = a * c + b * d, b * c - a * d
            qx, qy = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
            a, b, c, d = c, d, a - qx * c + qy * d, b - qx * d - qy * c
        return a, b

    def mul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    rng = random.Random(215)

    def draw(bits):
        return rng.randint(-2 ** bits, 2 ** bits), rng.randint(-2 ** bits, 2 ** bits)

    for _ in range(3000):
        common = draw(rng.choice([0, 1, 3, 8, 300]))
        if common == (0, 0):
            common = (1, 1)
        for factor in ((1, 1), (rng.randint(2, 30), 0), common):
            if rng.random() < 0.2:
                common = mul(common, factor)
        bits = rng.choice([1, 3, 10, 100])
        u, v = mul(common, draw(bits)), mul(common, draw(bits))
        if rng.random() < 0.1:
            u = (u[0], 0)
        if rng.random() < 0.05:
            v = (0, 0)
        if u == v == (0, 0):
            continue
        a, b = euclid(u, v)
        assert poly._ggcd(u, v) in ((a, b), (-a, -b), (-b, a), (b, -a))


def test_squarefree_matches_reference(monkeypatch):
    # the Laurent monomial stripped, each h is a polynomial, which is what
    # check_squarefree decides
    hs = [_strip_laurent(c * a * b * (a if k % 2 else Poly.one(a.ctx)))[1]
          for k, (c, _, a, b) in enumerate(_factors(deg=2, terms=2))]
    got = [check_squarefree(h) for h in hs]
    monkeypatch.setattr(divisors, "gcd_mv", _reference_gcd)
    assert got == [check_squarefree(h) for h in hs]
    assert any(ok for ok, _ in got) and not all(ok for ok, _ in got)


def test_squarefree_joint_criterion():
    ctx, x, y, z = _xyz()
    two = Poly.from_int(ctx, 2)
    h = x * y * (x + y) * ((z - two) * x + y)
    ok, w = check_squarefree(h)
    assert ok and w is None
    ok2, w2 = check_squarefree(x * x * y)
    assert not ok2
    assert divides(w2, x * x * y)[0]


def test_log_partial_and_substitution():
    ctx, x, y, z = _xyz(divisor=("z",))
    p = x * z + z * z
    assert p.log_partial(2) == x * z + z * z * Poly.from_int(ctx, 2)
    assert p.substitute_zero(2).is_zero()
    q = x.mul_var_power(2, -1)  # x/z has a genuine pole at z=0
    with pytest.raises(PolyError):
        q.substitute_zero(2)


def test_unit_monomials():
    ctx, x, y, z = _xyz(divisor=("x",))
    u = x.scale(Scalar.two_pi_i())
    assert u.is_unit_monomial()
    assert (u * u.inverse_unit()).is_one()
    assert not (x + y).is_unit_monomial()
    assert not y.is_unit_monomial()  # y is not on the divisor, so not inverted


def test_power_is_square_and_multiply(monkeypatch):
    """k-th powers of Scalars and Polys take one squaring per bit of k below
    the top bit and one product per set bit past the lowest, and agree with
    repeated products."""
    ctx = make_context(["x", "y"], ["x"])
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


# -- one-term products against the general double loop ---------------------


def _reference_mul(p, q):
    """Poly.__mul__ as the general double loop with accumulation and a zero
    test on every term: the reference for its one-term paths."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
    return Poly(p.ctx, terms)


def _reference_add(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        s = terms.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            terms.pop(e, None)
        else:
            terms[e] = s
    return Poly(p.ctx, terms)


def _reference_partial(p, i, log):
    """z_i d/dz_i (log) or d/dz_i, each coefficient times Scalar.from_int of
    the exponent."""
    return Poly(p.ctx, {
        (e if log else e[:i] + (e[i] - 1,) + e[i + 1:]): c * Scalar.from_int(e[i])
        for e, c in p.terms.items() if e[i]
    })


def _one_term_operands(ctx, rng):
    """Zero, 1 and -1; other constants (3, i, T-powers, 1 + T); monomials
    with unit and non-unit coefficients, at negative exponents on a chart
    whose coordinates are on the divisor; and seeded multi-term polys."""
    one, t = Scalar.one(), Scalar.two_pi_i()
    consts = [Scalar.zero(), one, -one, Scalar.from_int(3), Scalar.i_unit(),
              Scalar.two_pi_i(2), Scalar.two_pi_i(-1), one + t,
              Scalar.from_rational(1, -3, 0) + Scalar.two_pi_i(-2)]
    out = [Poly.constant(ctx, c) for c in consts]
    exps = [(1, 0), (2, 1), (0, 3)]
    if ctx.divisor:
        exps += [(-1, 0), (-2, 3), (1, -1)]
    for e in exps:
        for c in (one, -t, one + t, Scalar.from_rational(2, 5)):
            out.append(Poly.monomial(ctx, e, c))
    out += [rand_poly(ctx, rng, deg=3, terms=4, allow_zero=False) for _ in range(8)]
    return out


def test_products_and_derivatives_match_the_double_loop():
    rng = random.Random(214)
    for divisor in ([], ["x", "y"]):
        ctx = make_context(["x", "y"], divisor)
        zero = Poly.zero(ctx)
        ops = _one_term_operands(ctx, rng)
        for p in ops:
            for q in ops:
                pq = p * q
                assert pq.terms == _reference_mul(p, q).terms
                assert all(not c.is_zero() for c in pq.terms.values())
            assert (p + zero).terms == _reference_add(p, zero).terms
            assert (zero + p).terms == _reference_add(zero, p).terms
            if not p.is_zero():
                assert (p + zero) is p and (zero + p) is p
            for i in range(ctx.n):
                assert p.partial(i).terms == _reference_partial(p, i, False).terms
                assert p.log_partial(i).terms == _reference_partial(p, i, True).terms
        # 1 * p is p itself, whose table is never changed after it is built
        one = Poly.one(ctx)
        assert all(one * p is p and p * one is p for p in ops if not p.is_one())
        # z^e * q (coefficient exactly 1, e nonzero, q of several terms)
        # shifts q's exponents and shares q's coefficient triples
        exps = [(1, 0), (2, 1), (0, 3)]
        if ctx.divisor:
            exps += [(-1, 0), (-2, 3), (1, -1)]
        several = [q for q in ops[-8:] if len(q.terms) > 1]
        assert len(several) >= 6
        for e in exps:
            m = Poly.monomial(ctx, e)
            for q in several:
                for mq in (m * q, q * m):
                    assert mq.terms == _reference_mul(m, q).terms
                    shifted = {tuple(a + b for a, b in zip(e + (0,), eq)): v
                               for eq, v in q._t.items()}
                    assert all(mq._t[k] is v for k, v in shifted.items())


def test_subtraction_is_adding_the_negation():
    """a - b is a + (-b), for zero and equal operands too, and leaves both
    operands' tables as they were."""
    rng = random.Random(216)
    for _ in range(300):
        ctx = rand_ctx(rng, nmax=3)
        a = rand_poly(ctx, rng, deg=3, terms=4)
        b = rng.choice([rand_poly(ctx, rng, deg=3, terms=4), a, -a,
                        a + rand_poly(ctx, rng, deg=3, terms=1)])
        ta, tb = dict(a.terms), dict(b.terms)
        assert (a - b).terms == (a + (-b)).terms
        assert a.terms == ta and b.terms == tb
    assert (a - a).is_zero() and (a - Poly.zero(ctx)) is a


# -- the flat table ----------------------------------------------------------

_ONE, _T, _I = Scalar.one(), Scalar.two_pi_i(), Scalar.i_unit()
# coefficients that mix T-powers, and rationals that are not units of Z[i]
_MIXED = st.one_of(
    st.sampled_from([
        _ONE + _T,
        _T.inverse() - Scalar.from_int(2) * _I,
        Scalar.from_rational(Fraction(2, 3)),
        Scalar.from_rational(Fraction(-3, 4), Fraction(1, 6)),
        Scalar.from_int(6) * _T * _T,
    ]),
    _SCALARS,
)


def _mixed_polys(ctx, min_size=0):
    exps = st.tuples(*(st.integers(-1 if ctx.laurent_ok(i) else 0, 2) for i in range(ctx.n)))
    return st.dictionaries(exps, _MIXED, min_size=min_size, max_size=3).map(
        lambda t: Poly(ctx, t))


def _assert_canonical(p):
    """Every entry of p's table is keyed by n ints and a T-power, and holds a
    reduced triple with a positive denominator that is not zero."""
    for key, v in p._t.items():
        assert len(key) == p.ctx.n + 1 and all(type(x) is int for x in key)
        re, im, den = v
        assert den > 0 and (re or im) and gcd(re, im, den) == 1
        assert all(x >= 0 or p.ctx.laurent_ok(i) for i, x in enumerate(key[:-1]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_flat_table_matches_the_scalar_references(data):
    """With and without divisor coordinates, with coefficients that mix T-powers: each result's
    table is canonical, the {e: Scalar} view builds the same poly back,
    equal polys built in two ways hash equal, and every kernel agrees with
    its reference built through Poly(ctx, {e: Scalar})."""
    ctx = data.draw(st.sampled_from(_CHARTS))
    a = data.draw(_mixed_polys(ctx))
    b = data.draw(_mixed_polys(ctx))
    g = data.draw(_mixed_polys(ctx, min_size=1))
    c = data.draw(_MIXED)
    neg_b = Poly(ctx, {e: -s for e, s in b.terms.items()})
    results = {
        "mul": (a * b, _reference_mul(a, b)),
        "add": (a + b, _reference_add(a, b)),
        "sub": (a - b, _reference_add(a, neg_b)),
        "neg": (-b, neg_b),
        "scale": (a.scale(c), Poly(ctx, {e: s * c for e, s in a.terms.items()})),
    }
    for i in range(ctx.n):
        results["partial%d" % i] = (a.partial(i), _reference_partial(a, i, False))
        results["log_partial%d" % i] = (a.log_partial(i), _reference_partial(a, i, True))
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got._t == want._t, name
    for p in (a, b, g):
        _assert_canonical(p)
        assert Poly(ctx, p.terms) == p
    assert hash(a * b) == hash(b * a) == hash(_reference_mul(a, b))
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    e, lc = g.leading()
    want_e = max(g.terms, key=_grlex_key)
    assert (e, lc) == (want_e, g.terms[want_e])
    for f in (g * a, b):
        ok, x = divides(g, f)
        ref_q, ref_r = _reference_divmod(f, g)
        assert ok == ref_r.is_zero()
        if ok:
            assert x == ref_q
    assert gcd_mv(g * a, g * b) == _reference_gcd(g * a, g * b)


# -- the accumulate kernel and the arity kernels -----------------------------


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_dot_is_the_fold_of_products(data):
    """dot over a list of pairs equals the fold of * and + over the same
    pairs, with and without divisor coordinates (Laurent exponents, T-powers, Gaussian
    coefficients), with zero, one-term and several-term sides, the empty
    list, and sums that cancel to zero (the pairs followed by their
    negations in some order); its table is canonical and fresh, and no
    operand's table changes."""
    ctx = data.draw(st.sampled_from(_CHARTS))
    side = st.one_of(_mixed_polys(ctx), st.just(Poly.one(ctx)), st.just(Poly.zero(ctx)))
    pairs = data.draw(st.lists(st.tuples(side, side), max_size=5))
    cancel = data.draw(st.booleans())
    if cancel:
        pairs += data.draw(st.permutations([(-a, b) for a, b in pairs]))
    before = [(dict(a._t), dict(b._t)) for a, b in pairs]
    want = Poly.zero(ctx)
    for a, b in pairs:
        want = want + a * b
    got = poly.dot(iter(pairs), ctx)
    _assert_canonical(got)
    assert got.ctx is ctx and got._t == want._t
    assert got.is_zero() or not cancel
    assert [(a._t, b._t) for a, b in pairs] == before
    assert all(got._t is not p._t for pair in pairs for p in pair)
    assert poly.dot([], ctx) == Poly.zero(ctx)


def test_key_kernels_match_map():
    """The adder and subtractor written out for each key arity give
    tuple(map(add|sub, a, b)), negative entries included."""
    rng = random.Random(218)
    for n in range(1, 9):
        for _ in range(40):
            a, b = (tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(2))
            assert poly._key_add[n](a, b) == tuple(map(add, a, b))
            assert poly._key_sub[n](a, b) == tuple(map(sub, a, b))
