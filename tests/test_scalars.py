import random
from fractions import Fraction
from math import gcd

import pytest

from logsym.scalars import Scalar, ScalarError, scalar_gcd
from conftest import rand_scalar

T = Scalar.two_pi_i()
I = Scalar.i_unit()


def _is_unit(s):
    """Units of QQ(i)[T, T^-1] are the nonzero single-power scalars."""
    return len(s.terms) == 1


def test_constructors_and_predicates():
    assert Scalar.zero().is_zero()
    assert Scalar.one().is_one()
    assert dict(Scalar.from_int(7).terms) == {0: (Fraction(7), Fraction(0))}
    assert dict(Scalar.from_rational(Fraction(3, 2)).terms) == {0: (Fraction(3, 2), Fraction(0))}
    assert (T * T.inverse()).is_one()
    with pytest.raises(ScalarError):
        (T + Scalar.one()).inverse()
    assert (I * I) == Scalar.from_int(-1)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Scalar.zero()


def test_unit_inverse_roundtrip():
    rng = random.Random(102)
    for _ in range(100):
        u = rand_scalar(rng, terms=1)
        if u.is_zero():
            continue
        assert _is_unit(u)
        assert (u * u.inverse()).is_one()


def test_division_restricted_to_units():
    with pytest.raises(ScalarError):
        (T + Scalar.one()).inverse()
    with pytest.raises(ScalarError):
        Scalar.one() / Scalar.zero()
    assert (T * T) / T == T


def test_exact_div():
    a = (T + Scalar.one()) * (T - Scalar.one())
    q = a.exact_div(T + Scalar.one())
    assert q == T - Scalar.one()
    with pytest.raises(ScalarError):
        (T + Scalar.one()).exact_div(T * T + Scalar.one())


def test_exact_div_random():
    rng = random.Random(103)
    for _ in range(150):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        if b.is_zero():
            continue
        q = (a * b).exact_div(b)
        assert q == a


def test_gcd_units_and_associates():
    # every nonzero rational is a unit, so integer gcds collapse to 1
    assert scalar_gcd(Scalar.from_int(6), Scalar.from_int(4)).is_one()
    g = scalar_gcd((T + Scalar.one()) * T, (T + Scalar.one()) * (T * T))
    # associate normalisation: unit part of the leading term is 1
    assert _is_unit(g.exact_div(T + Scalar.one())) or (
        _is_unit((T + Scalar.one()).exact_div(g))
    )


def test_gcd_divides_both_random():
    rng = random.Random(104)
    for _ in range(100):
        a, b = rand_scalar(rng), rand_scalar(rng)
        if a.is_zero() and b.is_zero():
            continue
        g = scalar_gcd(a, b)
        assert not g.is_zero()
        for v in (a, b):
            if not v.is_zero():
                v.exact_div(g)  # must not raise


def test_integer_times_t():
    assert (T * Scalar.from_int(3)).integer_times_t() == 3
    assert Scalar.zero().integer_times_t() == 0
    assert (T * T).integer_times_t() is None
    assert (T * Scalar.from_rational(Fraction(1, 2))).integer_times_t() is None
    assert (T * I).integer_times_t() is None


def test_pow_and_conjugate():
    assert T ** 3 == T * T * T
    assert T ** -2 == (T.inverse()) * (T.inverse())
    z = Scalar.from_int(2) + I * Scalar.from_int(3)
    zbar = Scalar.from_rational(2, -3)
    assert z * zbar == Scalar.from_int(13)
    assert z * z == Scalar.from_rational(-5, 12)


# -- the triple kernel against a Fraction-pair reference ---------------------
# The reference below is the arithmetic Scalar used before it stored canonical
# (re, im, den) triples: tables {power: (Fraction, Fraction)} with zero values
# dropped.  Every operation of the kernel must agree with it exactly, and the
# Fraction-pair view and the hash must be those of the reference table.

F0 = Fraction(0)


def ref_clean(t):
    return {k: v for k, v in t.items() if v[0] or v[1]}


def ref_add(x, y):
    out = dict(x)
    for k, (a, b) in y.items():
        c, d = out.get(k, (F0, F0))
        out[k] = (a + c, b + d)
    return ref_clean(out)


def ref_neg(x):
    return {k: (-a, -b) for k, (a, b) in x.items()}


def ref_mul(x, y):
    out = {}
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            e, f = out.get(k1 + k2, (F0, F0))
            out[k1 + k2] = (e + a * c - b * d, f + a * d + b * c)
    return ref_clean(out)


def ref_gdiv(u, v):
    a, b = v
    n = a * a + b * b
    return ((u[0] * a + u[1] * b) / n, (u[1] * a - u[0] * b) / n)


def ref_div_unit(x, y):
    ((k, v),) = y.items()
    return {kk - k: ref_gdiv(vv, v) for kk, vv in x.items()}


def ref_divmod(x, y):
    ms, mo = min(x, default=0), min(y)
    num = {k - ms: v for k, v in x.items()}
    den = {k - mo: v for k, v in y.items()}
    dd = max(den)
    quo = {}
    while num and max(num) >= dd:
        dn = max(num)
        c = ref_gdiv(num[dn], den[dd])
        quo[dn - dd] = c
        num = ref_add(num, ref_mul({dn - dd: (-c[0], -c[1])}, den))
    return ({k + ms - mo: v for k, v in quo.items()},
            {k + ms: v for k, v in num.items()})


def ref_unit_part(x):
    k = max(x)
    return {k: x[k]}


def ref_gcd(x, y):
    if not x:
        return ref_div_unit(y, ref_unit_part(y))
    while y:
        _, r = ref_divmod(x, y)
        x, y = y, r
    return ref_div_unit(x, ref_unit_part(x))


def rand_table(rng, max_terms=4):
    """A reference table with up to max_terms powers in [-2, 3], denominators
    up to 12 and imaginary parts on about half the terms; empty 1 time in 20."""
    if rng.random() < 0.05:
        return {}
    t = {}
    for _ in range(rng.randint(1, max_terms)):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.5 else F0
        t[rng.randint(-2, 3)] = (re, im)
    return ref_clean(t)


def assert_matches(s, ref):
    """s equals the reference table, hashes like it, and is canonical."""
    assert dict(s.terms) == ref
    assert hash(s) == hash(frozenset(ref.items()))
    for k, (re, im, den) in s._t.items():
        assert type(k) is int and type(re) is int and type(im) is int
        assert den > 0 and (re or im) and gcd(re, im, den) == 1


def test_kernel_matches_fraction_reference():
    rng = random.Random(105)
    for _ in range(600):
        x, y = rand_table(rng), rand_table(rng)
        a, b = Scalar(x), Scalar(y)
        assert_matches(a, x)
        assert_matches(b, y)
        assert_matches(a + b, ref_add(x, y))
        assert_matches(a - b, ref_add(x, ref_neg(y)))
        assert_matches(-a, ref_neg(x))
        assert_matches(a * b, ref_mul(x, y))
        assert (a == b) == (x == y)
        if len(y) == 1:
            assert_matches(a / b, ref_div_unit(x, y))
        if y:
            q, r = a._divmod_t(b)
            rq, rr = ref_divmod(x, y)
            assert_matches(q, rq)
            assert_matches(r, rr)
            if rr:
                with pytest.raises(ScalarError):
                    a.exact_div(b)
            else:
                assert_matches(a.exact_div(b), rq)
            assert_matches((a * b).exact_div(b), x)
            assert_matches(b.unit_part(), ref_unit_part(y))
        if x or y:
            assert_matches(scalar_gcd(a, b), ref_gcd(x, y))


def test_canonical_form_is_equality():
    half = Scalar({0: (Fraction(2, 4), 0)})
    assert half == Scalar.from_rational(Fraction(1, 2))
    assert hash(half) == hash(Scalar.from_rational(Fraction(1, 2)))
    assert half._t == {0: (1, 0, 2)}
    # a common factor of all three entries is divided out, and zero is dropped
    assert Scalar({1: (Fraction(2, 6), Fraction(4, 6)), 2: (0, 0)})._t == {1: (1, 2, 3)}
    assert Scalar({0: (Fraction(1, 3), Fraction(1, 2))})._t == {0: (2, 3, 6)}
    assert (half - half)._t == {}


def test_terms_view_is_read_only_fractions():
    s = Scalar({-1: (Fraction(3, 4), 1), 2: (0, Fraction(-5, 2))})
    view = s.terms
    assert dict(view) == {-1: (Fraction(3, 4), Fraction(1)), 2: (F0, Fraction(-5, 2))}
    assert all(type(v) is Fraction for pair in view.values() for v in pair)
    with pytest.raises(TypeError):
        view[0] = (Fraction(1), F0)
    assert all(type(v) is Fraction for v in Scalar.from_int(4).terms[0])
    assert dict(Scalar.zero().terms) == {}
    assert type((T * Scalar.from_int(3)).integer_times_t()) is int
    assert Scalar.from_int(Fraction(3, 2)) == Scalar.from_rational(Fraction(3, 2))


def _mul_operands():
    """Zero, 1 and -1; other constants at T^0 (3, i, 1/2 - 3i/4), T-powers,
    -2T and 1 + T; single terms at negative powers of T; and seeded
    multi-term scalars."""
    one, t = Scalar.one(), Scalar.two_pi_i()
    out = [Scalar.zero(), one, -one, Scalar.from_int(3), Scalar.i_unit(),
           Scalar.from_rational(Fraction(1, 2), Fraction(-3, 4)),
           t, Scalar.two_pi_i(3), Scalar.from_rational(-2, 0, 1), one + t,
           Scalar.two_pi_i(-1), Scalar.from_rational(Fraction(5, 6), 1, -2)]
    rng = random.Random(114)
    out += [Scalar(rand_table(rng)) for _ in range(12)]
    return out


def test_products_match_the_double_loop():
    """Products of one-term and multi-term operands, either way round, give
    the Fraction reference's values in canonical form."""
    ops = _mul_operands()
    single = 0
    for a in ops:
        for b in ops:
            assert_matches(a * b, ref_mul(dict(a.terms), dict(b.terms)))
            single += len(a._t) == 1 or len(b._t) == 1
    assert single and single < len(ops) ** 2


def test_one_term_kernels_match_the_reference():
    """Products, negation and subtraction with one-term operands give the
    Fraction reference's values in canonical form, and leave both operands'
    tables as they were."""
    rng = random.Random(117)
    one, t = Scalar.one(), Scalar.two_pi_i()
    singles = [one, -one, t, Scalar.two_pi_i(-2), Scalar.i_unit(),
               Scalar.from_rational(Fraction(-4, 6), Fraction(2, 3), 1)]
    singles += [Scalar(rand_table(rng, max_terms=1)) for _ in range(30)]
    ops = singles + [Scalar.zero(), one + t] + [Scalar(rand_table(rng)) for _ in range(10)]
    both_single = 0
    for a in ops:
        x = dict(a.terms)
        assert_matches(-a, ref_neg(x))
        for b in ops:
            y = dict(b.terms)
            ta, tb = dict(a._t), dict(b._t)
            if len(a._t) == 1 and len(b._t) == 1:
                both_single += 1
            assert_matches(a * b, ref_mul(x, y))
            assert_matches(a - b, ref_add(x, ref_neg(y)))
            assert a._t == ta and b._t == tb
    assert both_single > 500
    assert (-one)._t == {0: (-1, 0, 1)} and (one - one)._t == {}
