"""Exact scalar arithmetic over Gaussian rationals with a formal unit T.

A :class:`Scalar` is a finitely supported map ``{power k -> a + b*I}`` sending
an integer power of the formal invertible constant ``T`` (which stands for
2*pi*i) to a Gaussian rational.  Keeping T formal makes every downstream
identity (curvature matching, integrality of periods, residue normalisation)
an exactly decidable relation: nothing is ever rounded.

Each Gaussian rational ``(re + im*I) / den`` is stored as the integer triple
``(re, im, den)`` in canonical form: ``den > 0``, ``gcd(re, im, den) == 1`` and
never ``re == im == 0`` (zero terms are not stored).  Canonical form makes
equality plain table equality, and each result costs integer arithmetic and
at most one ``math.gcd``.  The public ``terms`` view reads
``{k: (Fraction, Fraction)}``.  A :class:`~logsym.poly.Poly` keeps the same
triples in its own flat table, one per (z-exponents, T-power) key, and works
on them with the triple helpers below, with no Scalar in between.

The scalars form the Laurent-polynomial ring QQ(i)[T, T^-1].  Units are
exactly the single-term scalars; the public division operator is restricted to
those (dividing by a multi-power scalar like ``1 + T`` would leave the ring).
``exact_div`` gives the other exact quotients, and the Euclidean remainder it
is built on decides ``scalar_gcd``.  Polynomial division does not come here:
``poly.divides`` divides integer images, one Gaussian integer per power of T.
Nor does the polynomial gcd: ``poly.gcd_mv`` works on the same images, so
``scalar_gcd`` has no caller left in the package; it stays a public function.
Nor do session expressions: a numeral, I or T there is a constant Poly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import MappingProxyType


class ScalarError(ArithmeticError):
    """Raised for undefined scalar operations (division by zero or by a non-unit)."""


# -- Gaussian rationals as canonical (re, im, den) triples ------------------


def _red(re, im, den):
    """Canonical triple of (re + im*I) / den for den > 0 and (re, im) != (0, 0)."""
    if den == 1:
        return (re, im, 1)
    g = gcd(re, im, den)
    if g == 1:
        return (re, im, den)
    return (re // g, im // g, den // g)


def _gadd(u, v):
    """u + v, or None when the sum is zero."""
    a, b, d = u
    c, f, e = v
    if d == e:
        re, im = a + c, b + f
    else:
        re, im, d = a * e + c * d, b * e + f * d, d * e
    return _red(re, im, d) if re or im else None


def _gmul(u, v):
    # (a+bi)(c+fi) with i^2 = -1; Z[i] has no zero divisors, so never zero
    a, b, d = u
    c, f, e = v
    return _red(a * c - b * f, a * f + b * c, d * e)


def _gdiv(u, v):
    # (a+bi)/d / ((c+fi)/e) = (a+bi)(c-fi) e / (d (c^2 + f^2)); v is never zero
    a, b, d = u
    c, f, e = v
    return _red((a * c + b * f) * e, (b * c - a * f) * e, d * (c * c + f * f))


def _from_pair(a, b):
    """Canonical triple of the Gaussian rational a + b*I (a, b Fractions, not both 0)."""
    da = a.denominator
    db = b.denominator
    den = da * db // gcd(da, db)
    return _red(a.numerator * (den // da), b.numerator * (den // db), den)


def _to_pair(t):
    return (Fraction(t[0], t[2]), Fraction(t[1], t[2]))


_new = object.__new__
_ONE = (1, 0, 1)
_ONE_T = {0: _ONE}


def _power(x, k, one):
    """x**k for k >= 0 by square and multiply, one being the ring's 1: a
    squaring for each bit of k below its top bit and a product for each set
    bit past the lowest, so at most 2*log2(k) products."""
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else acc * x
        k >>= 1
        if not k:
            return one if acc is None else acc
        x = x * x


def _scalar(t):
    """A Scalar over a table of canonical triples, skipping __init__."""
    s = _new(Scalar)
    s._t = t
    return s


def _times_int(u, n):
    """n * u for a canonical triple u and a nonzero int n."""
    return _red(u[0] * n, u[1] * n, u[2])


class Scalar:
    """An exact element of QQ(i)[T, T^-1], T standing for 2*pi*i.

    ``_t`` maps the T-power to a canonical ``(re, im, den)`` triple; zero
    values are never stored, so equality is plain table equality.  A table
    is never changed after it is built.
    """

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, (a, b) in terms.items():
                a = Fraction(a)
                b = Fraction(b)
                if a or b:
                    clean[int(k)] = _from_pair(a, b)
        self._t = clean

    @property
    def terms(self):
        """Read-only ``{power: (real, imag)}`` view with Fraction values."""
        return MappingProxyType({k: _to_pair(v) for k, v in self._t.items()})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _scalar({})

    @staticmethod
    def one() -> "Scalar":
        return _scalar({0: (1, 0, 1)})

    @staticmethod
    def from_rational(a, b=0, power: int = 0) -> "Scalar":
        """Scalar (a + b*I) * T^power with exact rational a, b."""
        return Scalar({power: (Fraction(a), Fraction(b))})

    @staticmethod
    def from_int(n: int) -> "Scalar":
        if type(n) is not int:
            return Scalar.from_rational(n)
        return _scalar({0: (n, 0, 1)} if n else {})

    @staticmethod
    def i_unit() -> "Scalar":
        return _scalar({0: (0, 1, 1)})

    @staticmethod
    def two_pi_i(power: int = 1) -> "Scalar":
        """The formal constant T^power."""
        return _scalar({int(power): (1, 0, 1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return self._t == _ONE_T

    def integer_times_t(self):
        """Return n when the scalar equals n*T with n a rational integer, else None."""
        if not self._t:
            return 0
        v = self._t.get(1)
        if len(self._t) != 1 or v is None or v[1] or v[2] != 1:
            return None
        return v[0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        terms = dict(self._t)
        for k, v in other._t.items():
            u = terms.get(k)
            w = v if u is None else _gadd(u, v)
            if w is None:
                del terms[k]
            else:
                terms[k] = w
        return _scalar(terms)

    def __neg__(self) -> "Scalar":
        return _scalar({k: (-a, -b, d) for k, (a, b, d) in self._t.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        terms = {}
        for k1, v1 in self._t.items():
            for k2, v2 in other._t.items():
                k = k1 + k2
                w = _gmul(v1, v2)
                u = terms.get(k)
                if u is not None:
                    w = _gadd(u, w)
                if w is None:
                    del terms[k]
                else:
                    terms[k] = w
        return _scalar(terms)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, Scalar.one())

    def __truediv__(self, other: "Scalar") -> "Scalar":
        """Division by a unit (single-power) scalar; anything else is an error."""
        if not other._t:
            raise ScalarError("division by zero")
        if len(other._t) != 1:
            raise ScalarError(
                "division by a multi-power scalar (non-invertible in QQ(i)[T, T^-1])"
            )
        ((k, v),) = other._t.items()
        return _scalar({kk - k: _gdiv(vv, v) for kk, vv in self._t.items()})

    def inverse(self) -> "Scalar":
        return Scalar.one() / self

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self._t == other._t

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- exact division inside the ring -----------------------------------

    def exact_div(self, other: "Scalar") -> "Scalar":
        """Exact quotient in QQ(i)[T, T^-1]; raises if the division is not exact.

        Public API for quotients known to lie in the ring even when the
        divisor is not a unit; nothing in the package calls it.
        """
        q, r = self._divmod_t(other)
        if r._t:
            raise ScalarError("non-exact scalar division")
        return q

    def _divmod_t(self, other: "Scalar"):
        if not other._t:
            raise ScalarError("division by zero")
        # Shift each side independently so both become ordinary polynomials in
        # T with nonzero constant term; T-powers are units, so divisibility is
        # unchanged and the shifts recombine below.
        ms = min(self._t, default=0)
        mo = min(other._t)
        num = {k - ms: v for k, v in self._t.items()}
        den = {k - mo: v for k, v in other._t.items()}
        dden = max(den)
        lden = den[dden]
        quo = {}
        while num:
            dnum = max(num)
            if dnum < dden:
                break
            c = _gdiv(num[dnum], lden)
            quo[dnum - dden] = c
            nc = (-c[0], -c[1], c[2])
            for k, v in den.items():
                kk = k + dnum - dden
                w = _gmul(nc, v)
                u = num.get(kk)
                if u is not None:
                    w = _gadd(u, w)
                if w is None:
                    del num[kk]
                else:
                    num[kk] = w
        q = _scalar({k + ms - mo: v for k, v in quo.items()})
        r = _scalar({k + ms: v for k, v in num.items()})
        return q, r

    def unit_part(self) -> "Scalar":
        """The canonical unit factor: the highest-power term.

        Dividing by it normalises a scalar so its top T-term is 1*T^0; for a
        unit scalar the whole value becomes 1.
        """
        if not self._t:
            raise ScalarError("zero scalar has no unit part")
        k = max(self._t)
        return _scalar({k: self._t[k]})

    def __repr__(self):
        return "Scalar(%r)" % (dict(self.terms),)


def scalar_gcd(a: Scalar, b: Scalar) -> Scalar:
    """A gcd in QQ(i)[T, T^-1], normalised by its unit part (so units give 1)."""
    if a.is_zero() and b.is_zero():
        raise ScalarError("gcd(0, 0) undefined")
    if a.is_zero():
        return b / b.unit_part()
    if b.is_zero():
        return a / a.unit_part()
    x, y = a, b
    while not y.is_zero():
        _, r = x._divmod_t(y)
        x, y = y, r
    return x / x.unit_part()
