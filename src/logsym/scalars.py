"""Exact scalar arithmetic over Gaussian rationals with a formal unit T.

A :class:`Scalar` is a finitely supported map ``{power k -> a + b*I}`` sending
an integer power of the formal invertible constant ``T`` (which stands for
2*pi*i) to a Gaussian rational, with ``a``, ``b`` exact :class:`~fractions.Fraction`
values.  Keeping T formal makes every downstream identity (curvature matching,
integrality of periods, residue normalisation) an exactly decidable relation:
nothing is ever rounded.

The scalars form the Laurent-polynomial ring QQ(i)[T, T^-1].  Units are
exactly the single-term scalars; the public division operator is restricted to
those (dividing by a multi-power scalar like ``1 + T`` would leave the ring).
An internal exact-division helper covers the remaining exact quotients needed
by the polynomial gcd machinery.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ArithmeticError):
    """Raised for undefined scalar operations (division by zero or by a non-unit)."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _gadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _gmul(u, v):
    # (a+bi)(c+di) with i^2 = -1
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _gdiv(u, v):
    a, b = v
    n = a * a + b * b
    if n == 0:
        raise ScalarError("division by zero")
    return ((u[0] * a + u[1] * b) / n, (u[1] * a - u[0] * b) / n)


class Scalar:
    """An exact element of QQ(i)[T, T^-1], T standing for 2*pi*i.

    ``terms`` maps the T-power to a ``(real, imag)`` pair of Fractions; zero
    values are never stored, so equality is plain table equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, (a, b) in terms.items():
                a = Fraction(a)
                b = Fraction(b)
                if a or b:
                    clean[int(k)] = (a, b)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({0: (_ONE, _ZERO)})

    @staticmethod
    def from_rational(a, b=0, power: int = 0) -> "Scalar":
        """Scalar (a + b*I) * T^power with exact rational a, b."""
        return Scalar({power: (Fraction(a), Fraction(b))})

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return Scalar.from_rational(n)

    @staticmethod
    def i_unit() -> "Scalar":
        return Scalar({0: (_ZERO, _ONE)})

    @staticmethod
    def two_pi_i(power: int = 1) -> "Scalar":
        """The formal constant T^power."""
        return Scalar({power: (_ONE, _ZERO)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: (_ONE, _ZERO)}

    def is_unit(self) -> bool:
        """Units of QQ(i)[T, T^-1] are the nonzero single-power scalars."""
        return len(self.terms) == 1

    def single_power(self):
        """Return (k, (a, b)) when the scalar is c*T^k, else None."""
        if len(self.terms) != 1:
            return None
        ((k, v),) = self.terms.items()
        return (k, v)

    def rational_value(self):
        """Return the plain Fraction value when the scalar is rational at T^0, else None."""
        if self.is_zero():
            return Fraction(0)
        sp = self.single_power()
        if sp is None:
            return None
        k, (a, b) = sp
        if k != 0 or b != 0:
            return None
        return a

    def integer_times_t(self):
        """Return n when the scalar equals n*T with n a rational integer, else None."""
        if self.is_zero():
            return 0
        sp = self.single_power()
        if sp is None:
            return None
        k, (a, b) = sp
        if k != 1 or b != 0 or a.denominator != 1:
            return None
        return int(a)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            w = _gadd(terms.get(k, (_ZERO, _ZERO)), v)
            if w[0] or w[1]:
                terms[k] = w
            else:
                terms.pop(k, None)
        out = Scalar()
        out.terms = terms
        return out

    def __neg__(self) -> "Scalar":
        out = Scalar()
        out.terms = {k: (-a, -b) for k, (a, b) in self.terms.items()}
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                w = _gmul(v1, v2)
                w = _gadd(terms.get(k, (_ZERO, _ZERO)), w)
                if w[0] or w[1]:
                    terms[k] = w
                else:
                    terms.pop(k, None)
        out = Scalar()
        out.terms = terms
        return out

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = Scalar.one()
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other: "Scalar") -> "Scalar":
        """Division by a unit (single-power) scalar; anything else is an error."""
        if other.is_zero():
            raise ScalarError("division by zero")
        sp = other.single_power()
        if sp is None:
            raise ScalarError(
                "division by a multi-power scalar (non-invertible in QQ(i)[T, T^-1])"
            )
        k, v = sp
        out = Scalar()
        out.terms = {kk - k: _gdiv(vv, v) for kk, vv in self.terms.items()}
        return out

    def inverse(self) -> "Scalar":
        return Scalar.one() / self

    def conjugate(self) -> "Scalar":
        """Gaussian conjugation of every coefficient (T itself is left alone)."""
        out = Scalar()
        out.terms = {k: (a, -b) for k, (a, b) in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- exact division inside the ring -----------------------------------

    def exact_div(self, other: "Scalar") -> "Scalar":
        """Exact quotient in QQ(i)[T, T^-1]; raises if the division is not exact.

        Used internally by the subresultant gcd, where quotients are known to
        lie in the ring even when the divisor is not a unit.
        """
        q, r = self._divmod_t(other)
        if not r.is_zero():
            raise ScalarError("non-exact scalar division")
        return q

    def _divmod_t(self, other: "Scalar"):
        if other.is_zero():
            raise ScalarError("division by zero")
        # Shift each side independently so both become ordinary polynomials in
        # T with nonzero constant term; T-powers are units, so divisibility is
        # unchanged and the shifts recombine below.
        ms = min(self.terms, default=0)
        mo = min(other.terms)
        num = {k - ms: v for k, v in self.terms.items()}
        den = {k - mo: v for k, v in other.terms.items()}
        dden = max(den)
        lden = den[dden]
        quo: dict = {}
        while num:
            dnum = max(num)
            if dnum < dden:
                break
            c = _gdiv(num[dnum], lden)
            quo[dnum - dden] = c
            for k, v in den.items():
                kk = k + dnum - dden
                w = _gadd(num.get(kk, (_ZERO, _ZERO)), _gmul((-c[0], -c[1]), v))
                if w[0] or w[1]:
                    num[kk] = w
                else:
                    num.pop(kk, None)
        q = Scalar()
        q.terms = {k + ms - mo: v for k, v in quo.items() if v[0] or v[1]}
        r = Scalar()
        r.terms = {k + ms: v for k, v in num.items()}
        return q, r

    def unit_part(self) -> "Scalar":
        """The canonical unit factor: the highest-power term.

        Dividing by it normalises a scalar so its top T-term is 1*T^0; for a
        unit scalar the whole value becomes 1.
        """
        if self.is_zero():
            raise ScalarError("zero scalar has no unit part")
        k = max(self.terms)
        out = Scalar()
        out.terms = {k: self.terms[k]}
        return out

    def __repr__(self):
        return "Scalar(%r)" % (self.terms,)


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
