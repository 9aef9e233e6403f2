"""Exact linear algebra over the polynomial ring and its fraction field.

``RationalFunction`` is reduced when first read: num and den are divided by
their gcd the first time either is read.  ``det_poly`` runs fraction-free
(Bareiss) elimination, so every intermediate division is exact; the Gram
determinant, its adjugate and Saito's criterion use it.  ``solve_linear``
back-substitutes after the same elimination and *verifies* A*x == b before
returning.  No module of the package calls the solver (the Poisson tensor
stored at assembly gives the Hamiltonian fields); it stays public, and the
tests check those fields against it.
"""

from __future__ import annotations

from typing import List, Optional

from .poly import Poly, _strip_laurent, divides, exact_quotient, gcd_mv


class LinAlgError(ArithmeticError):
    pass


class RationalFunction:
    """Quotient num/den of polynomials, reduced when first read.

    The fraction keeps the numerator and denominator it was built with until
    ``num`` or ``den`` is first read; that read divides both by their gcd and
    normalises the denominator so its leading scalar has unit part one, with
    invertible monomials (torus units) moved into the numerator
    (_normalize_fraction).  ``is_zero``, ``as_poly`` and ``==`` hold for any
    representative of the fraction, so they read it as built and run no gcd.
    """

    __slots__ = ("_num", "_den", "_reduced")

    def __init__(self, num: Poly, den: Optional[Poly] = None, _normalized=False):
        if den is None:
            den = Poly.one(num.ctx)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num.ctx.check_same(den.ctx)
        self._num = num
        self._den = den
        self._reduced = _normalized

    def _reduce(self):
        if not self._reduced:
            self._num, self._den = _normalize_fraction(self._num, self._den)
            self._reduced = True

    @property
    def num(self) -> Poly:
        self._reduce()
        return self._num

    @property
    def den(self) -> Poly:
        self._reduce()
        return self._den

    @staticmethod
    def from_poly(p: Poly) -> "RationalFunction":
        return RationalFunction(p, Poly.one(p.ctx), _normalized=True)

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def as_poly(self) -> Optional[Poly]:
        """The underlying polynomial when the denominator divides the
        numerator, else None."""
        ok, q = divides(self._den, self._num)
        return q if ok else None

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        n = self.num * other.den + other.num * self.den
        return RationalFunction(n, self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self._num * other._den) == (other._num * self._den)

    def __repr__(self):
        return "RationalFunction(%r / %r)" % (self.num, self.den)


def _normalize_fraction(num: Poly, den: Poly):
    """A denominator that divides the numerator (a unit always does) leaves
    the quotient over 1.  Otherwise both are divided by their gcd, which
    leaves a non-unit denominator; its Laurent-monomial factor (a unit of the
    torus arena) moves into the numerator, and both are scaled so the
    denominator's leading scalar has unit part 1."""
    ok, q = divides(den, num)
    if ok:
        return q, Poly.one(num.ctx)
    g = gcd_mv(num, den)
    num = exact_quotient(num, g)
    shifts, den = _strip_laurent(exact_quotient(den, g))
    if any(shifts):
        num = num * Poly.monomial(num.ctx, [-s for s in shifts])
    _, lc = den.leading()
    inv = lc.unit_part().inverse()
    return num.scale(inv), den.scale(inv)


# -- fraction-free elimination ---------------------------------------------


def _bareiss(a: List[List[Poly]], n: int) -> Optional[int]:
    """Fraction-free (Bareiss) forward elimination of the leading n columns of
    a, in place; rows may carry extra columns, which are eliminated along.

    Returns the sign of the row permutation used, or None when some pivot
    column has no nonzero entry left (the matrix is singular).  All divisions
    along the way are exact (a classical property of the Bareiss scheme over
    any integral domain).
    """
    ctx = a[0][0].ctx
    width = len(a[0])
    sign = 1
    prev = Poly.one(ctx)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return None
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                t = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = exact_quotient(t, prev)
            a[i][k] = Poly.zero(ctx)
        prev = a[k][k]
    return sign


def det_poly(rows: List[List[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by Bareiss elimination, so
    the result is again a polynomial with no fraction arithmetic."""
    n = len(rows)
    if n == 0:
        raise LinAlgError("empty matrix")
    a = [list(r) for r in rows]
    for r in a:
        if len(r) != n:
            raise LinAlgError("matrix is not square")
    sign = _bareiss(a, n)
    if sign is None:
        return Poly.zero(a[0][0].ctx)
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def solve_linear(rows: List[List[Poly]], rhs: List[Poly]) -> List[RationalFunction]:
    """Solve A x = b exactly over the fraction field.

    Raises LinAlgError when A is singular or the verification A*x == b fails
    (the latter would mean an internal arithmetic bug, so it is checked every
    time rather than trusted).
    """
    n = len(rows)
    if n == 0 or len(rhs) != n:
        raise LinAlgError("bad system shape")
    ctx = rows[0][0].ctx
    # augmented fraction-free elimination
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for r in a:
        if len(r) != n + 1:
            raise LinAlgError("matrix is not square")
    if _bareiss(a, n) is None or a[n - 1][n - 1].is_zero():
        raise LinAlgError("singular matrix")
    # back-substitution in the fraction field
    x: List[RationalFunction] = [RationalFunction.from_poly(Poly.zero(ctx))] * n
    for i in range(n - 1, -1, -1):
        acc = RationalFunction.from_poly(a[i][n])
        for j in range(i + 1, n):
            acc = acc - RationalFunction.from_poly(a[i][j]) * x[j]
        x[i] = acc / RationalFunction.from_poly(a[i][i])
    for i in range(n):
        acc = RationalFunction.from_poly(Poly.zero(ctx))
        for j in range(n):
            acc = acc + RationalFunction.from_poly(rows[i][j]) * x[j]
        if not (acc - RationalFunction.from_poly(rhs[i])).is_zero():
            raise LinAlgError("solution verification failed")
    return x


def solve_linear_poly(rows: List[List[Poly]], rhs: List[Poly]) -> Optional[List[Poly]]:
    """Like solve_linear but insisting on polynomial solutions; None if any
    component fails to clear its denominator."""
    sols = solve_linear(rows, rhs)
    out = []
    for s in sols:
        p = s.as_poly()
        if p is None:
            return None
        out.append(p)
    return out
