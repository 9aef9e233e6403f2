"""Divisor-level predicates: reducedness, coordinate normal crossings,
logarithmicity of derivations, Saito's freeness criterion and weighted
homogeneity.

Everything here works with the plain-frame coefficient rows of vector fields
against an explicit defining polynomial h, in the chart's polynomial ring:
Saito's criterion is literally a determinant identity det = c*h, and
logarithmicity is the membership delta(h) in (h).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence

from .calculus import LogVectorField, _field
from .linalg import det_poly
from .poly import Poly, divides, gcd_mv
from .scalars import Scalar


class DivisorError(ValueError):
    pass


def check_squarefree(h: Poly):
    """Reducedness of {h=0}: the joint gcd of h with all its partials
    dh/dz_i is constant.  (Per-partial gcds are the wrong test in several
    variables: a factor free of z_i survives into gcd(h, dh/dz_i) without
    being repeated.)

    Returns (True, None) or (False, witness) where the witness is that joint
    gcd, a repeated factor of h, both in the polynomial ring.
    """
    if h.is_zero():
        raise DivisorError("zero polynomial")
    h = h.in_polynomial_ring()
    g = h
    for i in range(h.ctx.n):
        d = h.partial(i)
        if d.is_zero():
            continue
        g = gcd_mv(g, d)
        if g.is_constant():
            return True, None
    return (True, None) if g.is_constant() else (False, g)


def is_logarithmic(delta: LogVectorField, h: Poly):
    """Whether delta preserves the principal ideal (h): delta(h) = g*h.

    Returns (True, g) or (False, remainder witness), in the polynomial
    ring.  For a principal ideal this single membership is equivalent to
    delta(u) in (u) for every u in (h), by the Leibniz rule.
    """
    delta.ctx.check_same(h.ctx)
    h = h.in_polynomial_ring()
    return divides(h, _polynomial_field(delta).apply(h))


def _polynomial_field(delta: LogVectorField) -> LogVectorField:
    """delta in the polynomial ring, as Poly.in_polynomial_ring moves a poly."""
    if not delta.ctx.divisor:
        return delta
    return _field(delta.ctx.polynomial(),
                  tuple(c.in_polynomial_ring() for c in delta.coeffs))


class SaitoResult(NamedTuple):
    free: bool
    det: Poly
    certificate: Optional[Scalar]  # det = certificate * h when free, a unit


def saito_check(fields: Sequence[LogVectorField], h: Poly) -> SaitoResult:
    """Saito's criterion: n fields are a free basis of the logarithmic
    derivations iff the determinant of their coefficient matrix equals a
    unit of the polynomial ring (is_unit_monomial: c*T^k, c a nonzero
    constant) times h.

    Raises DivisorError when some field is not logarithmic (the criterion's
    hypothesis); otherwise returns the determinant, in the polynomial ring,
    and, if it is q*h for such a unit q, q as the certificate.
    """
    ctx = h.ctx
    if len(fields) != ctx.n:
        raise DivisorError("need exactly %d fields, got %d" % (ctx.n, len(fields)))
    h = h.in_polynomial_ring()
    fields = [_polynomial_field(delta) for delta in fields]
    for k, delta in enumerate(fields):
        ok, _ = is_logarithmic(delta, h)
        if not ok:
            raise DivisorError("field %d is not logarithmic along h" % (k + 1))
    det = det_poly([list(delta.coeffs) for delta in fields])
    ok, q = divides(h, det)
    if ok and q.is_unit_monomial():
        return SaitoResult(True, det, q.constant_coefficient())
    return SaitoResult(False, det, None)


def is_coordinate_ncd(h: Poly):
    """Whether h cuts a coordinate normal crossing: h = c * product of distinct
    variables.  Returns (True, sorted index tuple) or (False, None)."""
    if h.is_zero():
        raise DivisorError("zero polynomial")
    monomials = h.monomials()
    if len(monomials) != 1:
        return False, None
    (e,) = monomials
    if any(x not in (0, 1) for x in e):
        return False, None
    return True, tuple(i for i, x in enumerate(e) if x == 1)


# -- weighted homogeneity ---------------------------------------------------


def _row_reduce(rows: List[List[Fraction]]):
    """In-place fraction Gauss-Jordan; returns pivot column list."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _nullspace(rows: List[List[Fraction]], n: int) -> List[List[Fraction]]:
    work = [list(r) for r in rows]
    pivots = _row_reduce(work)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def _fm_feasible(constraints: List[List[Fraction]], nvars: int):
    """Find c with M*c >= 1 (each constraint row [m_1..m_k, rhs] means
    sum m_j c_j >= rhs) by Fourier-Motzkin elimination; None if infeasible."""
    if nvars == 0:
        for row in constraints:
            if row[-1] > 0:
                return None
        return []
    pos, neg, rest = [], [], []
    for row in constraints:
        a = row[nvars - 1]
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            rest.append(row[: nvars - 1] + [row[-1]])
    for p in pos:
        for q in neg:
            # eliminate the last variable between a lower and an upper bound
            ap, aq = p[nvars - 1], -q[nvars - 1]
            comb = [
                aq * p[j] + ap * q[j] for j in range(nvars - 1)
            ] + [aq * p[-1] + ap * q[-1]]
            rest.append(comb)
    sub = _fm_feasible(rest, nvars - 1)
    if sub is None:
        return None
    # back-substitute: last var must satisfy c >= (rhs - rest)/a for a>0 (lower
    # bounds) and c <= ... for a<0 (upper bounds)
    lo, hi = None, None
    for row in pos:
        val = (row[-1] - sum(row[j] * sub[j] for j in range(nvars - 1))) / row[nvars - 1]
        lo = val if lo is None else max(lo, val)
    for row in neg:
        val = (row[-1] - sum(row[j] * sub[j] for j in range(nvars - 1))) / row[nvars - 1]
        hi = val if hi is None else min(hi, val)
    if lo is None and hi is None:
        c = Fraction(0)
    elif lo is None:
        c = hi
    elif hi is None:
        c = lo
    else:
        if lo > hi:
            return None  # cannot happen if FM succeeded, kept as a guard
        c = (lo + hi) / 2
    return sub + [c]


def weighted_homogeneous(h: Poly):
    """Positive integer weights making every term of h the same weighted
    degree, or None.

    Solves the difference system over the rationals (exact nullspace), then
    searches the nullspace for a strictly positive vector by Fourier-Motzkin,
    and finally clears denominators to coprime positive integers.  Returns
    (weights tuple, degree) or None.  h is read in the polynomial ring, as
    check_squarefree reads it, so a pole is a PolyError.
    """
    if h.is_zero():
        raise DivisorError("zero polynomial")
    h = h.in_polynomial_ring()
    n = h.ctx.n
    exps = list(h.monomials())
    base = exps[0]
    diff_rows = [
        [Fraction(e[i] - base[i]) for i in range(n)] for e in exps[1:]
    ]
    diff_rows = [r for r in diff_rows if any(x != 0 for x in r)]
    basis = _nullspace(diff_rows, n) if diff_rows else [
        [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    if not basis:
        return None
    # want w = sum c_j basis_j with w_i >= 1 for all i (scaling makes > 0 and >= 1 equivalent)
    constraints = [
        [basis[j][i] for j in range(len(basis))] + [Fraction(1)] for i in range(n)
    ]
    c = _fm_feasible(constraints, len(basis))
    if c is None:
        return None
    w = [sum(c[j] * basis[j][i] for j in range(len(basis))) for i in range(n)]
    den = lcm(*(x.denominator for x in w))
    ints = [int(x * den) for x in w]
    g = 0
    for x in ints:
        g = gcd(g, x)
    weights = tuple(x // g for x in ints)
    degree = sum(wi * ei for wi, ei in zip(weights, base))
    return weights, degree
