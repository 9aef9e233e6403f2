"""Sparse multivariate polynomials (Laurent in the divisor coordinates).

A :class:`Poly` is a dict mapping exponent tuples to nonzero :class:`Scalar`
coefficients, tied to a :class:`VarContext`.  In the ``poly`` arena all
exponents are >= 0; in the ``torus`` arena the divisor coordinates may carry
negative exponents, which is what makes Hamiltonian vector fields of torus
symplectic forms land back in the same ring.

Monomial order is graded lexicographic throughout.  Division never leaves the
ring silently: :func:`divmod_poly` reduces only while leading terms divide
exactly (the coefficient ring QQ(i)[T, T^-1] is not a field, so leading-scalar
divisibility is part of the test), and :func:`divides` answers ideal
membership for principal ideals by checking that the remainder vanishes.
"""

from __future__ import annotations

from operator import add, sub
from typing import Dict, Optional, Tuple

from .context import TORUS, VarContext
from .scalars import Scalar, ScalarError, _power, _times_int, scalar_gcd

Exp = Tuple[int, ...]


class PolyError(ArithmeticError):
    pass


def _grlex_key(e: Exp):
    return (sum(e), e)


_new = object.__new__


def _poly(ctx: VarContext, terms: Dict[Exp, Scalar]) -> "Poly":
    """A Poly over terms already valid in ctx (int exponent tuples of its
    arity, legal in its arena, nonzero coefficients), skipping the checks of
    Poly.__init__, which stay for callers from outside."""
    p = _new(Poly)
    p.ctx = ctx
    p.terms = terms
    return p


class Poly:
    """Sparse polynomial over Scalar coefficients in a fixed VarContext.

    ``terms`` is never changed after it is built, so results may share a
    table or a coefficient with their operands: ``p + 0`` is ``p`` and
    ``1 * p`` is a Poly over ``p.terms`` itself.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Optional[Dict[Exp, Scalar]] = None):
        self.ctx = ctx
        clean: Dict[Exp, Scalar] = {}
        if terms:
            for e, c in terms.items():
                if c.is_zero():
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != ctx.n:
                    raise PolyError("exponent arity %d != %d" % (len(e), ctx.n))
                for i, x in enumerate(e):
                    if x < 0 and not ctx.laurent_ok(i):
                        raise PolyError(
                            "negative exponent on %s outside the torus arena"
                            % ctx.names[i]
                        )
                clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: VarContext) -> "Poly":
        return _poly(ctx, {})

    @staticmethod
    def constant(ctx: VarContext, c: Scalar) -> "Poly":
        return _poly(ctx, {} if c.is_zero() else {(0,) * ctx.n: c})

    @staticmethod
    def one(ctx: VarContext) -> "Poly":
        return Poly.constant(ctx, Scalar.one())

    @staticmethod
    def from_int(ctx: VarContext, n: int) -> "Poly":
        return Poly.constant(ctx, Scalar.from_int(n))

    @staticmethod
    def variable(ctx: VarContext, name: str) -> "Poly":
        e = [0] * ctx.n
        e[ctx.index(name)] = 1
        return _poly(ctx, {tuple(e): Scalar.one()})

    @staticmethod
    def monomial(ctx: VarContext, exps: Exp, c: Optional[Scalar] = None) -> "Poly":
        return Poly(ctx, {tuple(exps): Scalar.one() if c is None else c})

    # -- predicates / views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        e0 = (0,) * self.ctx.n
        return set(self.terms) == {e0} and self.terms[e0].is_one()

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_coefficient(self) -> Scalar:
        return self.terms.get((0,) * self.ctx.n, Scalar.zero())

    def as_constant(self) -> Optional[Scalar]:
        if self.is_zero():
            return Scalar.zero()
        if self.is_constant():
            return self.constant_coefficient()
        return None

    def leading(self) -> Tuple[Exp, Scalar]:
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def degree_in(self, i: int) -> int:
        """Degree in variable i (-inf is reported as -1 on the zero poly)."""
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def min_degree_in(self, i: int) -> int:
        if not self.terms:
            return 0
        return min(e[i] for e in self.terms)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x != 0:
                    used.add(i)
        return used

    def is_unit_monomial(self) -> bool:
        """True when the poly is unit * monomial (invertible in its arena).

        In the torus arena a single term c*z^e with unit c and the support of
        e inside the divisor coordinates is invertible; in the poly arena only
        unit constants are.
        """
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        if not c.is_unit():
            return False
        return all(x == 0 or self.ctx.laurent_ok(i) for i, x in enumerate(e))

    def inverse_unit(self) -> "Poly":
        if not self.is_unit_monomial():
            raise PolyError("not an invertible monomial in this arena")
        ((e, c),) = self.terms.items()
        return _poly(self.ctx, {tuple(-x for x in e): c.inverse()})

    # -- ring operations ---------------------------------------------------

    def _binop_ctx(self, other: "Poly"):
        self.ctx.check_same(other.ctx)

    def __add__(self, other: "Poly") -> "Poly":
        self._binop_ctx(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return _poly(self.ctx, terms)

    def __neg__(self) -> "Poly":
        return _poly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._binop_ctx(other)
        x, y = self.terms, other.terms
        if len(y) == 1:
            x, y = y, x
        if len(x) == 1:
            # c*z^e times y: the shift is injective and the coefficient ring
            # is a domain, so no two terms meet and none vanishes
            ((e1, c1),) = x.items()
            one = c1.is_one()
            if any(e1):
                if one:
                    return _poly(self.ctx, {
                        tuple(map(add, e1, e2)): c2 for e2, c2 in y.items()
                    })
                return _poly(self.ctx, {
                    tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in y.items()
                })
            if one:
                return _poly(self.ctx, y)
            return _poly(self.ctx, {e2: c1 * c2 for e2, c2 in y.items()})
        terms: Dict[Exp, Scalar] = {}
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return _poly(self.ctx, terms)

    def scale(self, c: Scalar) -> "Poly":
        if c.is_zero():
            return Poly.zero(self.ctx)
        return _poly(self.ctx, {e: cc * c for e, cc in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            return self.inverse_unit() ** (-k)
        return _power(self, k, Poly.one(self.ctx))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- calculus helpers --------------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Plain coordinate derivative d/dz_i."""
        return _poly(self.ctx, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: _times_int(c, e[i])
            for e, c in self.terms.items() if e[i]
        })

    def log_partial(self, i: int) -> "Poly":
        """The logarithmic derivative z_i * d/dz_i (stays in the ring even for Laurent exponents)."""
        return _poly(self.ctx, {
            e: _times_int(c, e[i]) for e, c in self.terms.items() if e[i]
        })

    def mul_var_power(self, i: int, k: int) -> "Poly":
        """Multiply by z_i^k (k may be negative only where the arena allows)."""
        if k == 0:
            return self
        out_terms: Dict[Exp, Scalar] = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] += k
            if e2[i] < 0 and not self.ctx.laurent_ok(i):
                raise PolyError(
                    "z_%s^%d pushes exponents negative outside the torus arena"
                    % (self.ctx.names[i], k)
                )
            out_terms[tuple(e2)] = c
        return _poly(self.ctx, out_terms)

    def substitute_zero(self, i: int) -> "Poly":
        """Set z_i = 0; an error if any term has a negative power of z_i."""
        terms: Dict[Exp, Scalar] = {}
        for e, c in self.terms.items():
            if e[i] < 0:
                raise PolyError(
                    "cannot evaluate at %s=0: negative exponent present"
                    % self.ctx.names[i]
                )
            if e[i] > 0:
                continue
            terms[e] = c
        return _poly(self.ctx, terms)

    def __repr__(self):
        return "Poly(%s, %d terms)" % (self.ctx.describe(), len(self.terms))


# -- division and membership ----------------------------------------------


def divmod_poly(f: Poly, g: Poly):
    """Single-divisor reduction of f by g under graded lex.

    Returns (q, r) with f == q*g + r.  Both sides are first stripped of their
    invertible Laurent-monomial parts (reducing a Laurent quotient against a
    mixed-power divisor head-on would expand an infinite series); on the
    stripped polynomials reduction proceeds while the leading monomial *and*
    leading scalar of the remainder are exactly divisible.  Over our non-field
    scalars this is not a complete normal form, but when g is a true factor
    of f every intermediate remainder is still a multiple of g, so the
    reduction runs to r == 0 (leading terms are multiplicative).
    """
    f.ctx.check_same(g.ctx)
    if g.is_zero():
        raise PolyError("division by zero polynomial")
    if f.is_zero():
        return Poly.zero(f.ctx), Poly.zero(f.ctx)
    fs, f0 = _strip_laurent(f)
    gs, g0 = _strip_laurent(g)
    ge, gc = g0.leading()
    q = Poly.zero(f.ctx)
    r = f0
    while not r.is_zero():
        re, rc = r.leading()
        diff = tuple(map(sub, re, ge))
        if any(d < 0 for d in diff):
            break
        try:
            c = rc.exact_div(gc)
        except ScalarError:
            break
        t = _poly(f.ctx, {diff: c})
        q = q + t
        r = r - t * g0
        # each step strictly lowers the grlex leading exponent, so this stops
    # undo the monomial shifts: f = z^fs * f0, g = z^gs * g0
    for i, (sf, sg) in enumerate(zip(fs, gs)):
        if sf - sg:
            q = q.mul_var_power(i, sf - sg)
        if sf:
            r = r.mul_var_power(i, sf)
    return q, r


def divides(g: Poly, f: Poly):
    """Decide membership of f in the principal ideal (g).

    Returns (True, q) with f == q*g, or (False, r) with a nonzero witness
    remainder.  A unit monomial g (1 among them) divides everything, and the
    quotient is f * g^-1, the one divmod_poly reaches term by term; any other
    g is decided by the reduction.
    """
    f.ctx.check_same(g.ctx)
    if g.is_zero():
        if f.is_zero():
            return True, Poly.zero(f.ctx)
        return False, f
    if f.is_zero():
        return True, Poly.zero(f.ctx)
    if g.is_unit_monomial():
        return True, f * g.inverse_unit()
    q, r = divmod_poly(f, g)
    if r.is_zero():
        return True, q
    return False, r


def exact_quotient(f: Poly, g: Poly) -> Poly:
    ok, q = divides(g, f)
    if not ok:
        raise PolyError("non-exact polynomial division")
    return q


# -- content / gcd ---------------------------------------------------------


def _strip_laurent(f: Poly):
    """Factor f = z^m * f0 with f0 of minimum degree 0 in every divisor
    coordinate of a torus arena, where z^m is a unit.  No other coordinate
    carries a negative exponent, and nothing else is stripped: in the poly
    arena f0 is f.  Returns (m, f0).
    """
    shifts = [0] * f.ctx.n
    if f.ctx.arena == TORUS:
        for i in f.ctx.divisor:
            shifts[i] = f.min_degree_in(i)
    if not any(shifts):
        return shifts, f
    terms = {
        tuple(x - s for x, s in zip(e, shifts)): c for e, c in f.terms.items()
    }
    return shifts, _poly(f.ctx, terms)


def _coeffs_in(f: Poly, i: int):
    """Coefficients of f as a univariate poly in variable i (dict deg -> Poly)."""
    out: Dict[int, Dict[Exp, Scalar]] = {}
    for e, c in f.terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {k: _poly(f.ctx, t) for k, t in out.items()}


def _poly_content_in(f: Poly, i: int) -> Poly:
    """gcd of the coefficients of f viewed in the variable i; 1, with no gcd
    taken, when one of them is a unit."""
    cs = list(_coeffs_in(f, i).values())
    if any(c.is_unit_monomial() for c in cs):
        return Poly.one(f.ctx)
    acc = cs[0]
    for c in cs[1:]:
        acc = gcd_mv(acc, c)
        if acc.is_one():
            break
    return acc


def _primitive_in(f: Poly, i: int):
    """(content, primitive part) of f in the variable i; a content of 1
    divides nothing."""
    c = _poly_content_in(f, i)
    return c, (f if c.is_one() else exact_quotient(f, c))


def _pseudo_rem(f: Poly, g: Poly, i: int) -> Poly:
    """Pseudo-remainder of f by g in the variable i: lc(g)^(df-dg+1) * f mod g."""
    dg = g.degree_in(i)
    lg = _coeffs_in(g, i)[dg]
    r = f
    while not r.is_zero() and (dr := r.degree_in(i)) >= dg:
        rc = _coeffs_in(r, i)
        lr = rc[dr]
        r = r * lg - g * lr.mul_var_power(i, dr - dg)
        if not r.is_zero() and r.degree_in(i) >= dr:
            raise PolyError("pseudo-division failed to reduce degree")
    return r


def gcd_mv(a: Poly, b: Poly) -> Poly:
    """gcd of multivariate polynomials over QQ(i)[T, T^-1].

    Primitive-PRS on the highest variable actually used, recursing on the
    coefficient ring.  Each remainder is divided once by its content in that
    variable; that content bottoms out in the Euclidean gcd in T, so it takes
    the scalar content along.  The result is normalised so its leading scalar
    has unit part 1.  Laurent monomial factors (units of the torus arena) are
    stripped first and do not appear in the answer.
    """
    a.ctx.check_same(b.ctx)
    if a.is_zero() and b.is_zero():
        return Poly.zero(a.ctx)
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero():
        return _normalize_gcd(a)
    _, a = _strip_laurent(a)
    _, b = _strip_laurent(b)
    used = a.variables_used() | b.variables_used()
    if not used:
        c = scalar_gcd(a.constant_coefficient(), b.constant_coefficient())
        return Poly.constant(a.ctx, c)
    i = max(used)
    if a.degree_in(i) == 0 or b.degree_in(i) == 0:
        # one side is free of z_i, so the gcd divides the other's content in z_i
        f, g = (a, b) if b.degree_in(i) > 0 else (b, a)
        return gcd_mv(f, _poly_content_in(g, i))
    ca, pa = _primitive_in(a, i)
    cb, pb = _primitive_in(b, i)
    cont = gcd_mv(ca, cb)
    if pa.degree_in(i) < pb.degree_in(i):
        pa, pb = pb, pa
    while True:
        r = _pseudo_rem(pa, pb, i)
        if r.is_zero():
            break
        if r.degree_in(i) == 0:
            pb = Poly.one(a.ctx)
            break
        pa, pb = pb, _primitive_in(r, i)[1]
    return _normalize_gcd(cont * pb)


def _normalize_gcd(g: Poly) -> Poly:
    if g.is_zero():
        return g
    _, g = _strip_laurent(g)
    _, lc = g.leading()
    return g.scale(lc.unit_part().inverse())
