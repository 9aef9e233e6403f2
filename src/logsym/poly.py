"""Sparse multivariate polynomials (Laurent in the divisor coordinates).

A :class:`Poly` tied to a :class:`VarContext` of n coordinates is one flat
table ``_t`` from keys ``(e_1, ..., e_n, k)`` to Gaussian rationals
``(re, im, den)``: the entry stands for the term
``(re + im*I)/den * T^k * z_1^e_1 * ... * z_n^e_n``, so the key is the
z-exponents followed by the power of T.  Each value is the canonical triple
of :mod:`.scalars` (``den > 0``, ``gcd(re, im, den) == 1``, never zero) and
entries that cancel are removed, so equality is plain table equality.  The
ring operations work entry by entry on these triples, with no
:class:`Scalar` object per coefficient; the ``terms`` view regroups the
table as ``{e: Scalar}`` when read.  Only the divisor coordinates may
carry negative exponents (the chart's ring), which is what makes
Hamiltonian vector fields of torus symplectic forms land back in the same
ring.  The power of T may have either sign.

Exponent keys are added and subtracted only by _key_add[n] and
_key_sub[n], written out once per key arity n.  A sum of products
sum a*b (a field applied to a function, a row of a field map times a
1-form, a log pairing) is dot(pairs, ctx), the one multiply-accumulate
kernel: every term pair is added straight into one fresh table, with no
intermediate product or sum.

The leading term, and so the normalisation of a gcd, is taken in graded
lexicographic order of the z-exponents.  Division never leaves the ring
silently: :func:`divides` answers membership in a principal ideal by one
exact division on integer images in Z[i][z, T] (the coefficient ring
QQ(i)[T, T^-1] is not a field, so coefficient divisibility is part of the
test), and returns the quotient or a nonzero remainder witness.  An image
is the table with its denominators cleared and a monomial taken out: for
:func:`divides` the lowest powers that are units (of T and of the divisor
coordinates), for :func:`gcd_mv` the lowest power of
every place.  :func:`gcd_mv` has one algorithm, the heuristic gcd on these
images, and the same division certifies its answer at every level.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Optional, Tuple

from .context import VarContext
from .scalars import (
    _ONE,
    Scalar,
    _gadd,
    _gdiv,
    _gmul,
    _power,
    _red,
    _scalar,
    _times_int,
)

Exp = Tuple[int, ...]


class PolyError(ArithmeticError):
    pass


def _grlex_key(e: Exp):
    return (sum(e), e)


_new = object.__new__


def _poly(ctx: VarContext, t: dict) -> "Poly":
    """A Poly over a flat table already valid in ctx (keys of n z-exponents
    legal in its ring and a T-power, canonical nonzero triples), skipping
    the checks of Poly.__init__, which stay for callers from outside."""
    p = _new(Poly)
    p.ctx = ctx
    p._t = t
    return p


class _KeyArith(dict):
    """Arity -> the function that adds (op "+") or subtracts (op "-") two
    keys of that arity entry by entry, written out as one tuple display the
    first time the arity is met, the way dataclasses writes its methods:
    the key layout is this module's, and the written-out sum costs a
    fraction of tuple(map(add, a, b))."""

    def __init__(self, op: str):
        super().__init__()
        self.op = op

    def __missing__(self, n: int):
        body = "".join("a[%d] %s b[%d], " % (i, self.op, i) for i in range(n))
        f = self[n] = eval("lambda a, b: (%s)" % body)
        return f


_key_add = _KeyArith("+")
_key_sub = _KeyArith("-")


def _product(x: dict, y: dict, t: Optional[dict] = None) -> dict:
    """The table of the product of the tables x and y, summing the terms
    that meet; with t, the product is added into t, a fresh table of the
    caller's, and t is returned."""
    if t is None:
        t = {}
    if not (x and y):
        return t
    add = _key_add[len(next(iter(x)))]
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            e = add(e1, e2)
            w = _gmul(v1, v2)
            u = t.get(e)
            if u is not None:
                w = _gadd(u, w)
                if w is None:
                    del t[e]
                    continue
            t[e] = w
    return t


def dot(pairs: Iterable[Tuple["Poly", "Poly"]], ctx: VarContext) -> "Poly":
    """sum a*b over the pairs (a, b) of Polys in ctx, every term pair added
    straight into one fresh table: a sum of n products costs no
    intermediate product or sum.  No operand's table is written."""
    t: dict = {}
    for a, b in pairs:
        _product(a._t, b._t, t)
    return _poly(ctx, t)


class Poly:
    """Sparse polynomial over QQ(i)[T, T^-1] in a fixed VarContext.

    ``_t`` maps ``z-exponents + (T-power,)`` to a canonical ``(re, im, den)``
    triple (see the module docstring).  A table is never changed after it is
    built, so results may share a table or a triple with their operands:
    ``p + 0`` and ``1 * p`` are ``p`` itself.  ``Poly(ctx, {e: Scalar})``
    checks and flattens its input; ``terms`` is the read-only
    ``{e: Scalar}`` view, built on each read.
    """

    __slots__ = ("ctx", "_t")

    def __init__(self, ctx: VarContext, terms: Optional[Dict[Exp, Scalar]] = None):
        self.ctx = ctx
        t = {}
        if terms:
            for e, c in terms.items():
                if c.is_zero():
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != ctx.n:
                    raise PolyError("exponent arity %d != %d" % (len(e), ctx.n))
                for i, x in enumerate(e):
                    if x < 0 and not ctx.is_divisor_index(i):
                        raise PolyError(
                            "negative exponent on %s, which is not inverted"
                            % ctx.names[i]
                        )
                for k, v in c._t.items():
                    t[e + (k,)] = v
        self._t = t

    @property
    def terms(self):
        """Read-only ``{z-exponents: Scalar}`` view of the table."""
        return MappingProxyType({
            e: _scalar({k[-1]: v for k, v in m._t.items()})
            for e, m in self.monomials().items()
        })

    def monomials(self) -> Dict[Exp, "Poly"]:
        """``{e: c*z^e}``: the terms of the poly, one per z-exponent e."""
        out: Dict[Exp, dict] = {}
        for e, v in self._t.items():
            out.setdefault(e[:-1], {})[e] = v
        return {e: _poly(self.ctx, t) for e, t in out.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: VarContext) -> "Poly":
        return _poly(ctx, {})

    @staticmethod
    def constant(ctx: VarContext, c: Scalar) -> "Poly":
        z = (0,) * ctx.n
        return _poly(ctx, {z + (k,): v for k, v in c._t.items()})

    @staticmethod
    def one(ctx: VarContext) -> "Poly":
        return _poly(ctx, {(0,) * (ctx.n + 1): _ONE})

    @staticmethod
    def from_int(ctx: VarContext, n: int) -> "Poly":
        return _poly(ctx, {(0,) * (ctx.n + 1): (n, 0, 1)} if n else {})

    @staticmethod
    def variable(ctx: VarContext, name: str) -> "Poly":
        e = [0] * (ctx.n + 1)
        e[ctx.index(name)] = 1
        return _poly(ctx, {tuple(e): _ONE})

    @staticmethod
    def monomial(ctx: VarContext, exps: Exp, c: Optional[Scalar] = None) -> "Poly":
        return Poly(ctx, {tuple(exps): Scalar.one() if c is None else c})

    # -- predicates / views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        t = self._t
        return len(t) == 1 and t.get((0,) * (self.ctx.n + 1)) == _ONE

    def is_constant(self) -> bool:
        return not any(any(e[:-1]) for e in self._t)

    def constant_coefficient(self) -> Scalar:
        return _scalar({e[-1]: v for e, v in self._t.items() if not any(e[:-1])})

    def as_constant(self) -> Optional[Scalar]:
        if self.is_zero():
            return Scalar.zero()
        if self.is_constant():
            return self.constant_coefficient()
        return None

    def leading(self) -> Tuple[Exp, Scalar]:
        if not self._t:
            raise PolyError("zero polynomial has no leading term")
        e = max({k[:-1] for k in self._t}, key=_grlex_key)
        return e, _scalar({k[-1]: v for k, v in self._t.items() if k[:-1] == e})

    def min_degree_in(self, i: int) -> int:
        if not self._t:
            return 0
        return min(e[i] for e in self._t)

    def is_unit_monomial(self) -> bool:
        """True when the poly is a unit of its ring: one term c*T^k*z^e,
        the support of e inside the divisor coordinates."""
        if len(self._t) != 1:
            return False
        (e,) = self._t
        return all(x == 0 or self.ctx.is_divisor_index(i) for i, x in enumerate(e[:-1]))

    def inverse_unit(self) -> "Poly":
        if not self.is_unit_monomial():
            raise PolyError("not a unit of the chart's ring")
        ((e, v),) = self._t.items()
        return _poly(self.ctx, {tuple(-x for x in e): _gdiv(_ONE, v)})

    def pole(self) -> Optional[int]:
        """The first divisor coordinate with a negative exponent, or None."""
        return next((i for i in self.ctx.divisor if self.min_degree_in(i) < 0), None)

    def in_polynomial_ring(self) -> "Poly":
        """The poly in ctx.polynomial() (itself if that is ctx); a pole is a PolyError."""
        i = self.pole()
        if i is not None:
            raise PolyError("not in the polynomial ring: pole in %s" % self.ctx.names[i])
        return _poly(self.ctx.polynomial(), self._t) if self.ctx.divisor else self

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if other.ctx is not self.ctx:
            self.ctx.check_same(other.ctx)
        x, y = self._t, other._t
        if not x:
            return other
        if not y:
            return self
        t = dict(x)
        for e, v in y.items():
            u = t.get(e)
            if u is None:
                t[e] = v
                continue
            w = _gadd(u, v)
            if w is None:
                del t[e]
            else:
                t[e] = w
        return _poly(self.ctx, t)

    def __neg__(self) -> "Poly":
        return _poly(self.ctx, {e: (-a, -b, d) for e, (a, b, d) in self._t.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if other.ctx is not self.ctx:
            self.ctx.check_same(other.ctx)
        a, b = (other, self) if len(other._t) == 1 else (self, other)
        x, y = a._t, b._t
        if len(x) != 1:
            return _poly(self.ctx, _product(x, y))
        # c*T^k*z^e times y: the shift is injective and Q(i) has no zero
        # divisors, so no two terms meet and none vanishes; a factor exactly
        # 1 gives the other operand back
        ((e1, v1),) = x.items()
        one = v1 == _ONE
        if one and not any(e1):
            return b
        if len(y) == 1:
            ((e2, v2),) = y.items()
            if v2 == _ONE and not any(e2):
                return a
        if not any(e1):
            return _poly(self.ctx, {e2: _gmul(v1, v2) for e2, v2 in y.items()})
        add = _key_add[len(e1)]
        if one:
            return _poly(self.ctx, {add(e1, e2): v2 for e2, v2 in y.items()})
        return _poly(self.ctx, {add(e1, e2): _gmul(v1, v2) for e2, v2 in y.items()})

    def scale(self, c: Scalar) -> "Poly":
        return self * Poly.constant(self.ctx, c)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            return self.inverse_unit() ** (-k)
        return _power(self, k, Poly.one(self.ctx))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self._t == other._t
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self._t.items())))

    # -- calculus helpers --------------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Plain coordinate derivative d/dz_i."""
        return _poly(self.ctx, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: _times_int(v, e[i])
            for e, v in self._t.items() if e[i]
        })

    def log_partial(self, i: int) -> "Poly":
        """The logarithmic derivative z_i * d/dz_i (stays in the ring even for Laurent exponents)."""
        return _poly(self.ctx, {
            e: _times_int(v, e[i]) for e, v in self._t.items() if e[i]
        })

    def mul_var_power(self, i: int, k: int) -> "Poly":
        """Multiply by z_i^k (k may be negative only where z_i is inverted)."""
        t = {}
        for e, v in self._t.items():
            x = e[i] + k
            if x < 0 and not self.ctx.is_divisor_index(i):
                raise PolyError(
                    "z_%s^%d pushes exponents negative, and %s is not inverted"
                    % (self.ctx.names[i], k, self.ctx.names[i])
                )
            t[e[:i] + (x,) + e[i + 1:]] = v
        return _poly(self.ctx, t)

    def substitute_zero(self, i: int) -> "Poly":
        """Set z_i = 0; an error if any term has a negative power of z_i."""
        t = {}
        for e, v in self._t.items():
            if e[i] < 0:
                raise PolyError(
                    "cannot evaluate at %s=0: negative exponent present"
                    % self.ctx.names[i]
                )
            if e[i] == 0:
                t[e] = v
        return _poly(self.ctx, t)

    def __repr__(self):
        return "Poly(%s, %d terms)" % (self.ctx.describe(), len(self.monomials()))


# -- division and membership ----------------------------------------------


def divides(g: Poly, f: Poly):
    """Decide membership of f in the principal ideal (g).

    Returns (True, q) with f == q*g, or (False, r) with r != 0 and g | f - r.
    A unit monomial g (1 among them) divides everything, and the quotient is
    f * g^-1.  Any other g is decided on images in Z[i][z, T] (see _image):
    the ring is Z[i][z, T] with the nonzero Gaussian integers, T and the
    divisor coordinates inverted, and the primitive part of
    g's image has none of these as a factor, so by Gauss's lemma it divides
    f's image in Z[i][z, T] exactly when g divides f.  A refusal returns the
    remainder where the division of the images stopped, times f's unit.
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
    fi, fs, fd = _image(f)
    gi, gs, gd = _image(g)
    (a, b), gi = _primitive(gi)
    q, r = _divide_image(gi, fi)
    if r:
        return False, _from_image(f.ctx, r, fs, (1, 0, fd))
    # f = z^fs * F / fd and g = z^gs * (a + b*i) * G / gd, T a place of z
    unit = _red(gd * a, -gd * b, fd * (a * a + b * b))
    return True, _from_image(f.ctx, q, _key_sub[len(fs)](fs, gs), unit)


def exact_quotient(f: Poly, g: Poly) -> Poly:
    ok, q = divides(g, f)
    if not ok:
        raise PolyError("non-exact polynomial division")
    return q


# -- content / gcd ---------------------------------------------------------


def _strip_laurent(f: Poly):
    """Factor f = z^m * f0 with f0 of minimum degree 0 in every divisor
    coordinate, where z^m is a unit; nothing else is stripped, so without
    divisor coordinates f0 is f.  Returns (m, f0)."""
    shifts = [0] * f.ctx.n
    for i in f.ctx.divisor:
        shifts[i] = f.min_degree_in(i)
    if not any(shifts):
        return shifts, f
    s = shifts + [0]
    sub = _key_sub[len(s)]
    return shifts, _poly(f.ctx, {sub(e, s): v for e, v in f._t.items()})


def gcd_mv(a: Poly, b: Poly) -> Poly:
    """gcd of multivariate polynomials over QQ(i)[T, T^-1], by one algorithm:
    the heuristic gcd _heu (GCDHEU, Char, Geddes and Gonnet 1989) on the
    integer images of a and b (see _image), each level of which certifies
    its answer by exact division.  Each image has the lowest power of every
    place taken out, z^a from a and z^b from b (T among the places), and
    z^min(a, b) is put back, since gcd(z^a*F, z^b*G) = z^min(a, b)*gcd(F, G):
    _heu would otherwise evaluate xi^a for a monomial factor z^a.  What is
    left differs from the gcd by a unit of the ring, Z[i][z, T] with the
    nonzero Gaussian integers, T and the divisor coordinates inverted,
    which _normalize_gcd fixes.  A zero input gives the other input,
    normalised.
    """
    a.ctx.check_same(b.ctx)
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero():
        return _normalize_gcd(a)
    fm, gm = (tuple(map(min, zip(*p._t))) for p in (a, b))
    h = _heu(_image(a, fm)[0], _image(b, gm)[0], range(a.ctx.n + 1))
    return _normalize_gcd(_from_image(a.ctx, h, tuple(map(min, fm, gm))))


def _normalize_gcd(g: Poly) -> Poly:
    if g.is_zero():
        return g
    _, g = _strip_laurent(g)
    _, lc = g.leading()
    return g.scale(lc.unit_part().inverse())


# -- the heuristic gcd on integer images ---------------------------------------
#
# An image is a dict from exponent tuples (z_1, ..., z_n, t) to nonzero
# Gaussian integers (re, im), every exponent >= 0; the last place is the
# power of T.


def _image(f: Poly, shift: Optional[Exp] = None):
    """(image, shift, den) for a nonzero f = z^shift * image / den, the last
    place of shift being the power of T and den the lcm of the denominators,
    so the image lies in Z[i][z, T].  The default shift is the lowest power
    of each place whose powers are units: T and the divisor coordinates
    (the Laurent shift of _strip_laurent)."""
    t = f._t
    if shift is None:
        ctx = f.ctx
        shift = [0] * ctx.n + [min(e[-1] for e in t)]
        for i in ctx.divisor:
            shift[i] = min(e[i] for e in t)
    den = 1
    for _, _, d in t.values():
        den = lcm(den, d)
    shifted = any(shift)
    sub = _key_sub[len(shift)]
    return {
        sub(e, shift) if shifted else e:
            (re * (den // d), im * (den // d))
        for e, (re, im, d) in t.items()
    }, shift, den


def _from_image(ctx: VarContext, h: dict, shift, unit=_ONE) -> Poly:
    """The Poly z^shift * unit * h of an image h (shift as in _image), unit
    being a Gaussian rational (re, im, den) in canonical form."""
    one = unit == _ONE
    shifted = any(shift)
    add = _key_add[len(shift)]
    return _poly(ctx, {
        add(e, shift) if shifted else e:
            (re, im, 1) if one else _gmul((re, im, 1), unit)
        for e, (re, im) in h.items()
    })


def _heu(f: dict, g: dict, places) -> dict:
    """A gcd of the nonzero images f and g, whose exponents are 0 outside
    places.

    The gcd is the gcd of the contents times that of the primitive parts.
    A place neither side uses is skipped.  At the first place used, z_j,
    the primitive parts are evaluated at z_j = xi, the gcd of the
    evaluations is taken by recursion (_ggcd at the bottom), and the
    candidate is the primitive part of its balanced xi-adic expansion.  It
    is returned only when it divides both primitive parts exactly; since
    xi >= 2*min(|f|, |g|) + 2, with |re| + |im| as the size of a
    coefficient, it is then their gcd (Char, Geddes and Gonnet, J. Symbolic
    Comput. 7, 1989).  Otherwise xi grows as in sympy's heuristicgcd.py and
    the level tries again, for as long as it takes.

    Why the loop ends: let the primitive parts be H*F and H*G with F and G
    coprime.  Past the finitely many xi at which F and G evaluated at
    z_j = xi vanish or share a nonconstant factor, the gcd of the two
    evaluations is d*H(xi) up to a unit, where the Gaussian integer d
    divides the content of the resultant of F and G in z_j, so its size is
    bounded.  Once xi > 2*|d*H|, the balanced expansion returns d*H, whose
    primitive part H passes the certificate.  xi grows without bound, so
    every level ends.
    """
    used = [j for j in places
            if any(e[j] for e in f) or any(e[j] for e in g)]
    cf, f = _primitive(f)
    cg, g = _primitive(g)
    c = _ggcd(cf, cg)
    zero = (0,) * len(next(iter(f)))
    if not used or len(f) == 1 and zero in f or len(g) == 1 and zero in g:
        return {zero: c}
    j, rest = used[0], used[1:]
    xi = 2 * min(_norm(f), _norm(g)) + 29
    while True:
        fx, gx = _evaluate(f, j, xi), _evaluate(g, j, xi)
        if fx and gx:
            _, h = _primitive(_expand(_heu(fx, gx, rest), j, xi))
            if not _divide_image(h, f)[1] and not _divide_image(h, g)[1]:
                if c == (1, 0):
                    return h
                return {e: _gmul_int(c, v) for e, v in h.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011


def _ggcd(u, v):
    """A gcd of the Gaussian integers u and v, not both zero.

    Euclid in Z[i] takes a step per bit, each on numbers of full size, so
    rational integer gcds do the work instead: with u = c*p, c = gcd(re, im)
    and p primitive, gcd(u, v) = g*h*gcd(w', c/h) for g = gcd(p, v),
    w = v/g = d*w' (d = gcd of its parts, w' primitive) and h = gcd(c, d),
    which holds prime by prime."""
    a, b = u
    c, d = v
    if not (b or d):
        return gcd(a, c), 0
    if not (a or b):
        return v
    if not (c or d):
        return u
    cu = gcd(a, b)
    g = _gcd_primitive(a // cu, b // cu, v)
    w0, w1 = _gquo(v, g)
    cw = gcd(w0, w1)
    h = gcd(cu, cw)
    x, y = _gmul_int(g, _gcd_primitive(w0 // cw, w1 // cw, (cu // h, 0)))
    return h * x, h * y


def _gcd_primitive(p, q, w):
    """gcd(p + q*i, w) for p + q*i primitive (gcd(p, q) = 1).

    Z[i] / (p + q*i) is Z/n for n = p^2 + q^2, with i mapped to r = -p/q
    mod n; the ideal (p + q*i, w) is then {x + y*i : x + y*r = 0 mod k} for
    k = gcd(n, image of w), and k is the norm of its generator.  The norm of
    the gcd divides m = gcd(n, N(w)), so r is taken mod m.  Cornacchia's
    algorithm finds the generator."""
    n = p * p + q * q
    m = gcd(n, w[0] * w[0] + w[1] * w[1])
    if m == 1:
        return 1, 0
    r = -p * pow(q, -1, m) % m
    return _norm_root(gcd(m, w[0] + w[1] * r), r)


def _norm_root(k, r):
    """x + y*i with x^2 + y^2 = k and x + y*r = 0 mod k, for r^2 = -1 mod k:
    the generator of the ideal of norm k that r picks, by Cornacchia's
    algorithm (the Euclidean remainders of k and r down to sqrt(k))."""
    if k == 1:
        return 1, 0
    r %= k
    s = isqrt(k)
    x, y = k, r
    while y > s:
        x, y = y, x % y
    z = isqrt(k - y * y)
    return (y, z) if (y + z * r) % k == 0 else (y, -z)


def _gquo(u, v):
    """u / v in Z[i], or None when v does not divide u."""
    a, b = u
    c, d = v
    if not d:
        if a % c or b % c:
            return None
        return a // c, b // c
    n = c * c + d * d
    x, y = a * c + b * d, b * c - a * d
    if x % n or y % n:
        return None
    return x // n, y // n


def _gmul_int(u, v):
    """u * v in Z[i]."""
    a, b = u
    c, d = v
    return a * c - b * d, a * d + b * c


def _primitive(f: dict):
    """(content, primitive part) of an image over Z[i]."""
    c = (0, 0)
    for v in f.values():
        c = _ggcd(c, v)
        if abs(c[0]) + abs(c[1]) == 1:
            break
    if c == (1, 0):
        return c, f
    return c, {e: _gquo(v, c) for e, v in f.items()}


def _norm(f: dict) -> int:
    return max(abs(re) + abs(im) for re, im in f.values())


def _evaluate(f: dict, j: int, xi: int) -> dict:
    """f at z_j = xi; the j-th exponent of every key becomes 0."""
    out: dict = {}
    for e, (re, im) in f.items():
        k = e[j]
        if k:
            p = xi ** k
            re, im = re * p, im * p
            e = e[:j] + (0,) + e[j + 1:]
        s = out.get(e)
        if s is not None:
            re, im = re + s[0], im + s[1]
            if not (re or im):
                del out[e]
                continue
        out[e] = re, im
    return out


def _expand(h: dict, j: int, xi: int) -> dict:
    """The balanced xi-adic expansion in z_j of h (free of z_j), real and
    imaginary parts of each coefficient apart: digits in (-xi/2, xi/2]."""
    half = xi // 2
    out = {}
    for e, (re, im) in h.items():
        k = 0
        while re or im:
            dr, di = re % xi, im % xi
            if dr > half:
                dr -= xi
            if di > half:
                di -= xi
            if dr or di:
                out[e[:j] + (k,) + e[j + 1:]] = dr, di
            re, im = (re - dr) // xi, (im - di) // xi
            k += 1
    return out


def _divide_image(h: dict, f: dict):
    """(q, r) with f = q*h + r in Z[i][z, t], for a primitive h, by exact
    division under lex order: r is empty when h divides f, else what is left
    where division stopped, at a leading term that h's leading term does not
    divide, so h divides f - r.  A primitive h of one term has a unit
    coefficient, so only its exponent needs dividing, and r is the terms of f
    it does not divide."""
    sub = _key_sub[len(next(iter(h)))]
    if len(h) == 1:
        ((lead, lc),) = h.items()
        q, r = {}, {}
        for e, v in f.items():
            d = sub(e, lead)
            if min(d) < 0:
                r[e] = v
            else:
                q[d] = v if lc == (1, 0) else _gquo(v, lc)
        return q, r
    lead = max(h)
    lc = h[lead]
    tail = [(e, v) for e, v in h.items() if e != lead]
    add = _key_add[len(lead)]
    q, r = {}, dict(f)
    while r:
        e = max(r)
        d = sub(e, lead)
        if min(d) < 0:
            break
        c = _gquo(r[e], lc)
        if c is None:
            break
        del r[e]
        q[d] = c
        for m, w in tail:
            t = add(d, m)
            p = _gmul_int(c, w)
            s = r.get(t)
            if s is None:
                r[t] = -p[0], -p[1]
            else:
                p = s[0] - p[0], s[1] - p[1]
                if p[0] or p[1]:
                    r[t] = p
                else:
                    del r[t]
    return q, r
