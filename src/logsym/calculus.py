"""Logarithmic Cartan calculus on a coordinate chart.

Vector fields are stored with plain-frame coefficients (the coefficient of
each d/dz_i).  Forms are stored in the log coframe adapted to the divisor
coordinates S: the degree-1 basis is e^i = dz_i/z_i for i in S and e^j = dz_j
otherwise.  Working in this coframe makes "logarithmic pole at most" a
property of the representation instead of something to check, and the whole
coframe is closed, so the exterior derivative of a form is just the
derivative of its coefficients wedged in.

The dual log frame is xi_i = z_i*d/dz_i for i in S and d/dz_j otherwise;
<e^i, xi_j> is the Kronecker pairing.  A plain-frame field converts to log
components exactly when its divisor-coordinate coefficients are divisible by
the matching z_i, which is the chart-level meaning of "logarithmic along the
coordinate divisor".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .context import TORUS, VarContext
from .linalg import det_poly
from .poly import Poly, PolyError, divides
from .scalars import Scalar

IndexSet = Tuple[int, ...]

_new = object.__new__


class CalculusError(ValueError):
    pass


class LogVectorField:
    """Derivation sum_i coeffs[i] * d/dz_i over a shared context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: VarContext, coeffs: Sequence[Poly]):
        if len(coeffs) != ctx.n:
            raise CalculusError("field needs %d coefficients" % ctx.n)
        for c in coeffs:
            ctx.check_same(c.ctx)
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(ctx: VarContext) -> "LogVectorField":
        return _field(ctx, (Poly.zero(ctx),) * ctx.n)

    @staticmethod
    def coordinate(ctx: VarContext, name: str) -> "LogVectorField":
        """The plain coordinate field d/d(name)."""
        coeffs = [Poly.zero(ctx)] * ctx.n
        coeffs[ctx.index(name)] = Poly.one(ctx)
        return LogVectorField(ctx, coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "LogVectorField") -> "LogVectorField":
        self.ctx.check_same(other.ctx)
        return _field(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LogVectorField":
        return _field(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "LogVectorField") -> "LogVectorField":
        return self + (-other)

    def scale(self, f: Poly) -> "LogVectorField":
        return _field(self.ctx, tuple(f * a for a in self.coeffs))

    def scale_scalar(self, c: Scalar) -> "LogVectorField":
        return _field(self.ctx, tuple(a.scale(c) for a in self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogVectorField)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def apply(self, f: Poly) -> Poly:
        """The derivation applied to a ring element."""
        self.ctx.check_same(f.ctx)
        acc = Poly.zero(self.ctx)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                acc = acc + a * f.partial(i)
        return acc

    def bracket(self, other: "LogVectorField") -> "LogVectorField":
        """Commutator of derivations, computed coefficientwise in the plain frame."""
        self.ctx.check_same(other.ctx)
        return _field(
            self.ctx,
            tuple(self.apply(b) - other.apply(a) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def log_components(self) -> List[Poly]:
        """Components against the log frame (xi_i = z_i d/dz_i on S, d/dz_j off S).

        Raises CalculusError when a divisor-coordinate coefficient is not
        divisible by its z_i, i.e. the field is not logarithmic along the
        coordinate divisor.
        """
        out = []
        for i, a in enumerate(self.coeffs):
            if not self.ctx.is_divisor_index(i):
                out.append(a)
            elif self.ctx.arena == TORUS:
                out.append(a.mul_var_power(i, -1))
            else:
                ok, q = divides(Poly.variable(self.ctx, self.ctx.names[i]), a)
                if not ok:
                    raise CalculusError(
                        "field is not logarithmic along %s: its @%s coefficient"
                        " is not divisible by %s" % ((self.ctx.names[i],) * 3)
                    )
                out.append(q)
        return out

    def __repr__(self):
        return "LogVectorField(%r)" % (self.coeffs,)


def _field(ctx: VarContext, coeffs: Tuple[Poly, ...]) -> LogVectorField:
    """A LogVectorField over ctx.n coefficients already in ctx, skipping the
    checks of LogVectorField.__init__, which stay for callers from outside."""
    v = _new(LogVectorField)
    v.ctx = ctx
    v.coeffs = coeffs
    return v


def log_frame(ctx: VarContext) -> List[LogVectorField]:
    """The log frame fields: z_i d/dz_i for divisor coordinates, d/dz_j otherwise."""
    frame = []
    for i, name in enumerate(ctx.names):
        coeffs = [Poly.zero(ctx)] * ctx.n
        coeffs[i] = (
            Poly.variable(ctx, name) if ctx.is_divisor_index(i) else Poly.one(ctx)
        )
        frame.append(_field(ctx, tuple(coeffs)))
    return frame


def _merge_sign(a: IndexSet, b: IndexSet):
    """Merge two sorted disjoint index tuples; return (merged, sign) or None on overlap."""
    inversions = 0
    for x in a:
        for y in b:
            if x == y:
                return None
            if y < x:
                inversions += 1
    return tuple(sorted(a + b)), (-1) ** inversions


class LogForm:
    """Exterior form of fixed degree in the log coframe.

    terms maps a sorted index tuple I (|I| = degree) to a nonzero Poly
    coefficient; the form is sum_I c_I e^I.
    """

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx: VarContext, degree: int, terms: Optional[Dict[IndexSet, Poly]] = None):
        if not 0 <= degree <= ctx.n:
            raise CalculusError("degree %d out of range" % degree)
        self.ctx = ctx
        self.degree = degree
        clean: Dict[IndexSet, Poly] = {}
        if terms:
            for I, c in terms.items():
                if c.is_zero():
                    continue
                I = tuple(I)
                if len(I) != degree or list(I) != sorted(set(I)):
                    raise CalculusError("bad index set %r for degree %d" % (I, degree))
                if I and not 0 <= I[0] <= I[-1] < ctx.n:
                    raise CalculusError("index out of range in %r" % (I,))
                ctx.check_same(c.ctx)
                clean[I] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: VarContext, degree: int) -> "LogForm":
        return LogForm(ctx, degree)

    @staticmethod
    def function(f: Poly) -> "LogForm":
        return _form(f.ctx, 0, {} if f.is_zero() else {(): f})

    @staticmethod
    def coframe(ctx: VarContext, name: str) -> "LogForm":
        """The basis 1-form for a coordinate: dz/z on divisor coordinates, dz off."""
        return LogForm(ctx, 1, {(ctx.index(name),): Poly.one(ctx)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, I) -> Poly:
        return self.terms.get(tuple(I), Poly.zero(self.ctx))

    def __add__(self, other: "LogForm") -> "LogForm":
        self.ctx.check_same(other.ctx)
        if self.degree != other.degree:
            raise CalculusError(
                "degree mismatch %d vs %d" % (self.degree, other.degree)
            )
        terms = dict(self.terms)
        for I, c in other.terms.items():
            s = terms.get(I)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(I, None)
            else:
                terms[I] = s
        return _form(self.ctx, self.degree, terms)

    def __neg__(self) -> "LogForm":
        return _form(self.ctx, self.degree, {I: -c for I, c in self.terms.items()})

    def __sub__(self, other: "LogForm") -> "LogForm":
        return self + (-other)

    def scale(self, f: Poly) -> "LogForm":
        if f.is_zero():
            return _form(self.ctx, self.degree, {})
        return _form(self.ctx, self.degree, {I: f * c for I, c in self.terms.items()})

    def scale_scalar(self, c: Scalar) -> "LogForm":
        if c.is_zero():
            return _form(self.ctx, self.degree, {})
        return _form(self.ctx, self.degree, {I: p.scale(c) for I, p in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogForm)
            and self.ctx == other.ctx
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.degree, frozenset(self.terms.items())))

    # -- exterior algebra --------------------------------------------------

    def wedge(self, other: "LogForm") -> "LogForm":
        self.ctx.check_same(other.ctx)
        deg = self.degree + other.degree
        if deg > self.ctx.n:
            return _form(self.ctx, self.ctx.n, {})  # identically zero beyond top degree
        terms: Dict[IndexSet, Poly] = {}
        for I, c in self.terms.items():
            for J, d in other.terms.items():
                m = _merge_sign(I, J)
                if m is None:
                    continue
                K, sign = m
                add = c * d
                if sign < 0:
                    add = -add
                s = terms.get(K)
                s = add if s is None else s + add
                if s.is_zero():
                    terms.pop(K, None)
                else:
                    terms[K] = s
        return _form(self.ctx, deg, terms)

    def d(self) -> "LogForm":
        """Exterior derivative.  The coframe is closed, so d(c e^I) = dc wedge e^I,
        with dc = sum_{i in S} (z_i dc/dz_i) e^i + sum_{j not in S} (dc/dz_j) e^j."""
        if self.degree >= self.ctx.n:
            return _form(self.ctx, min(self.degree + 1, self.ctx.n), {})
        terms: Dict[IndexSet, Poly] = {}
        for I, c in self.terms.items():
            for i in range(self.ctx.n):
                if i in I:
                    continue
                dc = c.log_partial(i) if self.ctx.is_divisor_index(i) else c.partial(i)
                if dc.is_zero():
                    continue
                m = _merge_sign((i,), I)
                K, sign = m
                if sign < 0:
                    dc = -dc
                s = terms.get(K)
                s = dc if s is None else s + dc
                if s.is_zero():
                    terms.pop(K, None)
                else:
                    terms[K] = s
        return _form(self.ctx, self.degree + 1, terms)

    def interior(self, delta: LogVectorField) -> "LogForm":
        """Contraction i_delta in the log pairing <e^i, xi_j> = delta_ij."""
        self.ctx.check_same(delta.ctx)
        if self.degree == 0:
            raise CalculusError("cannot contract a degree-0 form")
        v = delta.log_components()
        terms: Dict[IndexSet, Poly] = {}
        for I, c in self.terms.items():
            for m, idx in enumerate(I):
                comp = v[idx]
                if comp.is_zero():
                    continue
                add = c * comp
                if m % 2:
                    add = -add
                K = I[:m] + I[m + 1 :]
                s = terms.get(K)
                s = add if s is None else s + add
                if s.is_zero():
                    terms.pop(K, None)
                else:
                    terms[K] = s
        return _form(self.ctx, self.degree - 1, terms)

    def lie(self, delta: LogVectorField) -> "LogForm":
        """Lie derivative via Cartan: i_delta d + d i_delta."""
        if self.degree == 0:
            return self.d().interior(delta)
        if self.degree == self.ctx.n:
            # d of a top-degree form vanishes identically
            return self.interior(delta).d()
        return self.d().interior(delta) + self.interior(delta).d()

    def evaluate(self, fields: Sequence[LogVectorField]) -> Poly:
        """Full evaluation eta(delta_1, ..., delta_p)."""
        if len(fields) != self.degree:
            raise CalculusError(
                "degree-%d form evaluated on %d fields" % (self.degree, len(fields))
            )
        cur = self
        for delta in fields:
            cur = cur.interior(delta)
        return cur.coefficient(())

    # -- residues ----------------------------------------------------------

    def residue(self, i: int) -> "LogForm":
        """The residue along z_i = 0 (i a divisor index): write eta = e^i ^ alpha
        + beta with beta free of e^i, return alpha restricted to z_i = 0."""
        if not self.ctx.is_divisor_index(i):
            raise CalculusError("%s is not a divisor coordinate" % self.ctx.names[i])
        if self.degree == 0:
            raise CalculusError("degree-0 forms have no residue")
        terms: Dict[IndexSet, Poly] = {}
        for I, c in self.terms.items():
            if i not in I:
                continue
            m = I.index(i)
            try:
                r = c.substitute_zero(i)
            except PolyError:
                raise CalculusError(
                    "coefficient of e^{%s} cell has a pole in %s beyond the log factor"
                    % (",".join(self.ctx.names[k] for k in I), self.ctx.names[i])
                ) from None
            if r.is_zero():
                continue
            if m % 2:
                r = -r
            terms[I[:m] + I[m + 1 :]] = r
        return _form(self.ctx, self.degree - 1, terms)

    def __repr__(self):
        return "LogForm(deg=%d, %d terms)" % (self.degree, len(self.terms))


def _form(ctx: VarContext, degree: int, terms: Dict[IndexSet, Poly]) -> LogForm:
    """A LogForm over terms already valid for ctx and degree (sorted index
    tuples of that length in range, nonzero coefficients in ctx), skipping
    the checks of LogForm.__init__, which stay for callers from outside."""
    w = _new(LogForm)
    w.ctx = ctx
    w.degree = degree
    w.terms = terms
    return w


def d_of_function(f: Poly) -> LogForm:
    return LogForm.function(f).d()


def res_const(eta: LogForm):
    """Residues of a 1-form along every divisor coordinate, taken iteratively
    in index order (each residue is evaluated with all earlier divisor
    coordinates already set to zero).  Returns (True, [Scalar...]) when every
    residue is constant, else (False, (index, offending Poly))."""
    if eta.degree != 1:
        raise CalculusError("res_const wants a 1-form")
    consts = []
    for i in eta.ctx.divisor:
        c = eta.coefficient((i,))
        for j in eta.ctx.divisor:
            if j > i:
                break
            try:
                c = c.substitute_zero(j)
            except PolyError:
                raise CalculusError(
                    "residue along %s meets a pole in %s"
                    % (eta.ctx.names[i], eta.ctx.names[j])
                ) from None
        s = c.as_constant()
        if s is None:
            return False, (i, c)
        consts.append(s)
    return True, consts


# -- symplectic assembly ----------------------------------------------------

FRAME_LOG = "log"
FRAME_SAITO = "saito"


class DegenerateError(CalculusError):
    def __init__(self, det: Poly):
        super().__init__("form is degenerate: det %r fails the unit test" % det)
        self.det = det


@dataclass(frozen=True)
class SymplecticData:
    """A closed nondegenerate log 2-form with its Gram data on a frame.

    gram is the pairing matrix A_{kl} = omega(frame_k, frame_l) and det_cert
    its determinant, a unit (or a nonzero constant for a Saito frame).
    adjugate is adj(A^T), computed once at assembly from the cofactors of A
    and checked there against A^T * adj == det * I, so the Poisson tensor
    pi = omega^-1 acts on a covector b as adj * b / det with no solve.
    """

    omega: LogForm
    frame: Tuple[LogVectorField, ...]
    gram: tuple  # n x n tuple-of-tuples of Poly
    det_cert: Poly
    adjugate: tuple  # adj(A^T), n x n tuple-of-tuples of Poly
    frame_kind: str

    @property
    def ctx(self) -> VarContext:
        return self.omega.ctx

    @property
    def nondegenerate(self) -> bool:
        return _det_is_unit(self.det_cert, self.frame_kind)


def _det_is_unit(det: Poly, frame_kind: str) -> bool:
    if frame_kind == FRAME_SAITO:
        c = det.as_constant()
        return c is not None and not c.is_zero()
    return det.is_unit_monomial()


def gram_matrix(omega: LogForm, frame: Sequence[LogVectorField]):
    rows = []
    for fk in frame:
        row_form = omega.interior(fk)
        rows.append([row_form.interior(fl).coefficient(()) for fl in frame])
    return rows


def gram_determinant(
    omega: LogForm, frame: Sequence[LogVectorField], frame_kind: str
) -> Tuple[List[List[Poly]], Poly, bool]:
    """The Gram matrix of omega on frame, its determinant and whether omega
    is nondegenerate there: on the log frame the determinant must be a unit
    of the arena ring (unit monomial in the torus arena, unit constant in the
    polynomial arena), on a Saito-type frame a nonzero constant.  A frame
    has one field per coordinate."""
    if len(frame) != omega.ctx.n:
        raise CalculusError("a frame needs %d fields, got %d" % (omega.ctx.n, len(frame)))
    rows = gram_matrix(omega, frame)
    det = det_poly(rows)
    return rows, det, _det_is_unit(det, frame_kind)


def assemble_symplectic(
    omega: LogForm,
    frame: Optional[Sequence[LogVectorField]] = None,
    frame_kind: str = FRAME_LOG,
) -> SymplecticData:
    """Check a closed nondegenerate log 2-form and package its Gram data.

    Nondegeneracy is decided by gram_determinant on the given frame (the log
    frame by default).  Raises on odd dimension, non-closed or degenerate
    input.  The adjugate of A^T is computed and checked here, once, for every
    later Hamiltonian field.
    """
    if omega.degree != 2:
        raise CalculusError("symplectic data needs a 2-form")
    if omega.ctx.n % 2:
        raise CalculusError("chart dimension %d is odd" % omega.ctx.n)
    if not omega.d().is_zero():
        raise CalculusError("form is not a 2-cocycle: d(omega) != 0")
    if frame is None:
        frame = log_frame(omega.ctx)
        frame_kind = FRAME_LOG
    rows, det, nondeg = gram_determinant(omega, frame, frame_kind)
    if not nondeg:
        raise DegenerateError(det)
    return SymplecticData(
        omega=omega,
        frame=tuple(frame),
        gram=tuple(tuple(r) for r in rows),
        det_cert=det,
        adjugate=_adjugate_transpose(rows, det),
        frame_kind=frame_kind,
    )


def _adjugate_transpose(rows: List[List[Poly]], det: Poly) -> tuple:
    """adj(A^T) for the Gram matrix A = rows, from its n^2 cofactors, after
    checking A^T * adj == det * I exactly."""
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            # adj(A^T)_{kl} is the (k, l) cofactor of A
            minor = [[rows[i][j] for j in range(n) if j != l] for i in range(n) if i != k]
            c = det_poly(minor)
            adj[k][l] = -c if (k + l) % 2 else c
    zero = Poly.zero(det.ctx)
    for l in range(n):
        for m in range(n):
            acc = zero
            for k in range(n):
                acc = acc + rows[k][l] * adj[k][m]
            if acc != (det if l == m else zero):
                raise CalculusError("adjugate check A^T * adj == det * I failed")
    return tuple(tuple(r) for r in adj)
