"""Logarithmic Cartan calculus on a coordinate chart.

Vector fields are stored with plain-frame coefficients (the coefficient of
each d/dz_i).  Forms are stored in the log coframe adapted to the divisor
coordinates S: the degree-1 basis is e^i = dz_i/z_i for i in S and e^j = dz_j
otherwise.  Working in this coframe makes "logarithmic pole at most" a
property of the representation instead of something to check, and the whole
coframe is closed, so the exterior derivative of a form is just the
derivative of its coefficients wedged in.

The dual log frame is xi_i = z_i*d/dz_i for i in S and d/dz_j otherwise;
<e^i, xi_j> is the Kronecker pairing.  The chart's ring inverts every z_i in
S, so every plain-frame field has log components.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .context import VarContext
from .linalg import det_poly
from .poly import Poly, PolyError, dot
from .scalars import Scalar

IndexSet = Tuple[int, ...]

_new = object.__new__


class CalculusError(ValueError):
    pass


class LogVectorField:
    """Derivation sum_i coeffs[i] * d/dz_i over a shared context.

    A field never changes after it is built, so the first log_components()
    call keeps its log components in _log (None until then) and every later
    contraction with the field reuses them.
    """

    __slots__ = ("ctx", "coeffs", "_log")

    def __init__(self, ctx: VarContext, coeffs: Sequence[Poly]):
        if len(coeffs) != ctx.n:
            raise CalculusError("field needs %d coefficients" % ctx.n)
        for c in coeffs:
            ctx.check_same(c.ctx)
        self.ctx = ctx
        self.coeffs = tuple(coeffs)
        self._log = None

    @staticmethod
    def zero(ctx: VarContext) -> "LogVectorField":
        return _field(ctx, (Poly.zero(ctx),) * ctx.n)

    @staticmethod
    def coordinate(ctx: VarContext, name: str) -> "LogVectorField":
        """The plain coordinate field d/d(name)."""
        coeffs = [Poly.zero(ctx)] * ctx.n
        coeffs[ctx.index(name)] = Poly.one(ctx)
        return _field(ctx, tuple(coeffs))

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
        """The derivation applied to a ring element, sum_i X^i * df/dz_i
        accumulated into one table by poly.dot."""
        self.ctx.check_same(f.ctx)
        return dot(((a, f.partial(i)) for i, a in enumerate(self.coeffs)
                    if not a.is_zero()), self.ctx)

    def bracket(self, other: "LogVectorField") -> "LogVectorField":
        """Commutator of derivations, computed coefficientwise in the plain frame."""
        self.ctx.check_same(other.ctx)
        return _field(
            self.ctx,
            tuple(self.apply(b) - other.apply(a) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def log_components(self) -> List[Poly]:
        """Components against the log frame (xi_i = z_i d/dz_i on S, d/dz_j
        off S): the @z_i coefficient divided by the unit z_i on S.  They are
        computed once per field; each call returns a new list of them."""
        if self._log is None:
            self._log = tuple(
                a.mul_var_power(i, -1) if self.ctx.is_divisor_index(i) else a
                for i, a in enumerate(self.coeffs))
        return list(self._log)

    def __repr__(self):
        return "LogVectorField(%r)" % (self.coeffs,)


def _field(ctx: VarContext, coeffs: Tuple[Poly, ...]) -> LogVectorField:
    """A LogVectorField over ctx.n coefficients already in ctx, skipping the
    checks of LogVectorField.__init__, which stay for callers from outside."""
    v = _new(LogVectorField)
    v.ctx = ctx
    v.coeffs = coeffs
    v._log = None
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
    coefficient; the form is sum_I c_I e^I.  The degree is any integer
    >= 0: past the chart dimension a form has no cells, so it is zero, and
    it keeps its degree.
    """

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx: VarContext, degree: int, terms: Optional[Dict[IndexSet, Poly]] = None):
        if degree < 0:
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
        return _form(ctx, 1, {(ctx.index(name),): Poly.one(ctx)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, I) -> Poly:
        return self.terms.get(tuple(I), Poly.zero(self.ctx))

    def _check_like(self, other: "LogForm"):
        self.ctx.check_same(other.ctx)
        if self.degree != other.degree:
            raise CalculusError(
                "degree mismatch %d vs %d" % (self.degree, other.degree)
            )

    def __add__(self, other: "LogForm") -> "LogForm":
        self._check_like(other)
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
        return self.contract(delta.log_components())

    def contract(self, v: Sequence[Poly]) -> "LogForm":
        """i_delta of this form of degree >= 1 for the field delta whose log
        components are v, for a caller that contracts many forms with it."""
        terms: Dict[IndexSet, Poly] = {}
        for I, c in self.terms.items():
            for m, idx in enumerate(I):
                comp = v[idx]
                if comp.is_zero():
                    continue
                add = c * comp
                K = I[:m] + I[m + 1 :]
                s = terms.get(K)
                if m % 2:
                    s = -add if s is None else s - add
                else:
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
    """d(f) = sum_{i in S} (z_i df/dz_i) e^i + sum_{j not in S} (df/dz_j) e^j,
    the value of LogForm.function(f).d(), built directly."""
    ctx = f.ctx
    terms: Dict[IndexSet, Poly] = {}
    for i in range(ctx.n):
        dc = f.log_partial(i) if ctx.is_divisor_index(i) else f.partial(i)
        if not dc.is_zero():
            terms[(i,)] = dc
    return _form(ctx, 1, terms)


def res_const(eta: LogForm):
    """Residues of a 1-form along every divisor coordinate, each read through
    LogForm.residue.  Returns (True, [Scalar...]) when every residue is
    constant, else (False, (index, offending Poly)) for the first that is
    not."""
    if eta.degree != 1:
        raise CalculusError("res_const wants a 1-form")
    consts = []
    for i in eta.ctx.divisor:
        c = eta.residue(i).coefficient(())
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


class SymplecticData:
    """A closed nondegenerate log 2-form with what its fields read.

    det_cert is the determinant of the Gram matrix A_{kl} = omega(frame_k,
    frame_l) on the frame it was assembled on, a unit (or a nonzero constant
    for a Saito frame).  When the data is built, hand-built data included,
    it decides nondegenerate, whether det_cert passes the unit test of
    frame_kind.

    field_map maps the coframe coefficients alpha_j of a log 1-form alpha to
    the field X with i_X omega = alpha, kept as the (index, entry) pairs of
    the nonzero entries of each row.  Where the frame Poisson tensor pi
    exists, row i gives X's coefficient of d/dx_i.  Where it does not (a
    Saito frame whose constant det is not a unit), row k gives det times X's
    component along frame_k, and frame_entries keeps the nonzero
    coefficients of each frame field for the field to apply after dividing
    by det; it is None otherwise.
    """

    __slots__ = ("omega", "det_cert", "nondegenerate", "field_map", "frame_entries")

    def __init__(self, omega: LogForm, det_cert: Poly, frame_kind: str,
                 field_map: tuple, frame_entries: Optional[tuple] = None):
        self.omega = omega
        self.det_cert = det_cert
        self.nondegenerate = _det_is_unit(det_cert, frame_kind)
        self.field_map = field_map
        self.frame_entries = frame_entries

    @property
    def ctx(self) -> VarContext:
        return self.omega.ctx


def _nonzero_entries(rows) -> tuple:
    """Per row, the (index, entry) pairs of its nonzero entries."""
    return tuple(tuple((i, c) for i, c in enumerate(row) if not c.is_zero())
                 for row in rows)


def _field_map(ctx: VarContext, frame: Sequence[LogVectorField], tensor: tuple,
               logs: tuple, divide: bool) -> tuple:
    """The nonzero entries per row of tensor * F, F = logs, when divide, else
    of Phi^T * tensor * F, Phi the frame fields' plain coefficients."""
    rows = [_row_product(ctx, row, logs) for row in _nonzero_entries(tensor)]
    if not divide:
        phi_t = _nonzero_entries(zip(*(fr.coeffs for fr in frame)))
        rows = [_row_product(ctx, row, rows) for row in phi_t]
    return _nonzero_entries(rows)


def _row_product(ctx: VarContext, entries: tuple, rows) -> List[Poly]:
    """sum_k c * rows[k] over the (k, c) pairs of entries, for square rows,
    one poly.dot per column."""
    return [dot(((c, rows[k][j]) for k, c in entries), ctx) for j in range(len(rows))]


def _det_is_unit(det: Poly, frame_kind: str) -> bool:
    if frame_kind == FRAME_SAITO:
        c = det.as_constant()
        return c is not None and not c.is_zero()
    return det.is_unit_monomial()


def gram_matrix(omega: LogForm, frame: Sequence[LogVectorField]):
    return _gram_rows(omega, _frame_log(omega, frame))


def _frame_log(omega: LogForm, frame: Sequence[LogVectorField]) -> tuple:
    """The log components of each frame field, row k for frame_k."""
    for fr in frame:
        omega.ctx.check_same(fr.ctx)
    return tuple(tuple(fr.log_components()) for fr in frame)


def _gram_rows(omega: LogForm, logs: tuple) -> List[List[Poly]]:
    """A_{kl} = omega(frame_k, frame_l) from the frame's log components,
    evaluated above the diagonal: a 2-form gives A_{lk} = -A_{kl} and a zero
    diagonal exactly.  Any other degree is a CalculusError."""
    if omega.degree != 2:
        raise CalculusError("a Gram matrix needs a 2-form, got degree %d" % omega.degree)
    n = len(logs)
    rows = [[Poly.zero(omega.ctx)] * n for _ in range(n)]
    for k in range(n - 1):
        row_form = omega.contract(logs[k])
        for l in range(k + 1, n):
            a = row_form.contract(logs[l]).coefficient(())
            rows[k][l], rows[l][k] = a, -a
    return rows


def gram_determinant(
    omega: LogForm, frame: Sequence[LogVectorField], frame_kind: str
) -> Tuple[List[List[Poly]], Poly, bool]:
    """The Gram matrix of omega on frame, its determinant and whether omega
    is nondegenerate there: on the log frame the determinant must be a unit
    of the chart's ring (a unit monomial in the divisor coordinates), on a
    Saito-type frame a nonzero constant.  A frame has one field per
    coordinate."""
    return _gram(omega, frame, frame_kind)[1:]


class AlongDivisor(NamedTuple):
    """along_divisor's verdict, the det and the first pole's coordinate."""
    holds: bool
    det: Poly
    pole: Optional[int]


def along_divisor(rows: List[List[Poly]], det: Poly) -> AlongDivisor:
    """Whether a log-frame Gram matrix (rows, det from gram_determinant) is
    nondegenerate along D, not only on U: the entries and det lie in the
    polynomial ring, and det is a unit (is_unit_monomial) there."""
    for p in [a for row in rows for a in row] + [det]:
        i = p.pole()
        if i is not None:
            return AlongDivisor(False, det, i)
    return AlongDivisor(det.in_polynomial_ring().is_unit_monomial(), det, None)


def _gram(omega: LogForm, frame: Sequence[LogVectorField], frame_kind: str):
    """gram_determinant's results after the frame's log components, which
    the Gram matrix is computed from."""
    if len(frame) != omega.ctx.n:
        raise CalculusError("a frame needs %d fields, got %d" % (omega.ctx.n, len(frame)))
    logs = _frame_log(omega, frame)
    rows = _gram_rows(omega, logs)
    det = det_poly(rows)
    return logs, rows, det, _det_is_unit(det, frame_kind)


def assemble_symplectic(
    omega: LogForm,
    frame: Optional[Sequence[LogVectorField]] = None,
    frame_kind: str = FRAME_LOG,
) -> SymplecticData:
    """Check a closed nondegenerate log 2-form and compose its field map.

    Nondegeneracy is decided by gram_determinant on the given frame (the log
    frame by default).  Raises on odd dimension, non-closed or degenerate
    input.  Once per structure, the adjugate adj(A^T) is checked against
    A^T * adj == det * I and, where det is a unit monomial, the Poisson
    tensor pi = adj * det^-1 against A^T * pi == I.  The field map is
    Phi^T * pi * F, Phi the frame fields' plain coefficients and F their log
    components; without pi it is adj * F, applied to the frame after a
    division by det.  Only the map is kept.
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
    logs, rows, det, nondeg = _gram(omega, frame, frame_kind)
    if not nondeg:
        raise DegenerateError(det)
    adj = _adjugate_transpose(rows, det)
    pi = _poisson_tensor(adj, det)
    if pi is None:
        return SymplecticData(omega, det, frame_kind,
                              _field_map(omega.ctx, frame, adj, logs, True),
                              _nonzero_entries(fr.coeffs for fr in frame))
    if not _inverts(rows, pi, Poly.one(det.ctx)):
        raise CalculusError("Poisson tensor check A^T * pi == I failed")
    return SymplecticData(omega, det, frame_kind,
                          _field_map(omega.ctx, frame, pi, logs, False))


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
    if not _inverts(rows, adj, det):
        raise CalculusError("adjugate check A^T * adj == det * I failed")
    return tuple(tuple(r) for r in adj)


def _poisson_tensor(adj: tuple, det: Poly) -> Optional[tuple]:
    """pi = adj * det^-1 when det is a unit monomial, else None."""
    if not det.is_unit_monomial():
        return None
    inv = det.inverse_unit()
    return tuple(tuple(a * inv for a in row) for row in adj)


def _inverts(rows: List[List[Poly]], m, diag: Poly) -> bool:
    """Whether A^T * m == diag * I exactly, for the Gram matrix A = rows."""
    n = len(rows)
    zero = Poly.zero(diag.ctx)
    for l in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                a, b = rows[k][l], m[k][j]
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            if acc != (diag if l == j else zero):
                return False
    return True
