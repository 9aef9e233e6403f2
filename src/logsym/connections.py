"""Rank-1 logarithmic connections and the prequantization pipeline.

A connection on the trivialized line module is its connection 1-form sigma
(nabla s = sigma (x) s), with curvature d(sigma).  On top of that sit gauge
moves by closed forms, flatness with the residue decomposition, torus periods
and the integrality predicate, an explicit homotopy splitting every closed
form into a constant-coefficient class part plus an exact part, residue
normalization into the fundamental domain of C -> C/Z, and the end-to-end
pipeline that either constructs a connection with curvature T*omega or
reports the exact obstruction.

The homotopy works termwise on eigencomponents: the operators d i_xi + i_xi d
for the log frame fields and d i_E + i_E d for the plain-coordinate Euler
field act diagonally on monomial cells (with the log exponent, respectively
plain-degree-plus-coframe-count, as eigenvalue), commute with d, and so
contract every nonzero eigenvalue piece of a closed form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor
from typing import Dict, List, NamedTuple, Optional, Tuple

from .calculus import (
    FRAME_LOG,
    AlongDivisor,
    CalculusError,
    LogForm,
    LogVectorField,
    along_divisor,
    gram_determinant,
    log_frame,
    res_const,
)
from .context import VarContext
from .divisors import is_coordinate_ncd, weighted_homogeneous
from .poly import Poly
from .scalars import Scalar


class PrequantError(ValueError):
    pass


class NonconstantResidueError(PrequantError):
    """normalize_residues met a residue that is a nonconstant function: the
    connection is well formed, and its residue along ctx.names[index] is
    value, as res_const reports it."""

    def __init__(self, ctx, index: int, value: Poly):
        super().__init__(
            "nonconstant residue along %s cannot be normalized" % ctx.names[index])
        self.index = index
        self.value = value


class Connection1:
    """The connection d + sigma for a log 1-form sigma, with its curvature
    d(sigma) computed when it is built; equal and hashed by sigma."""

    __slots__ = ("sigma", "curvature")

    def __init__(self, sigma: LogForm):
        if sigma.degree != 1:
            raise PrequantError("connection form must have degree 1")
        self.sigma = sigma
        self.curvature = sigma.d()

    def __eq__(self, other) -> bool:
        return isinstance(other, Connection1) and self.sigma == other.sigma

    def __hash__(self):
        return hash(self.sigma)


def _connection(sigma: LogForm, curvature: LogForm) -> Connection1:
    """The Connection1 of the 1-form sigma whose d(sigma) the caller has
    already taken as curvature, skipping Connection1.__init__."""
    conn = object.__new__(Connection1)
    conn.sigma = sigma
    conn.curvature = curvature
    return conn


def gauge(conn: Connection1, tau: LogForm) -> Connection1:
    """Shift the connection form by a closed 1-form; curvature is unchanged
    (checked bit-exactly, not assumed)."""
    if tau.degree != 1:
        raise PrequantError("gauge form must have degree 1")
    if not tau.d().is_zero():
        raise PrequantError("gauge form must be closed")
    out = Connection1(conn.sigma + tau)
    if out.curvature != conn.curvature:
        raise PrequantError("gauge changed the curvature (internal error)")
    return out


def is_flat(conn: Connection1):
    """Flat iff the curvature vanishes.

    When flat, the connection form is decomposed as (constant residues on the
    log coframe) + d(primitive) through the homotopy, and the residue list is
    returned: (True, [Scalar per divisor coordinate]).  Otherwise (False,
    curvature).  The class part's constants are cross-checked against
    res_const, the residues of the form itself, unless some z_i's own
    coefficient has a pole in z_i and that residue does not exist.
    """
    if not conn.curvature.is_zero():
        return False, conn.curvature
    # the zero curvature is d(sigma): sigma is closed, so it splits unchecked
    cls, _, _ = _homotopy(conn.sigma)
    residues = [cls.coefficient((i,)).constant_coefficient() for i in conn.sigma.ctx.divisor]
    try:
        ok, direct = res_const(conn.sigma)
    except CalculusError:
        pass  # a pole in some z_i's own coefficient: no residue to compare
    else:
        # a closed log 1-form has constant residues, the class part's
        if not ok or direct != residues:
            raise PrequantError("residue decomposition mismatch (internal error)")
    return True, residues


# -- periods and integrality ------------------------------------------------


def periods(omega: LogForm) -> List[Tuple[Tuple[int, int], Scalar]]:
    """Period of a closed 2-form over each torus 2-cycle |z_i| = |z_j| = 1,
    i < j divisor coordinates: the iterated residue gives T per log factor,
    so the period is T^2 times the constant Laurent coefficient of the
    e^i^e^j cell.  All other cells integrate to zero."""
    if omega.degree != 2:
        raise PrequantError("periods want a 2-form")
    if not omega.d().is_zero():
        raise PrequantError("periods of a non-closed form are undefined")
    t2 = Scalar.two_pi_i(2)
    out = []
    for i, j in combinations(omega.ctx.divisor, 2):
        c = omega.coefficient((i, j)).constant_coefficient()
        out.append(((i, j), t2 * c))
    return out


def integrality_check(omega: LogForm):
    """Whether every period is an integer multiple of T.

    Returns (True, [(pair, n)]) with the integers, or (False, (pair, period))
    with the first offending period.
    """
    return _integrality(periods(omega))


def _integrality(period_list):
    """integrality_check's verdict on the periods of a form."""
    ints = []
    for pair, p in period_list:
        n = p.integer_times_t()
        if n is None:
            return False, (pair, p)
        ints.append((pair, n))
    return True, ints


# -- homotopy: class part and primitive -------------------------------------


def _euler_plain(ctx: VarContext) -> LogVectorField:
    coeffs = []
    for i, name in enumerate(ctx.names):
        if ctx.is_divisor_index(i):
            coeffs.append(Poly.zero(ctx))
        else:
            coeffs.append(Poly.variable(ctx, name))
    return LogVectorField(ctx, coeffs)


def class_and_primitive(omega: LogForm) -> Tuple[LogForm, LogForm]:
    """Split a closed form as omega = class + d(primitive), with the class
    carrying only constant coefficients on pure log cells.

    Each monomial cell c*z^e e^I is contracted on its own: through
    (1/e_i) i_{xi_i} for the first divisor coordinate i with e_i != 0, else
    through (1/N) i_{Euler} when its plain degree plus its number of plain
    coframe factors N is positive; the remaining cells are exactly the class
    part.  Contraction is linear and the cells of one eigencomponent share
    its pivot and eigenvalue, so this is the homotopy of the module
    docstring.  The identity d(primitive) + class == omega is verified
    before returning.
    """
    if omega.degree < 1:
        raise PrequantError("homotopy wants degree >= 1")
    if not omega.d().is_zero():
        raise PrequantError("form is not closed")
    cls, prim, _ = _homotopy(omega)
    return cls, prim


def _homotopy(omega: LogForm) -> Tuple[LogForm, LogForm, LogForm]:
    """class_and_primitive's split of a form already known to be closed,
    with d(primitive), which its check took."""
    ctx = omega.ctx
    plain = [i for i in range(ctx.n) if not ctx.is_divisor_index(i)]
    frame = log_frame(ctx)
    euler = _euler_plain(ctx)
    # the log components of each pivot's field (None: the Euler field)
    components: Dict[Optional[int], List[Poly]] = {}
    cls_terms: Dict[tuple, Poly] = {}
    prim = LogForm.zero(ctx, omega.degree - 1)
    for I, c in omega.terms.items():
        for e, mono in c.monomials().items():
            pivot = next((i for i in ctx.divisor if e[i]), None)
            if pivot is not None:
                field, weight = frame[pivot], e[pivot]
            else:
                field = euler
                weight = sum(e[i] for i in plain) + sum(1 for i in I if i in plain)
            if weight:
                if pivot not in components:
                    components[pivot] = field.log_components()
                cell = LogForm(ctx, omega.degree, {I: mono})
                inv = Scalar.from_rational(Fraction(1, weight))
                prim = prim + cell.contract(components[pivot]).scale_scalar(inv)
            else:
                cls_terms[I] = mono  # e = 0: one constant per pure log cell
    cls = LogForm(ctx, omega.degree, cls_terms)
    dprim = prim.d()
    if dprim + cls != omega:
        raise PrequantError("homotopy verification failed (internal error)")
    return cls, prim, dprim


# -- residue normalization --------------------------------------------------


def normalize_residues(conn: Connection1) -> Tuple[Connection1, List[int]]:
    """Shift each residue by an integer so its rational real part lands in
    [0, 1) (the standard section of C -> C/Z in this scalar model).

    The residues are read once, through res_const.  They must be constants
    with T-power 0: a nonconstant one raises NonconstantResidueError, and any
    other refusal a PrequantError.  Curvature is unchanged since integer
    multiples of the log coframe are closed.
    """
    ctx = conn.sigma.ctx
    ok, data = res_const(conn.sigma)
    if not ok:
        raise NonconstantResidueError(ctx, *data)
    for i, r in zip(ctx.divisor, data):
        if set(r.terms) - {0}:
            raise PrequantError(
                "residue along %s is not a T-power-0 rational in this model"
                % ctx.names[i]
            )
    return _shift_residues(conn, [_shift(r) for r in data])


def _normalize_residues_soft(conn: Connection1) -> Tuple[Connection1, List[int]]:
    """normalize_residues for any connection: each residue moves by the shift
    of its constant term, and by 0 where it has a pole, so connections with
    function-valued residues pass through untouched."""
    ctx = conn.sigma.ctx
    shifts = []
    for i in ctx.divisor:
        try:
            res_form = conn.sigma.residue(i)
        except CalculusError:
            shifts.append(0)
            continue
        shifts.append(_shift(res_form.coefficient(()).constant_coefficient()))
    return _shift_residues(conn, shifts)


def _shift(r: Scalar) -> int:
    """The one shift rule: -floor of the real part of the T^0 term of r, 0
    when r has none."""
    pair = r.terms.get(0)
    return -floor(pair[0]) if pair else 0


def _shift_residues(conn: Connection1, shifts: List[int]) -> Tuple[Connection1, List[int]]:
    """conn plus shifts[k]*dlog along the k-th divisor coordinate; the
    curvature must not change."""
    ctx = conn.sigma.ctx
    tau_terms = {
        (i,): Poly.from_int(ctx, s)
        for i, s in zip(ctx.divisor, shifts) if s
    }
    out = Connection1(conn.sigma + LogForm(ctx, 1, tau_terms))
    if out.curvature != conn.curvature:
        raise PrequantError("normalization changed the curvature (internal error)")
    return out, shifts


# -- the pipeline -----------------------------------------------------------


class PrequantReport(NamedTuple):
    closed: bool
    nondegenerate: bool
    along: Optional[AlongDivisor]  # None without divisor coordinates
    even_dim: bool
    periods: List[Tuple[Tuple[int, int], Scalar]]
    integral: Optional[bool]
    witness: Optional[Tuple[Tuple[int, int], Scalar]]
    class_part: Optional[LogForm]
    primitive: Optional[LogForm]
    connection: Optional[Connection1]
    residues: List[Tuple[int, Poly]]
    normalized_shifts: List[int]
    obstruction: Optional[str]
    lct_caveat: str

    @property
    def prequantizable(self) -> Optional[bool]:
        if not (self.closed and self.even_dim and self.nondegenerate):
            return False
        return self.integral


def prequantize(omega: LogForm, divisor_h: Optional[Poly] = None) -> PrequantReport:
    """Run the full chart-level pipeline on a candidate log 2-form.

    Checks closedness, nondegeneracy (log-frame Gram determinant a unit of the
    chart's ring, and along D by along_divisor with divisor coordinates),
    even chart dimension, periods and their integrality, then splits
    T*omega into class + d(primitive).  d(omega) is taken once, by periods;
    the split does not test T*omega again, and the d(primitive) its check
    took is the connection's curvature.  When the class part vanishes the
    primitive is an actual connection form with curvature T*omega and is
    returned as it is (its residues have no constant term, so every shift
    is 0); when it is nonzero but integral, the verdict is positive but the
    chart construction stops at the obstruction note; otherwise the first
    non-integral period is the witness.
    """
    ctx = omega.ctx
    if omega.degree != 2:
        raise PrequantError("prequantization wants a 2-form")
    even = ctx.n % 2 == 0
    rows, det, nondeg = gram_determinant(omega, log_frame(ctx), FRAME_LOG)
    period_list: List[Tuple[Tuple[int, int], Scalar]] = []
    integral: Optional[bool] = None
    witness = None
    cls = prim = None
    connection = None
    residues: List[Tuple[int, Poly]] = []
    shifts: List[int] = []
    obstruction = None
    closed = True
    try:
        period_list = periods(omega)
    except PrequantError:  # its one refusal left, the degree checked: d(omega) != 0
        closed = False
    if closed:
        ok, data = _integrality(period_list)
        integral = ok
        if not ok:
            witness = data
        t_omega = omega.scale_scalar(Scalar.two_pi_i())
        cls, prim, dprim = _homotopy(t_omega)
        if cls.is_zero() and nondeg and even:
            conn = _connection(prim, dprim)
            if conn.curvature != t_omega:
                raise PrequantError("pipeline curvature mismatch (internal error)")
            # every monomial of the homotopy primitive has a nonzero
            # exponent, so each residue's constant term is 0 and the one
            # shift rule would move nothing
            connection = conn
            shifts = [0] * len(ctx.divisor)
            for i in ctx.divisor:
                try:
                    residues.append(
                        (i, connection.sigma.residue(i).coefficient(()))
                    )
                except CalculusError:
                    continue
        elif not cls.is_zero():
            if integral:
                obstruction = (
                    "class part nonzero: a chart connection exists only for exact "
                    "forms; the integral class extends by the normal-crossing "
                    "extension theory, chart gluing out of scope"
                )
            else:
                obstruction = "non-integral period obstructs prequantization"
    else:
        obstruction = "form is not closed"
    if closed and not nondeg and obstruction is None:
        obstruction = "form is degenerate on this chart"
    return PrequantReport(
        closed=closed,
        nondegenerate=nondeg,
        along=along_divisor(rows, det) if ctx.divisor else None,
        even_dim=even,
        periods=period_list,
        integral=integral,
        witness=witness,
        class_part=cls,
        primitive=prim,
        connection=connection,
        residues=residues,
        normalized_shifts=shifts,
        obstruction=obstruction,
        lct_caveat=_lct_note(ctx, divisor_h),
    )


def _lct_note(ctx: VarContext, h: Optional[Poly]) -> str:
    if h is None:
        if ctx.divisor:
            return (
                "divisor is the coordinate normal crossing %s: chart "
                "hypotheses for comparing log and complement cohomology hold"
                % " * ".join(ctx.names[i] for i in ctx.divisor)
            )
        return "no divisor declared: plain de Rham chart"
    ok, _ = is_coordinate_ncd(h)
    if ok:
        return (
            "divisor is a coordinate normal crossing: chart hypotheses for "
            "comparing log and complement cohomology hold"
        )
    wh = weighted_homogeneous(h)
    if wh is not None:
        w, d = wh
        # the comparison theorem for free divisors wants local
        # quasi-homogeneity (Castro-Jimenez, Narvaez-Macarro and Mond,
        # Trans. AMS 348, 1996); weights at the origin do not give it
        return (
            "chart equation is weighted homogeneous (weights %s, degree %d); "
            "comparison of log and complement cohomology undecided: it needs "
            "a free, locally quasi-homogeneous divisor, which is not decided "
            "here; verdicts refer to the log complex"
            % (",".join(str(x) for x in w), d)
        )
    return (
        "chart equation is not weighted homogeneous: comparison of log and "
        "complement cohomology unverified; verdicts refer to the log complex"
    )
