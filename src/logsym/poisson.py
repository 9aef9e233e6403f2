"""Hamiltonian derivations and the two Poisson brackets of a nondegenerate
closed log 2-form, plus the machine-checkable identity suite.

The Hamiltonian field of f solves the Gram system A^T v = b where A is the
pairing matrix of omega against the chosen frame and b_l = frame_l(f): with
delta = sum_k v_k frame_k, the coefficient of e^l in i_delta omega is
(A^T v)_l, and d(f) has coefficient frame_l(f) there.  No system is solved
per call.  Assembly stored the Poisson tensor pi = adj(A^T) * det^-1,
checked against A^T * pi == I, and the log components F_l of each frame
field.  Per call, a field computes d(f) once, forms b_l = sum_i F_li d(f)_i
over the nonzero F_li, and sets v = pi * b; for a Saito frame whose constant
det is not a unit there is no pi, and v = adj * b is divided by det exactly.
Every field is still re-verified through the certificate
i_{delta_f} omega == d(f), on that same d(f), and every tilde field through
i_tilde omega == du/u.  Forms, polynomials and scalars are stored in
canonical form (no zero coefficient is kept, each scalar is reduced), so
equality decides the same statement as the difference being zero without
building that difference.

The identity suite computes each bracket, Hamiltonian field and fraction
once per call.  {a,b} is computed on both sides once: their difference is
identity (iii), reported as a defect, and (iv) and the Jacobi defect take
delta_a(b) as {a,b}.  The {u,a} of identity (ii) is handed to the Jacobi
defect, and (ii) is one fraction over uv(u+v).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .calculus import LogForm, LogVectorField, SymplecticData, _field, _form, d_of_function
from .context import TORUS
from .divisors import coordinate_divisor
from .linalg import RationalFunction
from .poly import Poly, divides
from .scalars import Scalar
from .sessions import print_canonical


class PoissonError(ValueError):
    pass


class HamiltonianResult(NamedTuple):
    f: Poly
    delta: LogVectorField
    certificate: LogForm  # the zero 1-form: i_delta omega == d(f) was checked


def hamiltonian(S: SymplecticData, f: Poly) -> HamiltonianResult:
    """The unique frame-spanned field with i_delta omega = d(f)."""
    if not S.nondegenerate:
        raise PoissonError("degenerate form has no Hamiltonian fields")
    S.ctx.check_same(f.ctx)
    df = d_of_function(f)
    zero = Poly.zero(S.ctx)
    b = []
    for row in S.frame_log:
        # frame_l(f) is the pairing of d(f) with frame_l's log components
        bl = zero
        for (i,), di in df.terms.items():
            if not row[i].is_zero():
                bl = bl + row[i] * di
        b.append(bl)
    delta = _gram_field(S, b, "Hamiltonian")
    if S.omega.interior(delta) != df:
        raise PoissonError("Hamiltonian certificate failed (internal error)")
    return HamiltonianResult(f=f, delta=delta, certificate=_form(S.ctx, 1, {}))


def _gram_field(S: SymplecticData, b: List[Poly], what: str) -> LogVectorField:
    """sum_k v_k frame_k with A^T v = b: v = pi * b from the Poisson tensor
    stored at assembly, or v_k = (adj * b)_k / det by exact division when
    det is not a unit, added into the field's coefficients only where
    frame_k has a nonzero one.  what names the field in the error raised
    when some v_k is not in the arena ring."""
    pi = S.poisson
    zero = Poly.zero(S.ctx)
    coeffs = [zero] * S.ctx.n
    for k, row in enumerate(S.adjugate if pi is None else pi):
        v = zero
        for a, bl in zip(row, b):
            if not (a.is_zero() or bl.is_zero()):
                v = v + a * bl
        if pi is None:
            ok, q = divides(S.det_cert, v)
            if not ok:
                raise PoissonError(
                    "%s component %d leaves the arena ring: (%s) / (%s)"
                    % (what, k, print_canonical(v), print_canonical(S.det_cert))
                )
            v = q
        for i, c in enumerate(S.frame[k].coeffs):
            if not c.is_zero():
                coeffs[i] = coeffs[i] + v * c
    return _field(S.ctx, tuple(coeffs))


def _ideal_member(S: SymplecticData, u: Poly, h: Optional[Poly] = None) -> bool:
    """Membership of u in the divisor ideal, in the sense the singular bracket
    needs: in the torus arena a unit times a monomial vanishing on some
    divisor component (nonnegative exponents, at least one positive, support
    inside the divisor coordinates); in the polynomial arena literal
    divisibility by h.  A constant h cuts out no divisor, so its ideal has
    no members here."""
    if u.is_zero():
        return False
    if S.ctx.arena == TORUS:
        return (
            u.is_unit_monomial()
            and not u.is_constant()
            and min(u.leading()[0]) >= 0
        )
    if h is None:
        h = coordinate_divisor(S.ctx)
    if h.is_constant():
        return False
    ok, _ = divides(h, u)
    return ok


def _exact_ratio(num: Poly, den: Poly, what: str) -> Poly:
    ok, q = divides(den, num)
    if not ok:
        raise PoissonError(
            "%s does not stay in the arena ring: %s"
            % (what, print_canonical(RationalFunction(num, den)))
        )
    return q


def bracket(S: SymplecticData, f: Poly, g: Poly) -> Poly:
    """{f,g} = -omega(delta_f, delta_g); returned as delta_f(g) after checking
    the two computations agree."""
    return bracket_of_fields(S, hamiltonian(S, f).delta, hamiltonian(S, g).delta, g)


def bracket_of_fields(
    S: SymplecticData, df: LogVectorField, dg: LogVectorField, g: Poly
) -> Poly:
    """{f,g} from fields the caller already holds: df and dg must be the
    Hamiltonian fields of f and g, as hamiltonian returned them."""
    via_omega, via_apply = _bracket_sides(S, df, dg, g)
    if via_omega != via_apply:
        raise PoissonError("bracket consistency failed (internal error)")
    return via_apply


def _bracket_sides(
    S: SymplecticData, df: LogVectorField, dg: LogVectorField, g: Poly
) -> Tuple[Poly, Poly]:
    """The two computations of {f,g}: -omega(df, dg), read as omega(dg, df)
    by antisymmetry, and df(g)."""
    return S.omega.evaluate([dg, df]), df.apply(g)


def _bracket_and_field(
    S: SymplecticData, df: LogVectorField, dg: LogVectorField, g: Poly
) -> Tuple[Poly, LogVectorField]:
    """{f,g} and its Hamiltonian field."""
    fg = bracket_of_fields(S, df, dg, g)
    return fg, hamiltonian(S, fg).delta


def sing_bracket(S: SymplecticData, a: Poly, b: Poly, h: Optional[Poly] = None) -> Poly:
    """The singular bracket: {u,v}/(uv), {u,b}/u, or plain {a,b} according to
    which arguments lie in the divisor ideal.  The asymmetric middle case is
    extended to (a not in I, b in I) by antisymmetry.
    """
    in_a = _ideal_member(S, a, h)
    in_b = _ideal_member(S, b, h)
    return _sing_quotient(a, b, in_a, in_b, bracket(S, a, b))


def _sing_quotient(a: Poly, b: Poly, in_a: bool, in_b: bool, ab: Poly) -> Poly:
    """The singular bracket from the plain one, ab = {a,b}, and the ideal
    membership of a and b."""
    if in_a and in_b:
        return _exact_ratio(ab, a * b, "{u,v}/(uv)")
    if in_a:
        return _exact_ratio(ab, a, "{u,b}/u")
    if in_b:
        return _exact_ratio(ab, b, "{a,v}/v")
    return ab


def tilde_hamiltonian(
    S: SymplecticData, u: Poly, delta_u: Optional[LogVectorField] = None
) -> LogVectorField:
    """The field with i_delta omega = du/u, for u a unit times a monomial in
    the divisor coordinates (the only u whose du/u stays in the arena).

    Also asserts the relation delta_u = u * tilde(delta_u); delta_u is the
    Hamiltonian field of u when the caller already holds it."""
    if S.ctx.arena != TORUS:
        raise PoissonError("tilde fields live in the torus arena")
    if u.is_zero():
        raise PoissonError("zero has no tilde field")
    if not u.is_unit_monomial():
        raise PoissonError("du/u leaves the arena for u = %s" % print_canonical(u))
    dlog_u = _dlog_unit(S, u)
    b = [dlog_u.coefficient((l,)) for l in range(S.ctx.n)]
    tilde = _gram_field(S, b, "tilde")
    if S.omega.interior(tilde) != dlog_u:
        raise PoissonError("tilde certificate failed (internal error)")
    if delta_u is None:
        delta_u = hamiltonian(S, u).delta
    if delta_u != tilde.scale(u):
        raise PoissonError("delta_u != u * tilde_u (internal error)")
    return tilde


def jacobi_defect(S: SymplecticData, f: Poly, g: Poly, k: Poly) -> Poly:
    """{f,{g,k}} + {g,{k,f}} + {k,{f,g}}."""
    dg = hamiltonian(S, g).delta
    dk = hamiltonian(S, k).delta
    df = hamiltonian(S, f).delta
    return _jacobi(S, f, g, k, df, dg, dk)


def _jacobi(
    S: SymplecticData,
    f: Poly,
    g: Poly,
    k: Poly,
    df: LogVectorField,
    dg: LogVectorField,
    dk: LogVectorField,
    inner: Optional[Tuple[Poly, LogVectorField]] = None,
    fg: Optional[Poly] = None,
) -> Poly:
    """The Jacobi defect from the Hamiltonian fields df, dg, dk of f, g, k;
    inner is ({g,k}, its field) when the caller already holds them, and fg
    is {f,g} when the caller has already cross-checked it (its field is
    still made here, in the same order).  Each inner bracket's field is made
    once, and every bracket is cross-checked once."""
    gk, dgk = inner or _bracket_and_field(S, dg, dk, k)
    kf, dkf = _bracket_and_field(S, dk, df, f)
    if fg is None:
        fg = bracket_of_fields(S, df, dg, g)
    dfg = hamiltonian(S, fg).delta
    return (
        bracket_of_fields(S, df, dgk, gk)
        + bracket_of_fields(S, dg, dkf, kf)
        + bracket_of_fields(S, dk, dfg, fg)
    )


class IdentityReport(NamedTuple):
    """Exact defects of the five bracket identities plus Jacobi.

    Identity (ii) compares the product expansion {u,a}/u + {v,a}/v with the
    formal {u+v,a}/(u+v); the quotient generally leaves the ring, so that
    defect is a RationalFunction, normalised once over uv(u+v), and is
    reported as data rather than asserted to vanish.  Identity (iii) is the
    difference of the two computations of {a,b}, omega(delta_b, delta_a)
    and delta_a(b), decided here rather than by the cross-check other
    brackets get.
    """

    defect_i: LogForm  # 1-form
    defect_ii: RationalFunction
    defect_iii: Poly
    defect_iv: LogVectorField
    defect_v: LogVectorField
    jacobi: Poly

    @property
    def core_identities_hold(self) -> bool:
        """(i), (iii), (iv), (v) and Jacobi; (ii) is excluded by design."""
        return (
            self.defect_i.is_zero()
            and self.defect_iii.is_zero()
            and self.defect_iv.is_zero()
            and self.defect_v.is_zero()
            and self.jacobi.is_zero()
        )


def verify_identities(
    S: SymplecticData, u: Poly, v: Poly, a: Poly, b: Poly
) -> IdentityReport:
    """Compute both sides of the five structural identities exactly.

    u, v must be divisor-ideal members (tilde fields exist) with u + v != 0
    (a PoissonError at identity (ii) otherwise); a, b arbitrary.  Ten
    Hamiltonian fields are made and certified, and eight brackets
    cross-checked, each once; {a,b}'s two sides are compared by (iii), and
    delta_a(b) serves (iv) and the Jacobi defect; {u,a} serves (ii) and the
    Jacobi defect.
    """
    du = hamiltonian(S, u).delta
    dv = hamiltonian(S, v).delta
    buv, duv = _bracket_and_field(S, du, dv, v)
    sing_uv = _sing_quotient(u, v, _ideal_member(S, u), _ideal_member(S, v), buv)
    d_sing = hamiltonian(S, sing_uv).delta
    uv = u * v

    # (i)  i_{delta_{u,v} - uv*delta_sing} omega = {u,v}(du/u + dv/v)
    x_field = duv - d_sing.scale(uv)
    lhs_i = S.omega.interior(x_field)
    dlog_sum = _dlog_unit(S, u) + _dlog_unit(S, v)
    defect_i = lhs_i - dlog_sum.scale(buv)

    # (ii)  {u,a}/u + {v,a}/v - {u+v,a}/(u+v), as one fraction over
    # uv(u+v); u and v are nonzero monomials once (i) has passed
    da = hamiltonian(S, a).delta
    bua = bracket_of_fields(S, du, da, a)
    bva = bracket_of_fields(S, dv, da, a)
    s = u + v
    bsa = bracket_of_fields(S, hamiltonian(S, s).delta, da, a)
    if s.is_zero():
        raise PoissonError("u + v = 0: identity (ii) divides by u + v")
    defect_ii = RationalFunction((bua * v + bva * u) * s - bsa * uv, uv * s)

    # (iii)  {a,b} = delta_a(b); the two sides serve (iv) and Jacobi too
    db = hamiltonian(S, b).delta
    ab_omega, bab = _bracket_sides(S, da, db, b)
    defect_iii = ab_omega - bab

    # (iv)  [delta_a, delta_b] = delta_{a,b}, {a,b} taken as delta_a(b)
    dab = hamiltonian(S, bab).delta
    defect_iv = da.bracket(db) - dab

    # (v)  delta_{u,v} = uv[tilde_u, tilde_v] + {u,v}(tilde_v + tilde_u)
    tu = tilde_hamiltonian(S, u, du)
    tv = tilde_hamiltonian(S, v, dv)
    rhs_v = tu.bracket(tv).scale(uv) + (tv + tu).scale(buv)
    defect_v = duv - rhs_v

    return IdentityReport(
        defect_i=defect_i,
        defect_ii=defect_ii,
        defect_iii=defect_iii,
        defect_iv=defect_iv,
        defect_v=defect_v,
        jacobi=_jacobi(S, u, a, b, du, da, db, (bab, dab), bua),
    )


def _dlog_unit(S: SymplecticData, u: Poly) -> LogForm:
    """du/u for a monomial u (any nonzero coefficient, either arena) with
    support in the divisor coordinates, as a constant-coefficient log
    1-form."""
    monomials = u.monomials()
    if len(monomials) != 1:
        raise PoissonError("du/u needs a monomial, got %s" % print_canonical(u))
    (e,) = monomials
    for i, x in enumerate(e):
        if x and not S.ctx.is_divisor_index(i):
            raise PoissonError("du/u leaves the arena for u = %s" % print_canonical(u))
    return LogForm(
        S.ctx,
        1,
        {(i,): Poly.constant(S.ctx, Scalar.from_int(x)) for i, x in enumerate(e) if x},
    )
