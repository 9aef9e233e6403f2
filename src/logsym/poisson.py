"""Hamiltonian derivations and the two Poisson brackets of a nondegenerate
closed log 2-form, plus the machine-checkable identity suite.

The Hamiltonian field of f is the X with i_X omega = d(f), and the tilde
field of u the X with i_X omega = du/u.  Both come from the map
alpha -> X, i_X omega = alpha, on log 1-forms, which depends only on the
structure.  Assembly composed it once from the Poisson tensor pi (checked
against A^T * pi == I), as H = Phi^T * pi * F, with F the frame fields' log
components and Phi their plain coefficients, so X's coefficient of d/dx_i
is sum_j H_ij alpha_j over the nonzero H_ij, one poly.dot (the
multiply-accumulate kernel) per row.  No system is solved per call.
Every field is still re-verified through the certificate
i_{delta_f} omega == d(f), on that same d(f), and every tilde field through
i_tilde omega == du/u.  Forms, polynomials and scalars are stored in
canonical form (no zero coefficient is kept, each scalar is reduced), so
equality decides the same statement as the difference being zero without
building that difference.

A HamiltonianResult carries the d(f) its certificate proved equal to
i_{delta_f} omega.  So every bracket is cross-checked without contracting
omega again: omega(delta_g, delta_f) = -omega(delta_f, delta_g) = {f,g} is
the log pairing <d(g), delta_f>, read off the certified d(g) as one
poly.dot, and it must equal the derivation delta_f(g), another.  omega
enters that check through the certificate of delta_g, so it decides the
same statement as comparing omega(delta_g, delta_f) with delta_f(g).

The identity suite computes each bracket, Hamiltonian field and fraction
once per call.  {a,b} is computed on both sides once: their difference is
identity (iii), reported as a defect, and (iv) and the Jacobi defect take
delta_a(b) as {a,b}.  Identity (i) contracts omega with
delta_{u,v} - uv*delta_s, s = {u,v}/(uv), by linearity, as the certified
d({u,v}) - uv*d(s).  The {u,a} of identity (ii) is handed to the Jacobi
defect, and (ii) is one fraction over uv(u+v).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .calculus import LogForm, LogVectorField, SymplecticData, _field, d_of_function
from .linalg import RationalFunction
from .poly import Poly, divides, dot
from .sessions import print_canonical


class PoissonError(ValueError):
    pass


class HamiltonianResult(NamedTuple):
    """The Hamiltonian field delta of f with the 1-form df = d(f), which its
    certificate i_delta omega == d(f) proved equal to i_delta omega; the
    bracket cross-checks read omega(delta, .) from df."""

    f: Poly
    delta: LogVectorField
    df: LogForm


def hamiltonian(S: SymplecticData, f: Poly) -> HamiltonianResult:
    """The unique frame-spanned field with i_delta omega = d(f)."""
    if not S.nondegenerate:
        raise PoissonError("degenerate form has no Hamiltonian fields: det = %s"
                           % print_canonical(S.det_cert))
    S.ctx.check_same(f.ctx)
    df = d_of_function(f)
    delta = _gram_field(S, df)
    if S.omega.interior(delta) != df:
        raise PoissonError("Hamiltonian certificate failed (internal error)")
    return HamiltonianResult(f=f, delta=delta, df=df)


def _gram_field(S: SymplecticData, alpha: LogForm) -> LogVectorField:
    """The field X with i_X omega = alpha, for a log 1-form alpha, as one
    sparse product of the field map stored at assembly with alpha's coframe
    coefficients, a poly.dot per row."""
    terms = alpha.terms
    coeffs = [dot(((h, terms[(j,)]) for j, h in row if (j,) in terms), S.ctx)
              for row in S.field_map]
    return _field(S.ctx, tuple(coeffs))


def _ideal_member(S: SymplecticData, u: Poly, h: Optional[Poly] = None) -> bool:
    """Membership of u in the divisor ideal, in the sense the singular bracket
    needs: with divisor coordinates, a unit monomial with nonnegative
    exponents, one positive; without, divisibility by the declared equation
    h (no h, or a constant one, has no members)."""
    if S.ctx.divisor:
        return u.is_unit_monomial() and not u.is_constant() and min(u.leading()[0]) >= 0
    return not (u.is_zero() or h is None or h.is_constant()) and divides(h, u)[0]


def _exact_ratio(num: Poly, den: Poly, what: str) -> Poly:
    ok, q = divides(den, num)
    if not ok:
        raise PoissonError(
            "%s does not stay in the chart's ring: %s"
            % (what, print_canonical(RationalFunction(num, den)))
        )
    return q


def bracket(S: SymplecticData, f: Poly, g: Poly) -> Poly:
    """{f,g} = -omega(delta_f, delta_g); returned as delta_f(g) after checking
    the two computations agree."""
    return bracket_of_fields(S, hamiltonian(S, f), hamiltonian(S, g))


def bracket_of_fields(
    S: SymplecticData, hf: HamiltonianResult, hg: HamiltonianResult
) -> Poly:
    """{f,g} from the Hamiltonian results of f and g the caller already
    holds, as hamiltonian returned them, after checking its two
    computations agree."""
    via_pairing, via_apply = _bracket_sides(S, hf, hg)
    if via_pairing != via_apply:
        raise PoissonError("bracket consistency failed (internal error)")
    return via_apply


def _bracket_sides(
    S: SymplecticData, hf: HamiltonianResult, hg: HamiltonianResult
) -> Tuple[Poly, Poly]:
    """The two computations of {f,g}: -omega(delta_f, delta_g), read as
    omega(delta_g, delta_f), the log pairing of the certified
    d(g) = i_{delta_g} omega with delta_f; and delta_f(g).  omega enters
    through the certificate hamiltonian(S, g) decided, not here."""
    log = hf.delta.log_components()
    pairing = dot(((c, log[j]) for (j,), c in hg.df.terms.items()), S.ctx)
    return pairing, hf.delta.apply(hg.f)


def _bracket_and_field(
    S: SymplecticData, hf: HamiltonianResult, hg: HamiltonianResult
) -> HamiltonianResult:
    """The Hamiltonian result of {f,g}."""
    return hamiltonian(S, bracket_of_fields(S, hf, hg))


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
    """The field with i_delta omega = du/u, for u a monomial (any nonzero
    coefficient) supported on the divisor coordinates: the u whose du/u is
    a log form, as _dlog_unit decides.  du/u needs no inverse of u, so
    (1 + T)*x on the divisor has a tilde field although it is not a unit.

    Also asserts the relation delta_u = u * tilde(delta_u); delta_u is the
    Hamiltonian field of u when the caller already holds it."""
    if u.is_zero():
        raise PoissonError("zero has no tilde field")
    return _tilde(S, u, _dlog_unit(S, u), delta_u)


def _tilde(
    S: SymplecticData, u: Poly, dlog_u: LogForm, delta_u: Optional[LogVectorField]
) -> LogVectorField:
    """tilde_hamiltonian's field and checks from du/u = dlog_u, which the
    caller already holds."""
    tilde = _gram_field(S, dlog_u)
    if S.omega.interior(tilde) != dlog_u:
        raise PoissonError("tilde certificate failed (internal error)")
    if delta_u is None:
        delta_u = hamiltonian(S, u).delta
    if delta_u != tilde.scale(u):
        raise PoissonError("delta_u != u * tilde_u (internal error)")
    return tilde


def jacobi_defect(S: SymplecticData, f: Poly, g: Poly, k: Poly) -> Poly:
    """{f,{g,k}} + {g,{k,f}} + {k,{f,g}}."""
    hg = hamiltonian(S, g)
    hk = hamiltonian(S, k)
    hf = hamiltonian(S, f)
    return _jacobi(S, hf, hg, hk)


def _jacobi(
    S: SymplecticData,
    hf: HamiltonianResult,
    hg: HamiltonianResult,
    hk: HamiltonianResult,
    inner: Optional[HamiltonianResult] = None,
    fg: Optional[Poly] = None,
) -> Poly:
    """The Jacobi defect from the Hamiltonian results hf, hg, hk of f, g, k;
    inner is the result of {g,k} when the caller already holds it, and fg
    is {f,g} when the caller has already cross-checked it (its field is
    still made here, in the same order).  Each inner bracket's field is made
    once, and every bracket is cross-checked once."""
    hgk = inner or _bracket_and_field(S, hg, hk)
    hkf = _bracket_and_field(S, hk, hf)
    if fg is None:
        fg = bracket_of_fields(S, hf, hg)
    hfg = hamiltonian(S, fg)
    return (
        bracket_of_fields(S, hf, hgk)
        + bracket_of_fields(S, hg, hkf)
        + bracket_of_fields(S, hk, hfg)
    )


class IdentityReport(NamedTuple):
    """Exact defects of the five bracket identities plus Jacobi.

    Identity (ii) compares the product expansion {u,a}/u + {v,a}/v with the
    formal {u+v,a}/(u+v); the quotient generally leaves the ring, so that
    defect is a RationalFunction over uv(u+v), reduced when first read (the
    verdict core_identities_hold never reads it), and is reported as data
    rather than asserted to vanish.  Identity (iii) is the difference of the
    two computations of {a,b}, omega(delta_b, delta_a) read off the
    certified d(b) and delta_a(b), decided here rather than by the
    cross-check other brackets get.
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

    u, v must be monomials with support in the divisor coordinates, so that
    du/u and dv/v are log forms and their tilde fields exist (a
    PoissonError at identity (i) otherwise), and u + v != 0 (a
    PoissonError at identity (ii) otherwise); a, b arbitrary.
    Identity (i) takes s = {u,v}/(uv), which lies in the ring for such u
    and v.  Ten Hamiltonian fields are made and certified, and eight
    brackets cross-checked, each once; {a,b}'s two sides are compared by
    (iii), and delta_a(b) serves (iv) and the Jacobi defect; {u,a} serves
    (ii) and the Jacobi defect; du/u and dv/v are built once, for (i) and
    the tilde fields of (v).
    """
    hu = hamiltonian(S, u)
    hv = hamiltonian(S, v)
    huv = _bracket_and_field(S, hu, hv)
    buv, uv = huv.f, u * v

    # (i)  i_X omega = {u,v}(du/u + dv/v) for X = delta_{u,v} - uv*delta_s,
    # s = {u,v}/(uv); by linearity i_X omega is the certified
    # d({u,v}) - uv*d(s).  The singular bracket's quotient is s when u and v
    # are divisor-ideal members, and names a quotient that leaves the ring
    # as sing_bracket does; a unit monomial off the ideal, such as x^-1 on
    # the divisor, gets {u,v}/(uv) once du/u and dv/v exist
    in_u, in_v = _ideal_member(S, u), _ideal_member(S, v)
    s = _sing_quotient(u, v, in_u, in_v, buv)
    dlog_u, dlog_v = _dlog_unit(S, u), _dlog_unit(S, v)
    if not (in_u and in_v):
        s = _exact_ratio(buv, uv, "{u,v}/(uv)")
    hs = hamiltonian(S, s)
    defect_i = huv.df - hs.df.scale(uv) - (dlog_u + dlog_v).scale(buv)

    # (ii)  {u,a}/u + {v,a}/v - {u+v,a}/(u+v), as one fraction over
    # uv(u+v); u and v are nonzero monomials once (i) has passed
    ha = hamiltonian(S, a)
    bua = bracket_of_fields(S, hu, ha)
    bva = bracket_of_fields(S, hv, ha)
    w = u + v
    bwa = bracket_of_fields(S, hamiltonian(S, w), ha)
    if w.is_zero():
        raise PoissonError("u + v = 0: identity (ii) divides by u + v")
    defect_ii = RationalFunction((bua * v + bva * u) * w - bwa * uv, uv * w)

    # (iii)  {a,b} = delta_a(b); the two sides serve (iv) and Jacobi too
    hb = hamiltonian(S, b)
    ab_pairing, bab = _bracket_sides(S, ha, hb)
    defect_iii = ab_pairing - bab

    # (iv)  [delta_a, delta_b] = delta_{a,b}, {a,b} taken as delta_a(b)
    hab = hamiltonian(S, bab)
    defect_iv = ha.delta.bracket(hb.delta) - hab.delta

    # (v)  delta_{u,v} = uv[tilde_u, tilde_v] + {u,v}(tilde_v + tilde_u)
    tu = _tilde(S, u, dlog_u, hu.delta)
    tv = _tilde(S, v, dlog_v, hv.delta)
    rhs_v = tu.bracket(tv).scale(uv) + (tv + tu).scale(buv)
    defect_v = huv.delta - rhs_v

    return IdentityReport(
        defect_i=defect_i,
        defect_ii=defect_ii,
        defect_iii=defect_iii,
        defect_iv=defect_iv,
        defect_v=defect_v,
        jacobi=_jacobi(S, hu, ha, hb, hab, bua),
    )


def _dlog_unit(S: SymplecticData, u: Poly) -> LogForm:
    """du/u for a monomial u (any nonzero coefficient) with support in the
    divisor coordinates, as a constant-coefficient log 1-form."""
    monomials = u.monomials()
    if len(monomials) != 1:
        raise PoissonError("du/u needs a monomial, got %s" % print_canonical(u))
    (e,) = monomials
    for i, x in enumerate(e):
        if x and not S.ctx.is_divisor_index(i):
            raise PoissonError("du/u leaves the chart's ring for u = %s" % print_canonical(u))
    return LogForm(
        S.ctx,
        1,
        {(i,): Poly.from_int(S.ctx, x) for i, x in enumerate(e) if x},
    )
