"""First-order logarithmic differential operators on a trivialized rank-1
module, and the prequantization checks built from them.

On a trivialized line module every first-order log operator has the normal
form phi(f*s) = (delta(f) + m*f)*s for a log field delta (the symbol) and a
multiplier m, so operators are stored as the pair (delta, m) and equality is
decidable.  The commutator, the connection operators nabla_delta = (delta,
sigma(delta)), the decomposition phi = nabla_{symbol} + multiplier, the Dirac
prequantum operator Q(f) = nabla_{delta_f} + alpha*f and its bracket defect
all live here.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .calculus import LogForm, LogVectorField, SymplecticData
from .poisson import bracket, hamiltonian
from .poly import Poly
from .scalars import Scalar


class OperatorError(ValueError):
    pass


class LogDiffOp1:
    """Operator f*s -> (delta(f) + mult*f)*s."""

    __slots__ = ("delta", "mult")

    def __init__(self, delta: LogVectorField, mult: Poly):
        delta.ctx.check_same(mult.ctx)
        self.delta = delta
        self.mult = mult

    @property
    def ctx(self):
        return self.delta.ctx

    @staticmethod
    def multiplier(m: Poly) -> "LogDiffOp1":
        return LogDiffOp1(LogVectorField.zero(m.ctx), m)

    def apply(self, f: Poly) -> Poly:
        return self.delta.apply(f) + self.mult * f

    def symbol(self) -> LogVectorField:
        return self.delta

    def __add__(self, other: "LogDiffOp1") -> "LogDiffOp1":
        return LogDiffOp1(self.delta + other.delta, self.mult + other.mult)

    def __sub__(self, other: "LogDiffOp1") -> "LogDiffOp1":
        return LogDiffOp1(self.delta - other.delta, self.mult - other.mult)

    def __neg__(self) -> "LogDiffOp1":
        return LogDiffOp1(-self.delta, -self.mult)

    def commutator(self, other: "LogDiffOp1") -> "LogDiffOp1":
        """[phi1, phi2] = ([delta1, delta2], delta1(m2) - delta2(m1))."""
        return LogDiffOp1(
            self.delta.bracket(other.delta),
            self.delta.apply(other.mult) - other.delta.apply(self.mult),
        )

    def is_zero(self) -> bool:
        return self.delta.is_zero() and self.mult.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogDiffOp1)
            and self.delta == other.delta
            and self.mult == other.mult
        )

    def __repr__(self):
        return "LogDiffOp1(delta=%r, mult=%r)" % (self.delta, self.mult)


def pair_form_field(sigma: LogForm, delta: LogVectorField) -> Poly:
    """Evaluate a 1-form on a field."""
    if sigma.degree != 1:
        raise OperatorError("pairing wants a 1-form")
    return sigma.interior(delta).coefficient(())


def from_connection(sigma: LogForm, delta: LogVectorField) -> LogDiffOp1:
    """The covariant operator nabla_delta = (delta, sigma(delta))."""
    return LogDiffOp1(delta, pair_form_field(sigma, delta))


def decompose(phi: LogDiffOp1, sigma: LogForm) -> Tuple[LogVectorField, Poly]:
    """Split phi = nabla_{symbol(phi)} + m(phi); returns (symbol, m(phi))."""
    m = phi.mult - pair_form_field(sigma, phi.delta)
    return phi.delta, m


def prequantum_op(
    f: Poly, S: SymplecticData, sigma: LogForm, alpha: Optional[Scalar] = None
) -> LogDiffOp1:
    """Q(f) = nabla_{delta_f} + alpha*f, alpha defaulting to the formal 2*pi*i."""
    if alpha is None:
        alpha = Scalar.two_pi_i()
    op = from_connection(sigma, hamiltonian(S, f).delta)
    return LogDiffOp1(op.delta, op.mult + f.scale(alpha))


class DiracReport(NamedTuple):
    holds: bool
    defect: LogDiffOp1  # [Q(f),Q(g)] - Q({f,g})
    predicted_mult: Poly  # K(delta_f, delta_g) - alpha*omega(delta_f, delta_g)


def dirac_check(
    f: Poly,
    g: Poly,
    S: SymplecticData,
    sigma: LogForm,
    alpha: Optional[Scalar] = None,
) -> DiracReport:
    """Whether [Q(f),Q(g)] = Q({f,g}).

    The defect is always the pure multiplier K(delta_f,delta_g) -
    alpha*omega(delta_f,delta_g) with K the curvature of sigma; that identity
    is re-derived here and cross-checked against the direct commutator, so a
    passing check certifies the curvature condition on the pair.
    omega(delta_f,delta_g) is read as -{f,g}, the bracket just
    cross-checked against omega through the certificate of delta_g.
    """
    if alpha is None:
        alpha = Scalar.two_pi_i()
    qf, qg = prequantum_op(f, S, sigma, alpha), prequantum_op(g, S, sigma, alpha)
    fg = bracket(S, f, g)
    defect = qf.commutator(qg) - prequantum_op(fg, S, sigma, alpha)
    fields = [hamiltonian(S, f).delta, hamiltonian(S, g).delta]
    predicted = sigma.d().evaluate(fields) + fg.scale(alpha)
    if not defect.delta.is_zero():
        raise OperatorError("Dirac defect has a field part (internal error)")
    if defect.mult != predicted:
        raise OperatorError("Dirac defect mismatch (internal error)")
    return DiracReport(holds=defect.is_zero(), defect=defect, predicted_mult=predicted)


def atiyah_check(phi: LogDiffOp1, l: LogVectorField):
    """Whether (phi, l) is an admissible Atiyah pair: symbol(phi) == l.

    Returns (True, None) or (False, witness function) where the witness is a
    coordinate on which the two candidate symbols act differently.
    """
    phi.ctx.check_same(l.ctx)
    if phi.delta == l:
        return True, None
    for i, (a, b) in enumerate(zip(phi.delta.coeffs, l.coeffs)):
        if a != b:
            return False, Poly.variable(phi.ctx, phi.ctx.names[i])
    return False, None  # unreachable: unequal fields differ in some coefficient


class SplittingReport(NamedTuple):
    identity_defects: List[LogDiffOp1]  # i(lambda(phi)) + chi(pi(phi)) - phi
    composite_defects: List[Poly]  # lambda(chi(delta))
    holds: bool


def splitting_check(
    sigma: LogForm,
    ops: Sequence[LogDiffOp1],
    fields: Sequence[LogVectorField],
) -> SplittingReport:
    """The two splitting identities for the multiplier/symbol decomposition:
    reinserting m(phi) and nabla_{symbol phi} reassembles phi, and the
    multiplier of a pure connection operator vanishes."""
    id_defects = []
    for phi in ops:
        delta, m = decompose(phi, sigma)
        rebuilt = LogDiffOp1.multiplier(m) + from_connection(sigma, delta)
        id_defects.append(rebuilt - phi)
    comp_defects = []
    for delta in fields:
        _, m = decompose(from_connection(sigma, delta), sigma)
        comp_defects.append(m)
    ok = all(d.is_zero() for d in id_defects) and all(
        m.is_zero() for m in comp_defects
    )
    return SplittingReport(
        identity_defects=id_defects, composite_defects=comp_defects, holds=ok
    )


def cochain_eval(eta: LogForm, fs: Sequence[Poly], S: SymplecticData) -> Poly:
    """K_eta(f_1..f_r) = eta(delta_{f_1}, ..., delta_{f_r})."""
    if len(fs) != eta.degree:
        raise OperatorError(
            "degree-%d cochain wants %d arguments" % (eta.degree, eta.degree)
        )
    deltas = [hamiltonian(S, f).delta for f in fs]
    return eta.evaluate(deltas)


class CochainSpec(NamedTuple):
    """The representable 1-cochains m(f) = theta(delta_f) + c*f."""

    theta: LogForm  # degree 1
    c: Scalar

    def eval(self, f: Poly, S: SymplecticData) -> Poly:
        """m(f)."""
        val = f.scale(self.c)
        if not self.theta.is_zero():
            val = val + pair_form_field(self.theta, hamiltonian(S, f).delta)
        return val


def verify_E_condition(
    mspec: CochainSpec,
    f: Poly,
    g: Poly,
    alpha: Scalar,
    S: SymplecticData,
    sigma: LogForm,
) -> Poly:
    """Defect of the quantization condition on a 1-cochain m:

        delta_g m(f) - delta_f m(g) + m({f,g}) - K(delta_f, delta_g)/alpha

    computed exactly; zero on a pair means Q = nabla_{delta_f} + alpha*m(f)
    brackets correctly on that pair.
    """
    if alpha.is_zero():
        raise OperatorError("alpha must be nonzero")
    df, dg = hamiltonian(S, f).delta, hamiltonian(S, g).delta
    mf, mg = mspec.eval(f, S), mspec.eval(g, S)
    fg = bracket(S, f, g)
    curv_val = sigma.d().evaluate([df, dg])
    return dg.apply(mf) - df.apply(mg) + mspec.eval(fg, S) - curv_val.scale(alpha.inverse())
