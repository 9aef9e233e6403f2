"""Periods, integrality and the Deligne-style residue shifts on the torus.

With both coordinates on the divisor the log coframe is dlog(x), dlog(y) and
the 2-cycle T_{x,y} = {|x| = |y| = 1} has period T^2 against dlog(x)^dlog(y).
T^2 is not an integer multiple of T, so the standard volume form is not
prequantizable here; dividing out one T fixes that exactly when the scale is
an integer.  Closed forms split into a constant class plus an exact part, and
only the class is visible to the periods.

Run from the repository root:  python3 demos/periods_and_classes.py
"""

from fractions import Fraction

from logsym.calculus import LogForm, d_of_function
from logsym.connections import (
    Connection1,
    class_and_primitive,
    integrality_check,
    is_flat,
    normalize_residues,
    periods,
)
from logsym.context import make_context
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import print_canonical

T = Scalar.two_pi_i()


def main():
    ctx = make_context(["x", "y"], ["x", "y"])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))

    print("omega =", print_canonical(w))
    (pair, value), = periods(w)
    print("period over T_{x,y} =", print_canonical(value))
    ok, _ = integrality_check(w)
    print("integral:", ok, " (T^2 is not an integer multiple of T)")

    print()
    print("scaled family (m/T) * dlog(x)^dlog(y):")
    for m in (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(3, 2)):
        scaled = w.scale_scalar(Scalar.from_rational(Fraction(m)) * T.inverse())
        ok, data = integrality_check(scaled)
        verdict = "integral" if ok else "non-integral, period %s" % (
            print_canonical(data[1]))
        print("  m = %4s: %s" % (m, verdict))

    # class + exact split: the primitive certifies the difference
    print()
    u = LogForm.coframe(ctx, "y").scale(x)
    mixed = u.d() + w.scale_scalar(Scalar.from_int(3))
    cls, prim = class_and_primitive(mixed)
    print("mixed form   =", print_canonical(mixed))
    print("class part   =", print_canonical(cls))
    print("primitive    =", print_canonical(prim))
    print("reassembles:", prim.d() + cls == mixed)
    print("periods see only the class:", periods(mixed) == periods(cls))

    # flat connections are exactly the constant-residue ones; normalization
    # shifts residues into [0, 1) without touching the curvature
    print()
    sigma = (LogForm.coframe(ctx, "x").scale_scalar(
        Scalar.from_rational(Fraction(5, 2)))
        + LogForm.coframe(ctx, "y").scale_scalar(Scalar.from_int(-1))
        + d_of_function(x * y))
    conn = Connection1(sigma)
    flat, residues = is_flat(conn)
    print("sigma =", print_canonical(sigma))
    print("flat:", flat, " residues:", [print_canonical(r) for r in residues])
    out, shifts = normalize_residues(conn)
    print("shifts:", shifts)
    print("normalized sigma =", print_canonical(out.sigma))
    print("curvature unchanged:", out.curvature == conn.curvature)


if __name__ == "__main__":
    main()
