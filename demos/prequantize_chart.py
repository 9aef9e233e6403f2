"""The exact chart end to end: from a log symplectic form to the operators.

Chart (x, y) with divisor {y = 0} and omega = dx ^ dy/y.  The form is exact,
omega = d(x dy/y), so T*x*dlog(y) is a connection form whose curvature is
T*omega (T stands for the formal 2*pi*i).  With that connection the operator
Q(f) = nabla_{delta_f} + T*f turns Poisson brackets into commutators exactly;
drop the connection and the defect is the predicted multiplier.

Run from the repository root:  python3 demos/prequantize_chart.py
"""

from logsym.calculus import LogForm, assemble_symplectic
from logsym.connections import prequantize
from logsym.context import make_context
from logsym.operators import dirac_check, prequantum_op
from logsym.poisson import bracket, hamiltonian
from logsym.poly import Poly
from logsym.scalars import Scalar
from logsym.sessions import print_canonical

T = Scalar.two_pi_i()


def main():
    ctx = make_context(["x", "y"], ["y"])
    x, y = Poly.variable(ctx, "x"), Poly.variable(ctx, "y")
    w = LogForm.coframe(ctx, "x").wedge(LogForm.coframe(ctx, "y"))
    print("omega =", print_canonical(w))

    S = assemble_symplectic(w)
    for f in (x, y, x * y):
        res = hamiltonian(S, f)
        print("delta_%-3s = %s" % (print_canonical(f), print_canonical(res.delta)))
    print("{x,y} =", print_canonical(bracket(S, x, y)))

    # the pipeline constructs the connection because the form is exact
    report = prequantize(w)
    print()
    print("prequantizable:", report.prequantizable)
    sigma = report.connection.sigma
    print("sigma =", print_canonical(sigma))
    print("curvature =", print_canonical(report.connection.curvature),
          " (equals T*omega)")

    print()
    qx = prequantum_op(x, S, sigma)
    qy = prequantum_op(y, S, sigma)
    print("Q(x) =", print_canonical(qx.delta), "+ multiplier",
          print_canonical(qx.mult))
    print("Q(y) =", print_canonical(qy.delta), "+ multiplier",
          print_canonical(qy.mult))

    rep = dirac_check(x, y, S, sigma)
    print("[Q(x),Q(y)] == Q({x,y}):", rep.holds)

    # without the connection the commutators miss by -T*omega(delta_f, delta_g)
    rep0 = dirac_check(x, y, S, LogForm.zero(ctx, 1))
    print("same with sigma = 0:", rep0.holds,
          " defect multiplier =", print_canonical(rep0.defect.mult))


if __name__ == "__main__":
    main()
