"""Walk through the free divisor D = {xy(x+y)((z-2)x+y) = 0} in C^3.

The surface is a union of four planes through the y-axis, one of them tilting
with z.  Three explicit vector fields preserve it, and the determinant of
their coefficient matrix recovers the defining equation on the nose, which is
Saito's criterion for freeness.  The same surface carries no positive weight
vector, so freeness here is not explained by quasi-homogeneity.

Run from the repository root:  python3 demos/free_divisor_tour.py
"""

from logsym.calculus import LogVectorField
from logsym.context import make_context
from logsym.divisors import (
    check_squarefree,
    is_logarithmic,
    saito_check,
    weighted_homogeneous,
)
from logsym.poly import Poly
from logsym.sessions import print_canonical


def main():
    ctx = make_context(["x", "y", "z"], [])
    x, y, z = (Poly.variable(ctx, n) for n in "xyz")
    two = Poly.from_int(ctx, 2)

    h = x * y * (x + y) * ((z - two) * x + y)
    print("divisor: h =", print_canonical(h))

    ok, _ = check_squarefree(h)
    print("squarefree:", ok)

    zero = Poly.zero(ctx)
    d1 = LogVectorField(ctx, [x, y, zero])
    d2 = LogVectorField(ctx, [zero, zero, (z - two) * x + y])
    d3 = LogVectorField(ctx, [x * x, -(y * y), -(z - two) * (x + y)])

    print()
    for name, delta in (("d1", d1), ("d2", d2), ("d3", d3)):
        ok, g = is_logarithmic(delta, h)
        # delta(h) = g*h certifies that delta is tangent to the surface
        print("%s = %s" % (name, print_canonical(delta)))
        print("   logarithmic: %s, delta(h)/h = %s" % (ok, print_canonical(g)))

    res = saito_check([d1, d2, d3], h)
    print()
    print("saito determinant:", print_canonical(res.det))
    print("free:", res.free, " det = %s * h" % print_canonical(res.certificate))

    print()
    w = weighted_homogeneous(h)
    print("weighted homogeneous:", "no" if w is None else w)
    print("(freeness without weights: the interesting case)")

    # contrast: a weighted homogeneous cusp
    ctx2 = make_context(["x", "y"], [])
    cusp = Poly.variable(ctx2, "x") ** 3 + Poly.variable(ctx2, "y") ** 2
    weights, degree = weighted_homogeneous(cusp)
    print("contrast  x^3 + y^2: weights %s, degree %d" % (weights, degree))


if __name__ == "__main__":
    main()
