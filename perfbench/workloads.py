"""The three seeded workloads and their known answers.

A workload is an endless sequence of rounds; a round is a list of
operations. An operation is a zero-argument callable plus the answer it must
return, fixed when the input was generated. Known answers come from how the
input was planted (a squared factor, a common factor, an integer scale,
constant residues) or from an identity that holds for every input (Jacobi,
antisymmetry, invariance of omega). They are never computed by logsym: where
an answer is a polynomial, the benchmark multiplies and renders it with its
own small arithmetic below.

Inputs come from two random streams. The seed drives the values: every
coefficient, the translation of the Saito family and the order of the
operations in a round. A second stream, the same for every seed, drives the
shapes: exponents, which variables a factor uses, how many factors a product
has. The cost of a round depends mostly on its shapes, so runs with
different seeds measure the same amount of work and their figures can be
compared. Every round holds each operation kind of its workload in the same
proportion, and the harness stops only at round boundaries, so the mix a run
measures does not depend on how many operations fit in the time. Rounds are
generated one after another, so no input repeats within a run.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import floor
from pathlib import Path

WORKLOADS = ("poisson_identities", "divisor_gcd", "chart_pipeline")

# Rounds in a traced run: a fixed count, so call counts repeat exactly.
TRACE_ROUNDS = {"poisson_identities": 3, "divisor_gcd": 20, "chart_pipeline": 8}


class Op:
    __slots__ = ("kind", "run", "expected")

    def __init__(self, kind, run, expected):
        self.kind = kind
        self.run = run
        self.expected = expected


class Workload:
    """Rounds of one workload. Building it is the set-up: importing logsym,
    parsing sessions, assembling every chart and generating the first round."""

    def __init__(self, make_round):
        self.make_round = make_round
        self.first = make_round(0)

    def rounds(self):
        yield self.first
        for r in itertools.count(1):
            yield self.make_round(r)


def build(name, seed, root):
    values = random.Random("%s/%d" % (name, seed))
    shapes = random.Random("%s/shapes" % name)
    if name == "poisson_identities":
        make_round = _poisson(values, shapes)
    elif name == "divisor_gcd":
        make_round = _divisor_gcd(values, shapes)
    elif name == "chart_pipeline":
        make_round = _chart_pipeline(values, shapes, Path(root))
    else:
        raise ValueError("unknown workload %r" % name)
    return Workload(make_round)


# -- the benchmark's own polynomial arithmetic ------------------------------
# A polynomial is a dict {exponent tuple: int or Fraction}; used to plant
# inputs and to write down known answers without calling logsym.


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _product(factors, n):
    acc = {(0,) * n: 1}
    for f in factors:
        acc = _mul(acc, f)
    return acc


def _grlex(e):
    return (sum(e), e)


def _monic(p):
    """p scaled so its graded-lex leading coefficient is 1."""
    lc = p[max(p, key=_grlex)]
    return {e: Fraction(c) / lc for e, c in p.items()}


def _mono(names, e):
    return "*".join(
        nm if k == 1 else "%s^%d" % (nm, k) for nm, k in zip(names, e) if k
    )


def _expr(p, names):
    """Session-grammar text of p (any valid spelling; the parser expands it)."""
    parts = []
    for e in sorted(p, key=_grlex, reverse=True):
        m = _mono(names, e)
        parts.append("(%s)*%s" % (p[e], m) if m else "(%s)" % p[e])
    return " + ".join(parts) if parts else "0"


def _signed_join(pieces):
    out = []
    for i, (neg, txt) in enumerate(pieces):
        if i == 0:
            out.append(("-" if neg else "") + txt)
        else:
            out.append((" - " if neg else " + ") + txt)
    return "".join(out)


def _coeff_piece(c, tail):
    """Canonical text piece of a rational coefficient c times tail."""
    neg = c < 0
    a = -c if neg else c
    if not tail:
        return neg, str(a)
    return neg, tail if a == 1 else "%s*%s" % (a, tail)


def _canonical(p, names):
    """The canonical printed form of a rational polynomial (leading term first)."""
    p = {e: c for e, c in p.items() if c}
    if not p:
        return "0"
    return _signed_join(
        [_coeff_piece(p[e], _mono(names, e)) for e in sorted(p, key=_grlex, reverse=True)]
    )


def _rand_poly(values, shapes, n, nterms, deg, laurent=()):
    """A polynomial with exactly nterms terms and small rational coefficients.

    Exponents on the indices in laurent may be -1 (torus-arena inputs)."""
    p = {}
    while len(p) < nterms:
        e = tuple(shapes.randint(-1 if i in laurent else 0, deg) for i in range(n))
        p[e] = None
    return {e: Fraction(values.choice((-3, -2, -1, 1, 2, 3)), values.choice((1, 1, 2)))
            for e in p}


def _linear_factors(values, shapes, n, k):
    """k pairwise non-proportional sparse linear factors in n variables, with
    integer coefficients. A factor proportional to an earlier one keeps its
    shape and draws new coefficients; a monomial shape is used once."""
    out, seen, monomials = [], set(), set()
    for _ in range(k):
        while True:
            support = shapes.sample(range(n), shapes.randint(1, min(2, n)))
            exps = [tuple(int(i == j) for j in range(n)) for i in support]
            if shapes.random() < 0.5:
                exps.append((0,) * n)
            if len(exps) > 1 or exps[0] not in monomials:
                break
        if len(exps) == 1:
            monomials.add(exps[0])
        while True:
            f = {e: values.choice((-3, -2, -1, 1, 2, 3)) for e in exps}
            key = frozenset(_monic(f).items())
            if key not in seen:
                break
        seen.add(key)
        out.append(f)
    return out


# -- poisson_identities -----------------------------------------------------


def _poisson(values, shapes):
    from logsym.calculus import LogForm, assemble_symplectic
    from logsym.context import make_context
    from logsym.poisson import bracket, hamiltonian, jacobi_defect, verify_identities
    from logsym.poly import Poly
    from logsym.scalars import Scalar

    def chart(names, divisor, pairs):
        ctx = make_context(names, divisor, "torus")
        w = None
        for a, b in pairs:
            cell = LogForm.coframe(ctx, a).wedge(LogForm.coframe(ctx, b))
            w = cell if w is None else w + cell
        return ctx, assemble_symplectic(w)

    def poly(ctx, p):
        return Poly(ctx, {e: Scalar.from_rational(c) for e, c in p.items()})

    # (chart, divisor-ideal members u and v, term count and degree of inputs,
    # Jacobi triples per round). A round has 22 operations: the nine
    # antisymmetry checks hold the median, and the second 4-variable Jacobi
    # triple puts more samples near the 90th percentile, so neither sits on
    # the edge between two kinds of operation.
    charts = []
    ctx, S = chart(["x", "y"], ["x", "y"], [("x", "y")])
    charts.append((ctx, S, poly(ctx, {(1, 0): 1}), poly(ctx, {(0, 1): 1}), 3, 2, 1))
    ctx, S = chart(["x", "y"], ["y"], [("x", "y")])
    charts.append((ctx, S, poly(ctx, {(0, 1): 1}), poly(ctx, {(0, 2): 2}), 3, 2, 1))
    ctx, S = chart(["x", "y", "z", "w"], ["x", "y", "z", "w"], [("x", "y"), ("z", "w")])
    charts.append((ctx, S, poly(ctx, {(1, 0, 0, 0): 1}), poly(ctx, {(0, 0, 1, 0): 1}), 2, 1, 2))

    def rand(ctx, nterms, deg):
        laurent = [i for i in range(ctx.n) if ctx.laurent_ok(i)]
        return poly(ctx, _rand_poly(values, shapes, ctx.n, nterms, deg, laurent))

    def one_round(r):
        ops = []
        for ctx, S, u, v, nt, dg, triples in charts:
            a, b = rand(ctx, nt, dg), rand(ctx, nt, dg)
            ops.append(Op("identities", lambda S=S, u=u, v=v, a=a, b=b:
                          verify_identities(S, u, v, a, b).core_identities_hold, True))
            for _ in range(triples):
                f, g, k = (rand(ctx, nt, dg) for _ in range(3))
                ops.append(Op("jacobi", lambda S=S, f=f, g=g, k=k:
                              jacobi_defect(S, f, g, k).is_zero(), True))
            for _ in range(3):
                f, g = rand(ctx, nt, dg), rand(ctx, nt, dg)
                ops.append(Op("antisymmetry", lambda S=S, f=f, g=g:
                              (bracket(S, f, g) + bracket(S, g, f)).is_zero(), True))
            for _ in range(2):
                f = rand(ctx, nt, dg)
                ops.append(Op("invariance", lambda S=S, f=f:
                              S.omega.lie(hamiltonian(S, f).delta).is_zero(), True))
        values.shuffle(ops)
        return ops

    return one_round


# -- divisor_gcd ------------------------------------------------------------

SAITO_FAMILY = """\
vars x y z
divisor poly x*y*(x + y)*((z - ({a}))*x + y)
vfield d1 : x*@x + y*@y
vfield d2 : ((z - ({a}))*x + y)*@z
vfield d3 : x^2*@x - y^2*@y - (z - ({a}))*(x + y)*@z
"""

# Most factors in one product, by number of variables. In 3 variables about
# one product of four sparse linear factors in 400 sends check_squarefree
# into a run of minutes, which a timed run cannot absorb; that harder tier
# is left out, like dense quadratic factors.
MAX_FACTORS = {2: 4, 3: 3}


def _planted_product(values, shapes, squared):
    """(n, factors, product): 2 to MAX_FACTORS[n] factors counted with
    multiplicity; a squared product repeats its first factor."""
    n = shapes.choice((2, 3))
    k = shapes.randint(2, MAX_FACTORS[n])
    fs = _linear_factors(values, shapes, n, k - 1 if squared else k)
    return n, fs, _product(fs + fs[:1] if squared else fs, n)


def _divisor_gcd(values, shapes):
    from logsym.context import make_context
    from logsym.divisors import (
        check_squarefree,
        is_coordinate_ncd,
        is_logarithmic,
        saito_check,
        weighted_homogeneous,
    )
    from logsym.poly import Poly, gcd_mv
    from logsym.scalars import Scalar
    from logsym.sessions import parse_session

    ctxs = {n: make_context(["x", "y", "z"][:n], (), "poly") for n in (2, 3)}

    def poly(ctx, p):
        return Poly(ctx, {e: Scalar.from_rational(c) for e, c in p.items()})

    # The z-translated free family: free with det = 1*h and no weights for
    # every a. h is multiplied out here, independently of the session parser.
    x, y = {(1, 0, 0): 1}, {(0, 1, 0): 1}
    family = []
    for _ in range(8):
        a = Fraction(values.randint(-6, 6), values.choice((1, 1, 2, 3)))
        m = parse_session(SAITO_FAMILY.format(a=a))
        last = {(1, 0, 1): 1, (1, 0, 0): -a, (0, 1, 0): 1}
        h = poly(m.ctx, _product([x, y, {**x, **y}, last], 3))
        fields = [m.vfields[k] for k in ("d1", "d2", "d3")]
        family.append((m.divisor_equation(), fields, h))

    def squarefree_op(squared):
        n, fs, planted = _planted_product(values, shapes, squared)
        want = (False, poly(ctxs[n], _monic(fs[0]))) if squared else (True, None)
        return Op("squarefree", lambda h=poly(ctxs[n], planted): check_squarefree(h), want)

    def gcd_op():
        # gcd(f*g1, f*g2) with f of two factors and at most MAX_FACTORS[n]
        # factors on either side
        n = shapes.choice((2, 3))
        fs = _linear_factors(values, shapes, n, 2 * MAX_FACTORS[n] - 2)
        half = MAX_FACTORS[n] - 2
        a = poly(ctxs[n], _product(fs[:2] + fs[2:2 + half], n))
        b = poly(ctxs[n], _product(fs[:2] + fs[2 + half:], n))
        want = poly(ctxs[n], _monic(_product(fs[:2], n)))
        return Op("gcd", lambda a=a, b=b: gcd_mv(a, b), want)

    def ncd_op():
        e = tuple(shapes.choice((0, 1, 1, 2)) for _ in range(3))
        h = poly(ctxs[3], {e: values.choice((-2, -1, 1, 3))})
        want = (True, tuple(i for i in range(3) if e[i])) if max(e) <= 1 else (False, None)
        return Op("ncd", lambda h=h: is_coordinate_ncd(h), want)

    def one_round(r):
        h, fields, planted_h = family[r % len(family)]
        ops = [squarefree_op(squared) for squared in (False, False, True, True)]
        ops += [gcd_op(), gcd_op(), ncd_op()]
        ops += [Op("logarithmic", lambda d=d, h=h: is_logarithmic(d, h)[0], True)
                for d in fields]
        ops.append(Op("saito", lambda f=fields, h=h: _saito_verdict(saito_check(f, h)),
                      (True, planted_h, Scalar.one())))
        ops.append(Op("weights", lambda h=h: weighted_homogeneous(h), None))
        values.shuffle(ops)
        return ops

    return one_round


def _saito_verdict(res):
    return res.free, res.det, res.certificate


# -- chart_pipeline ---------------------------------------------------------


def cli_call(main, argv, stdin_text):
    """One in-process `logsym` call with stdin fed and stdout/stderr captured."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _first_line(out):
    return out.split("\n", 1)[0]


def _text_probe(check):
    """Reduce text output to what its known answer pins: the first line when
    check is a string, else whether the first line starts and ends with the
    (prefix, suffix) pair."""
    if isinstance(check, str):
        return _first_line, check
    prefix, suffix = check

    def probe(out):
        first = _first_line(out)
        return first.startswith(prefix) and first.endswith(suffix)
    return probe, True


def _json_probe(fields):
    def probe(out):
        doc = json.loads(out)
        return doc["exit"], {k: doc.get(k) for k in fields}
    return probe


def _cli_op(main, argv, stdin, probe, want):
    def run():
        code, out = cli_call(main, argv, stdin)
        return code, probe(out)
    return Op(argv[0], run, want)


def _integrality(argv, stdin, m):
    """integrality on (m/T)*dlog(x)^dlog(y): integral exactly when m is an integer."""
    m = Fraction(m)
    if m.denominator == 1:
        n = int(m)
        return (argv, stdin, 0, "integral: period = %d*T over T_{x,y}" % n,
                {"integral": True, "multiples": [{"cycle": "T_{x,y}", "n": n}]})
    return argv, stdin, 1, ("non-integral: period ", ""), {"integral": False}


# the scaled family (m/T)*dlog(x)^dlog(y) shipped in sessions/torus.lsx
TORUS_FAMILY = (("wm2", -2), ("wm1", -1), ("w0", 0), ("w1", 1), ("w2", 2),
                ("wh", Fraction(1, 2)), ("w3h", Fraction(3, 2)))


def _chart_pipeline(values, shapes, root):
    from logsym.calculus import assemble_symplectic
    from logsym.cli import main
    from logsym.sessions import parse_session

    sess = {nm: str(root / "sessions" / (nm + ".lsx")) for nm in ("saito3", "exact", "torus")}
    # Assembling every chart is part of set-up, so that work moved into
    # assembly shows in setup_s; each CLI call still assembles its own.
    assembled = []
    for nm, form in (("exact", "w"), ("torus", "w")):
        with open(sess[nm], encoding="utf-8") as fh:
            assembled.append(assemble_symplectic(parse_session(fh.read()).forms[form]))

    def rational(dens):
        q = values.choice(dens)
        return Fraction(values.randint(-3 * q, 3 * q), q)

    def nonzero():
        r = Fraction(0)
        while r == 0:
            r = rational((1, 2, 3))
        return r

    def fn(names, laurent=()):
        """Session text of a random function with 2 or 3 terms of degree <= 2."""
        p = _rand_poly(values, shapes, len(names), shapes.randint(2, 3), 2, laurent)
        return _expr(p, names)

    # generated charts, each parsed here; the nondegenerate ones assembled
    scaled, residue, closed2, closed4, half, divisor = [], [], [], [], [], []
    for i in range(6):
        m = rational((1, 1, 2))
        scaled.append((m, "vars x y\ndivisor coords x y\n"
                       "form om : (%s)*(1/T)*dlog(x)^dlog(y)\n" % m))
        a, b = rational((1, 2, 3)), rational((1, 2, 3))
        residue.append(((a, b), "vars x y\ndivisor coords x y\n"
                        "conn c : (%s)*dlog(x) + (%s)*dlog(y) + d(%s)\n"
                        % (a, b, fn(["x", "y"]))))
        c = nonzero()
        closed2.append(([(c, "dlog(x)^dlog(y)")], "vars x y\ndivisor coords x y\n"
                        "form om : (%s)*dlog(x)^dlog(y) + d((%s)*dlog(y))\n"
                        % (c, fn(["x", "y"]))))
        c1, c2 = nonzero(), nonzero()
        closed4.append(([(c1, "dlog(x)^dlog(y)"), (c2, "dlog(z)^dlog(w)")],
                        "vars x y z w\ndivisor coords x y z w\n"
                        "form om : (%s)*dlog(x)^dlog(y) + (%s)*dlog(z)^dlog(w)"
                        " + d((%s)*dlog(w))\n" % (c1, c2, fn(["x", "y", "z", "w"]))))
        c = nonzero()
        half.append((c, "vars x y\ndivisor coords y\nform om : (%s)*d(x)^dlog(y)\n"
                     "conn s : (%s)*T*x*dlog(y)\nconn z : 0*dlog(y)\n" % (c, c)))
        n, fs, h = _planted_product(values, shapes, squared=i % 2 == 1)
        names = ["x", "y", "z"][:n]
        witness = _canonical(_monic(fs[0]), names) if i % 2 else None
        divisor.append((witness, "vars %s\ndivisor poly %s\n" % (" ".join(names), _expr(h, names))))
    for kind in (scaled, residue, closed2, closed4, half, divisor):
        for data, text in kind:
            om = parse_session(text).forms.get("om")
            if kind is half or kind is scaled and data != 0:
                assembled.append(assemble_symplectic(om))

    def templates(r):
        """(argv, stdin, exit code, text check, json fields) for one round."""
        def pick(kind):
            return kind[r % len(kind)]

        t = []
        t.append((["check-saito", "--session", sess["saito3"], "--fields", "d1,d2,d3"], None,
                  0, ("free: det = ", " = 1*h"), {"free": True, "certificate": "1"}))
        t.append((["weights", "--session", sess["saito3"]], None,
                  1, "none", {"weighted_homogeneous": False}))
        t.append((["check-divisor", "--session", sess["saito3"]], None,
                  0, "reduced", {"reduced": True}))
        t.append((["integrality", "--session", sess["torus"], "--form", "w"], None,
                  1, "non-integral: period T^2 over T_{x,y}", {"integral": False}))
        name, k = TORUS_FAMILY[values.randrange(len(TORUS_FAMILY))]
        t.append(_integrality(["integrality", "--session", sess["torus"], "--form", name], None, k))
        t.append((["bracket", "--session", sess["torus"], "--form", "w", "--f", "x", "--g", "y"],
                  None, 0, "{f,g} = -x*y", {"bracket": "-x*y"}))
        t.append((["singbracket", "--session", sess["torus"], "--form", "w", "--f", "x",
                   "--g", "y"], None, 0, "{f,g}_sing = -1", {"sing_bracket": "-1"}))
        t.append((["periods", "--session", sess["torus"], "--form", "w"], None, 0,
                  "period T^2 over T_{x,y}",
                  {"periods": [{"cycle": "T_{x,y}", "value": "T^2"}]}))
        t.append((["identities", "--session", sess["torus"], "--form", "w", "--u", "x", "--v", "y",
                   "--a", fn(["x", "y"], (0, 1)), "--b", fn(["x", "y"], (0, 1))], None,
                  0, "hamiltonian of a product: holds", {"all_hold": True}))
        t.append((["dirac-test", "--session", sess["exact"], "--conn", "s",
                   "--f", fn(["x", "y"]), "--g", fn(["x", "y"])], None,
                  0, "holds", {"holds": True}))
        t.append((["prequantize", "--session", sess["exact"]], None,
                  0, "closed: yes", {"prequantizable": True, "connection": "T*x*dlog(y)"}))
        t.append((["check-logsymplectic", "--session", sess["exact"]], None,
                  0, "closed: yes", {"closed": True, "nondegenerate": True}))
        t.append((["curvature", "--session", sess["exact"], "--conn", "s"], None,
                  0, "curvature = T*d(x)^dlog(y)", {"curvature": "T*d(x)^dlog(y)"}))
        t.append((["hamiltonian", "--session", sess["exact"], "--f", "x"], None,
                  0, "delta = -y*@y", {"delta": "-y*@y"}))
        t.append((["symbol", "--session", sess["exact"], "--conn", "s", "--f", "x"], None,
                  0, "symbol = -y*@y", {"symbol": "-y*@y"}))
        t.append((["decompose", "--session", sess["exact"], "--conn", "s", "--vfield", "e1"], None,
                  0, "symbol = y*@y", {"symbol": "y*@y", "multiplier": "-T*x"}))
        t.append((["gauge", "--session", sess["exact"], "--conn", "s", "--tau", "d(x)"], None,
                  0, "sigma = d(x) + T*x*dlog(y)", {"sigma": "d(x) + T*x*dlog(y)"}))
        t.append((["jacobi", "--session", sess["exact"], "--f", fn(["x", "y"]),
                   "--g", fn(["x", "y"]), "--h", fn(["x", "y"])], None,
                  0, "jacobi defect = 0", {"zero": True, "defect": "0"}))
        t.append((["bracket", "--session", sess["exact"], "--f", "nosuchname", "--g", "y"], None,
                  2, "", {"command": "bracket"}))
        # generated sessions, fed on stdin
        m, text = pick(scaled)
        t.append(_integrality(["integrality", "--session", "-", "--form", "om"], text, m))
        period = _canonical({(1,): m}, ["T"])
        t.append((["periods", "--session", "-", "--form", "om"], text, 0,
                  "period %s over T_{x,y}" % period,
                  {"periods": [{"cycle": "T_{x,y}", "value": period}]}))
        (a, b), text = pick(residue)
        res = [_canonical({(): a}, []), _canonical({(): b}, [])]
        t.append((["flat", "--session", "-", "--conn", "c"], text, 0,
                  "flat: residues [%s]" % ", ".join(res), {"flat": True, "residues": res}))
        t.append((["residues", "--session", "-", "--conn", "c"], text, 0,
                  "residue along x = %s" % res[0], {"constant": True, "residues": res}))
        shifts = [-floor(a), -floor(b)]
        t.append((["normalize-residues", "--session", "-", "--conn", "c"], text, 0,
                  "shifts = (%s)" % ", ".join("%+d" % s for s in shifts), {"shifts": shifts}))
        for kind in (closed2, closed4):
            cells, text = pick(kind)
            cls = _signed_join([_coeff_piece(c, cell) for c, cell in cells])
            t.append((["class", "--session", "-", "--form", "om"], text, 0,
                      "class = %s" % cls, {"class": cls}))
        _, text = pick(closed2)
        t.append((["primitive", "--session", "-", "--form", "om"], text, 0,
                  ("primitive = ", ""), {}))
        c, text = pick(half)
        t.append((["dirac-test", "--session", "-", "--conn", "s", "--f", fn(["x", "y"]),
                   "--g", fn(["x", "y"])], text, 0, "holds", {"holds": True}))
        # {x, y} = -y/c, so the zero connection misses curvature T*omega on (x, y)
        t.append((["dirac-test", "--session", "-", "--conn", "z", "--f", "x", "--g", "y"], text,
                  1, ("fails: defect multiplier = ", ""), {"holds": False}))
        br = _canonical({(0, 1): -1 / c}, ["x", "y"])
        t.append((["bracket", "--session", "-", "--f", "x", "--g", "y"], text, 0,
                  "{f,g} = %s" % br, {"bracket": br}))
        t.append((["prequantize", "--session", "-"], text, 0, "closed: yes",
                  {"prequantizable": True}))
        witness, text = pick(divisor)
        if witness is None:
            t.append((["check-divisor", "--session", "-"], text, 0, "reduced",
                      {"reduced": True}))
        else:
            t.append((["check-divisor", "--session", "-"], text, 1,
                      "repeated factor: %s" % witness, {"reduced": False, "witness": witness}))
        return t

    def one_round(r):
        ops = []
        for i, (argv, stdin, code, text_check, fields) in enumerate(templates(r)):
            if (i + r) % 2:
                probe, want = _json_probe(fields), (code, fields)
                argv = argv + ["--format", "json"]
            else:
                probe, want = _text_probe(text_check)
            ops.append(_cli_op(main, argv, stdin, probe, (code, want)))
        values.shuffle(ops)
        return ops

    return one_round
