"""Session text format: parser, evaluator, canonical printer.

The load-bearing property is the round trip print(parse(x)) == x on canonical
text, plus parser totality (never an uncaught crash, always a positioned
error) and the precedence rules that were easy to get wrong by hand:
^ binds tighter than unary minus, associates left, and wedges forms.
"""

import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsym.calculus import CalculusError, LogForm, LogVectorField
from logsym.cli import main
from logsym.context import make_context
from logsym.poly import Poly, PolyError
from logsym.scalars import Scalar
from logsym.sessions import (
    MAX_NESTING,
    Evaluator,
    KindError,
    ParseError,
    SessionError,
    _coerce_def,
    _kind_name,
    _tokenize,
    eval_in_session,
    parse_session,
    print_canonical,
    print_session,
)
from conftest import (
    rand_ctx,
    rand_form,
    rand_log_field,
    rand_poly,
    rand_scalar,
)

BASE = """\
vars x y
divisor coords y
func f : x^2 + y
form w : d(x)^dlog(y)
conn s : T*x*dlog(y)
"""


def test_parse_base_session():
    m = parse_session(BASE)
    assert m.ctx.names == ("x", "y")
    assert m.ctx.divisor == (1,)
    assert [k for k, _ in m.order] == ["func", "form", "conn"]
    x, y = Poly.variable(m.ctx, "x"), Poly.variable(m.ctx, "y")
    assert m.funcs["f"] == x * x + y
    ey = LogForm.coframe(m.ctx, "y")
    assert m.forms["w"] == LogForm.coframe(m.ctx, "x").wedge(ey)
    assert m.conns["s"].sigma == ey.scale(x.scale(Scalar.two_pi_i()))


def test_session_round_trip_is_fixed_point():
    text = print_session(parse_session(BASE))
    again = print_session(parse_session(text))
    assert text == again


def test_arena_line_is_refused():
    """The arena switch is removed: a chart inverts exactly its divisor
    coordinates, and a session that still names an arena is refused, not
    read with verdicts that moved."""
    m = parse_session("vars x y\ndivisor coords x\n")
    assert m.ctx.divisor == (0,)
    assert eval_in_session(m, "x^-1") == Poly.variable(m.ctx, "x") ** -1
    for line in ("arena torus", "arena poly", "arena"):
        with pytest.raises(SessionError, match="line 2, col 1: the arena line is removed"):
            parse_session("vars x y\n%s\ndivisor coords x\n" % line)
    m = parse_session("vars x y\ndivisor poly x*y + y^3\n")
    assert m.ctx.divisor == ()
    x, y = Poly.variable(m.ctx, "x"), Poly.variable(m.ctx, "y")
    assert m.divisor_poly == x * y + y ** 3
    assert m.divisor_equation() == x * y + y ** 3


def test_divisor_equation_from_coords():
    m = parse_session("vars x y\ndivisor coords x y\n")
    x, y = Poly.variable(m.ctx, "x"), Poly.variable(m.ctx, "y")
    assert m.divisor_equation() == x * y
    assert parse_session("vars x\n").divisor_equation() is None


def test_precedence():
    m = parse_session("vars x y\n")
    x = Poly.variable(m.ctx, "x")
    # unary minus binds looser than ^
    assert eval_in_session(m, "-x^2") == -(x * x)
    assert eval_in_session(m, "(-x)^2") == x * x
    # ^ associates left, including in towers; numerals are constant functions
    assert eval_in_session(m, "2^3^2") == Poly.from_int(m.ctx, 64)
    # exponents may carry their own sign
    assert eval_in_session(m, "2^-1") == Poly.constant(m.ctx, Scalar.from_rational(Fraction(1, 2)))
    assert eval_in_session(m, "2*x^2") == x * x + x * x
    assert eval_in_session(m, "1 - 2 - 3") == Poly.from_int(m.ctx, -4)
    assert eval_in_session(m, "12/3/2") == Poly.from_int(m.ctx, 2)


def test_laurent_power_evaluation():
    m = parse_session("vars x y\ndivisor coords y\n")
    y = Poly.variable(m.ctx, "y")
    assert eval_in_session(m, "y^-1 * y") == Poly.one(m.ctx)
    with pytest.raises(KindError):
        eval_in_session(m, "x^-1")


def test_wedge_via_power_operator():
    m = parse_session(BASE)
    w = eval_in_session(m, "d(x)^dlog(y)")
    assert w == m.forms["w"]
    # form*form is refused; the message points at ^
    with pytest.raises(KindError):
        eval_in_session(m, "w * w")
    with pytest.raises(KindError):
        eval_in_session(m, "w ^ 2")


def test_connection_names_evaluate_to_their_form():
    m = parse_session(BASE)
    assert eval_in_session(m, "s") == m.conns["s"].sigma
    assert eval_in_session(m, "s + d(f)") == m.conns["s"].sigma + eval_in_session(
        m, "d(f)"
    )


def test_division_restricted_to_units():
    m = parse_session("vars x y\ndivisor coords y\n")
    y = Poly.variable(m.ctx, "y")
    assert eval_in_session(m, "x / 2") == Poly.variable(m.ctx, "x").scale(
        Scalar.from_int(2).inverse()
    )
    assert eval_in_session(m, "x / T") == Poly.variable(m.ctx, "x").scale(
        Scalar.two_pi_i().inverse()
    )
    assert eval_in_session(m, "x / y") == Poly.variable(m.ctx, "x").mul_var_power(1, -1)
    with pytest.raises(KindError):
        eval_in_session(m, "1 / (x + y)")
    with pytest.raises(KindError):
        eval_in_session(m, "1 / x")  # x is not invertible off the divisor


def test_dlog_needs_divisor_coordinate():
    m = parse_session("vars x y\ndivisor coords y\n")
    with pytest.raises(SessionError):
        eval_in_session(m, "dlog(x)")
    ey = eval_in_session(m, "dlog(y)")
    assert ey == LogForm.coframe(m.ctx, "y")


def test_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_session("vars x y\nfunc f : x +\n")
    assert e.value.line == 2 and e.value.col >= 12
    with pytest.raises(SessionError) as e:
        parse_session("vars x y\nvars z\n")
    assert e.value.line == 2
    with pytest.raises(SessionError) as e:
        parse_session("vars x T\n")
    assert e.value.line == 1
    with pytest.raises(SessionError) as e:
        parse_session("vars x y\nfunc f : x\nfunc f : y\n")
    assert e.value.line == 3
    with pytest.raises(SessionError) as e:
        parse_session("vars x y\ndivisor coords z\n")
    assert e.value.line == 2
    m = parse_session("vars x y\n")
    with pytest.raises(KindError) as e:
        eval_in_session(m, "x + d(x)")
    assert e.value.line == 1


def test_form_degree_mismatch_names_the_operation():
    m = parse_session("vars x y\n")
    for op, verb in (("+", "add"), ("-", "subtract")):
        with pytest.raises(KindError) as e:
            eval_in_session(m, "d(x) %s d(x)^d(y)" % op)
        assert e.value.message == "cannot %s forms of degree 1 and 2" % verb


def test_unknown_kind_lines_rejected():
    with pytest.raises(SessionError):
        parse_session("vars x\nshape q : x\n")
    with pytest.raises(SessionError):
        parse_session("vars x\narena torus\n")
    with pytest.raises(SessionError):
        parse_session("divisor coords x\n")


def test_comments_and_blank_lines():
    m = parse_session("# header\nvars x y\n\n  # indented comment\nfunc g : x*y\n")
    assert "g" in m.funcs


def _round_trip(m, obj):
    text = print_canonical(obj)
    back = eval_in_session(m, text)
    if hasattr(obj, "sigma"):
        obj = obj.sigma
    if isinstance(obj, LogForm) and obj.degree == 0:
        # degree-0 forms print as their coefficient and come back as one
        obj = obj.coefficient(())
    assert back == obj, text
    assert print_canonical(back) == text
    return text


def test_round_trip_random_values():
    rng = random.Random(801)
    session_cache = {}
    for _ in range(250):
        ctx = rand_ctx(rng, nmax=3)
        key = (ctx.names, ctx.divisor)
        if key not in session_cache:
            lines = ["vars " + " ".join(ctx.names)]
            if ctx.divisor:
                lines.append(
                    "divisor coords " + " ".join(ctx.names[i] for i in ctx.divisor)
                )
            session_cache[key] = parse_session("\n".join(lines) + "\n")
        m = session_cache[key]
        kind = rng.randrange(4)
        if kind == 0:
            obj = Poly.constant(m.ctx, rand_scalar(rng))
        elif kind == 1:
            obj = rand_poly(m.ctx, rng, deg=3, terms=3)
        elif kind == 2:
            fld = rand_log_field(m.ctx, rng, deg=2)
            text = print_canonical(fld)
            # fields are printed in the plain frame with @ markers
            assert "@" in text
            continue
        else:
            # past the top degree a form is zero and keeps its degree
            obj = rand_form(m.ctx, rng, rng.randint(0, m.ctx.n + 2), deg=2, cells=2)
        _round_trip(m, obj)


def test_forms_past_the_top_degree_keep_their_degree():
    """d of a top-degree form, a wedge past the top degree and the curvature
    of a 1-dimensional connection are zero forms of the degree they have:
    they print as such and read back, and a sum with a form of another
    degree is refused."""
    m = parse_session("vars x y\ndivisor coords x y\nform w : dlog(x)^dlog(y)\n")
    for text in ("d(w)", "d(x)^d(y)^d(x)"):
        v = eval_in_session(m, text)
        assert v == LogForm.zero(m.ctx, 3)
        assert _round_trip(m, v) == "0*dlog(x)^dlog(y)^dlog(x)"
    with pytest.raises(KindError) as e:
        eval_in_session(m, "w + d(w)")
    assert e.value.message == "cannot add forms of degree 2 and 3"
    line = parse_session("vars x\ndivisor coords x\nconn c : x*dlog(x)\n")
    curvature = line.conns["c"].curvature
    assert curvature == LogForm.zero(line.ctx, 2)
    assert _round_trip(line, curvature) == "0*dlog(x)^dlog(x)"


def test_zero_values_print_readably():
    m = parse_session(BASE)
    z = Poly.zero(m.ctx)
    assert print_canonical(z) == "0"
    from logsym.calculus import LogVectorField

    assert print_canonical(LogVectorField.zero(m.ctx)) == "0*@x"
    assert print_canonical(LogForm.zero(m.ctx, 2)) == "0*d(x)^dlog(y)"
    # a chart with no coordinates has no cell or field to print
    assert print_canonical(LogForm.zero(make_context([]), 1)) == "0"
    assert print_canonical(LogVectorField.zero(make_context([]))) == "0"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_totality(text):
    try:
        parse_session(text)
    except SessionError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xy2T I+-*/^()@d logfunc:, \n", max_size=40))
def test_parser_totality_dense(text):
    try:
        parse_session("vars x y\nfunc q : " + text + "\n")
    except SessionError:
        pass


# -- the scanner against its character-loop reference -----------------------


def _reference_tokenize(text, lineno):
    """The scanner as a character loop: ASCII digits and letters, spaces and
    tabs skipped, and a "#" ending the text, newlines included."""

    def is_digit(c):
        return "0" <= c <= "9"

    def is_word(c):
        return c == "_" or "a" <= c <= "z" or "A" <= c <= "Z" or is_digit(c)

    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if is_digit(c):
            j = i
            while j < n and is_digit(text[j]):
                j += 1
            out.append(("num", (lineno, col), int(text[i:j])))
            i = j
        elif is_word(c) and not is_digit(c):
            j = i
            while j < n and is_word(text[j]):
                j += 1
            out.append(("ident", (lineno, col), text[i:j]))
            i = j
        elif c in "+-*/^():,@":
            out.append(("sym", (lineno, col), c))
            i += 1
        else:
            raise ParseError(lineno, col, "a token", repr(c))
    out.append(("end", (lineno, len(text) + 1), ""))
    return out


def _scan(tokenize, text):
    try:
        return tokenize(text, 7)
    except ParseError as e:
        return ("error", e.line, e.col, e.expected, e.found)


# ASCII and non-ASCII digits and letters, every symbol, blanks, comments,
# line breaks and characters the scanner rejects
SCANNER_ALPHABET = "09x_Zd+-*/^():,@ \t#\n\r$.\u0663\u00b2\u00e9\uff11"


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(alphabet=SCANNER_ALPHABET, max_size=30),
                 st.text(max_size=30)))
def test_scanner_matches_reference(text):
    assert _scan(_tokenize, text) == _scan(_reference_tokenize, text)


def test_scanner_edge_cases():
    for text in ("", "#", "x # c\ny", "a\tb", "x\r", "\u0663", "12ab_3", "9" * 40):
        assert _scan(_tokenize, text) == _scan(_reference_tokenize, text), text
    # a comment inside an evaluated expression runs to the end of the text
    m = parse_session("vars x y\n")
    assert eval_in_session(m, "x # y\n + y") == Poly.variable(m.ctx, "x")


def test_numeral_past_digit_limit_is_a_parse_error(digit_limit):
    with pytest.raises(ParseError) as e:
        parse_session("vars x y\nfunc f : x + %s\n" % ("9" * (digit_limit + 1)))
    assert (e.value.line, e.value.col) == (2, 14)
    assert e.value.expected == "a numeral of at most %d digits" % digit_limit
    assert e.value.found == "%d digits" % (digit_limit + 1)


# -- the combine rule against the per-operator reference --------------------


def _as_poly(v):
    """v when it is a function, else None: the reference's one lift."""
    return v if isinstance(v, Poly) else None


class _ReferenceEvaluator(Evaluator):
    """The evaluator with one dispatch method per operator, each with its own
    kind ladder."""

    def _bin(self, pos, op, l, r):
        try:
            if op in "+-":
                return self._addsub(pos, op, l, r)
            if op == "*":
                return self._mul(pos, l, r)
            if op == "/":
                return self._div(pos, l, r)
            return self._pow(pos, l, r)
        except (PolyError, CalculusError) as e:
            raise KindError(pos[0], pos[1], str(e)) from None

    def _addsub(self, pos, op, l, r):
        lp, rp = _as_poly(l), _as_poly(r)
        if lp is not None and rp is not None:
            return lp + rp if op == "+" else lp - rp
        if isinstance(l, LogVectorField) and isinstance(r, LogVectorField):
            return l + r if op == "+" else l - r
        if isinstance(l, LogForm) and isinstance(r, LogForm):
            if l.degree != r.degree:
                raise KindError(pos[0], pos[1], "cannot %s forms of degree %d and %d" % (
                    "add" if op == "+" else "subtract", l.degree, r.degree))
            return l + r if op == "+" else l - r
        raise KindError(pos[0], pos[1], "cannot %s %s and %s" % (
            "add" if op == "+" else "subtract", _kind_name(l), _kind_name(r)))

    def _mul(self, pos, l, r):
        if isinstance(r, Poly) and not isinstance(l, Poly):
            l, r = r, l
        lp = _as_poly(l)
        if lp is not None:
            if isinstance(r, Poly):
                return lp * r
            if isinstance(r, (LogVectorField, LogForm)):
                return r.scale(lp)
        if isinstance(l, LogForm) and isinstance(r, LogForm):
            raise KindError(pos[0], pos[1], "use ^ to wedge forms")
        raise KindError(pos[0], pos[1], "cannot multiply %s by %s"
                        % (_kind_name(l), _kind_name(r)))

    def _div(self, pos, l, r):
        if isinstance(r, Poly):
            if not r.is_unit_monomial():
                raise KindError(pos[0], pos[1], "division by a non-invertible function")
            inv = r.inverse_unit()
            lp = _as_poly(l)
            return lp * inv if lp is not None else l.scale(inv)
        raise KindError(pos[0], pos[1], "cannot divide %s by %s"
                        % (_kind_name(l), _kind_name(r)))

    def _pow(self, pos, l, r):
        if isinstance(l, LogForm) and isinstance(r, LogForm):
            return l.wedge(r)
        # an integer exponent is a constant function with one rational
        # integer term at T^0, or zero
        c = r.as_constant() if isinstance(r, Poly) else None
        t = {} if c is None else dict(c.terms)
        re, im = t.pop(0, (0, 0))
        if c is None or t or im or Fraction(re).denominator != 1:
            raise KindError(pos[0], pos[1], "exponent must be an integer")
        k = int(re)
        if isinstance(l, Poly):
            return l ** k
        raise KindError(pos[0], pos[1], "cannot raise a %s to a power" % _kind_name(l))


# a coordinate divisor, no divisor and a divisor given by its equation
COMBINE_SESSIONS = [
    "vars x y\ndivisor coords x y\nform w : dlog(x)^dlog(y)\nconn s : T*x*dlog(y)\n"
    "vfield e1 : y*@y\nfunc f1 : x\n",
    "vars x y\nform w : d(x)^d(y)\nconn s : x*d(y)\n"
    "vfield e1 : y*@y\nfunc f1 : x\n",
    "vars x y\ndivisor poly x*y*(x + y)\nform w : d(x)^d(y)\nconn s : x*d(y)\n"
    "vfield e1 : y*@y\nfunc f1 : x\n",
]
COMBINE_IDS = ("torus", "poly", "divisor-poly")
# every kind: constant functions (zero, units, a non-unit), other functions
# (units and not), fields, and forms of degree 1, 2 and 3 (the last one zero)
COMBINE_ATOMS = ["0", "2", "1/2", "I", "T", "1 + T", "x", "y", "x*y", "x + 1",
                 "y^-1", "f1", "@x", "x*@y", "e1", "d(x)", "dlog(y)", "x*d(y)",
                 "d(x)^d(y)", "w", "s", "d(x)^d(y)^d(x)", "0*d(x)", "y*dlog(x)"]


def _outcome(ev, op, l, r):
    try:
        v = ev._bin((1, 1), op, l, r)
    except KindError as e:
        return "error", e.message
    return type(v).__name__, v


def _combine_atoms(m):
    """The COMBINE_ATOMS that evaluate in the session m, by their text."""
    atoms = {}
    for a in COMBINE_ATOMS:
        try:
            atoms[a] = eval_in_session(m, a)
        except KindError:  # y^-1 and the dlogs off the divisor
            pass
    return atoms


@pytest.mark.parametrize("text", COMBINE_SESSIONS, ids=COMBINE_IDS)
def test_values_have_three_kinds(text):
    """A numeral, I and T evaluate to constant functions of the session's
    chart, so every value the evaluator returns is a function, a vector
    field or a form."""
    m = parse_session(text)
    atoms = _combine_atoms(m)
    assert set(COMBINE_ATOMS) - set(atoms) <= {"y^-1", "dlog(y)", "y*dlog(x)"}
    for a, v in atoms.items():
        assert type(v) in (Poly, LogVectorField, LogForm), a
    ctx = m.ctx
    assert atoms["0"] == Poly.zero(ctx)
    assert atoms["2"] == Poly.one(ctx) + Poly.one(ctx)
    assert atoms["1/2"] == Poly.constant(ctx, Scalar.from_rational(Fraction(1, 2)))
    assert atoms["I"] == Poly.constant(ctx, Scalar.from_rational(0, 1))
    assert atoms["T"] == Poly.constant(ctx, Scalar.two_pi_i())
    assert atoms["1 + T"] == Poly.one(ctx) + atoms["T"]


@pytest.mark.parametrize("text", COMBINE_SESSIONS, ids=COMBINE_IDS)
def test_combine_rule_matches_reference(text):
    m = parse_session(text)
    atoms = list(_combine_atoms(m).values())
    names = {**m.funcs, **m.vfields, **m.forms, **m.conns}
    ev, ref = Evaluator(m.ctx, names), _ReferenceEvaluator(m.ctx, names)
    for op in "+-*/^":
        for l in atoms:
            for r in atoms:
                got, want = _outcome(ev, op, l, r), _outcome(ref, op, l, r)
                assert got == want, (op, l, r)
                assert got[0] in ("error", "Poly", "LogVectorField", "LogForm")


def test_coerce_def_takes_each_kind_by_one_rule():
    """A definition of a kind takes a value of that kind; a function is also
    a 0-form, and the zero function also the zero field and connection."""
    m = parse_session(BASE)
    ctx = m.ctx
    values = {text: eval_in_session(m, text)
              for text in ("2", "0", "x", "@x", "d(x)", "w")}
    taken = {(kind, text) for kind in ("func", "vfield", "form", "conn")
             for text, v in values.items() if _coerce_def(kind, v, ctx) is not None}
    assert taken == {("func", "2"), ("func", "0"), ("func", "x"),
                     ("vfield", "0"), ("vfield", "@x"),
                     ("form", "2"), ("form", "0"), ("form", "x"), ("form", "d(x)"),
                     ("form", "w"), ("conn", "0"), ("conn", "d(x)")}
    assert _coerce_def("form", values["x"], ctx) == LogForm.function(values["x"])
    assert _coerce_def("vfield", values["0"], ctx) == LogVectorField.zero(ctx)
    assert _coerce_def("conn", values["0"], ctx).sigma == LogForm.zero(ctx, 1)
    assert _coerce_def("conn", values["d(x)"], ctx).sigma == values["d(x)"]


def test_scalar_on_the_right_of_a_function():
    m = parse_session(BASE)
    for right, left in (("x*2", "2*x"), ("x*T", "T*x"), ("(x + 1)*I", "I*(x + 1)"),
                        ("x^2*T", "T*x^2"), ("f*(1/2)", "(1/2)*f")):
        assert eval_in_session(m, right) == eval_in_session(m, left), right
    m = parse_session(BASE + "func g : y*2\n")
    assert m.funcs["g"] == eval_in_session(m, "2*y")


# -- deep and long expressions ------------------------------------------------
# A chain of any length evaluates; nesting past MAX_NESTING levels of
# parentheses and unary signs is a positioned ParseError, never a
# RecursionError escaping the CLI.

LONG_SUM = "+".join(["x"] * 1000)
DEEP_PARENS = "(" * 150 + "x" + ")" * 150
DEEP_SIGNS = "-" * 3000 + "x"
# (1+x)*(1+x^2)*...*(1+x^1024) = 1 + x + ... + x^2047
DOUBLINGS = "*".join("(1+x^%d)" % 2 ** k for k in range(11))
NESTING = ("expected at most %d levels of parentheses and signs, found deeper"
           " nesting" % MAX_NESTING)


def _cli(capsys, monkeypatch, session, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(session))
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_nesting_bound():
    m = parse_session("vars x y\n")
    for depth, ok in ((MAX_NESTING, True), (MAX_NESTING + 1, False)):
        for text in ("(" * depth + "x" + ")" * depth, "-" * depth + "x",
                     "d(" * depth + "x" + ")" * depth, "x^" + "-" * depth + "1",
                     "-(" * ((depth + 1) // 2) + "x" + ")" * ((depth + 1) // 2)):
            if ok:
                eval_in_session(m, text)
                continue
            with pytest.raises(ParseError) as e:
                eval_in_session(m, text)
            assert str(e.value).endswith(NESTING), text
    with pytest.raises(ParseError) as e:
        eval_in_session(m, "x + (" * 150 + "y" + ")" * 150)
    assert (e.value.line, e.value.col) == (1, 5 * MAX_NESTING + 5)
    assert eval_in_session(m, "-" * MAX_NESTING + "x") == Poly.variable(m.ctx, "x")


def test_long_sum_evaluates(capsys, monkeypatch):
    session = "vars x y\ndivisor coords x\nfunc f : %s\n" % LONG_SUM
    m = parse_session(session)
    assert m.funcs["f"] == Poly.variable(m.ctx, "x").scale(Scalar.from_int(1000))
    argv = ("check-divisor", "--session", "-", "--poly", "f")
    assert _cli(capsys, monkeypatch, session, *argv) == (
        0, "reduced\nnormal crossing: x\n", "")
    code, out, err = _cli(capsys, monkeypatch, session, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["exit"] == 0


def test_long_printed_session_parses_back(capsys, monkeypatch):
    m = parse_session("vars x y\nfunc f : %s\n" % DOUBLINGS)
    assert len(m.funcs["f"].terms) == 2048
    text = print_session(m)
    assert parse_session(text) == m
    argv = ("weights", "--session", "-", "--poly", "f")
    assert _cli(capsys, monkeypatch, text, *argv) == (1, "none\n", "")
    code, out, err = _cli(capsys, monkeypatch, text, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["exit"] == 1


@pytest.mark.parametrize("deep", [DEEP_PARENS, DEEP_SIGNS])
def test_deep_nesting_exits_2(capsys, monkeypatch, deep):
    at = "col %d: %s" % (MAX_NESTING + 1, NESTING)
    # as an argument: the error names the argument and the position in it
    argv = ("check-divisor", "--session", "-", "--poly=" + deep)
    code, out, err = _cli(capsys, monkeypatch, "vars x y\n", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: in '") and err.endswith("line 1, " + at + "\n")
    code, out, err = _cli(capsys, monkeypatch, "vars x y\n", *argv, "--format", "json")
    doc = json.loads(out)
    assert (code, err, doc["exit"]) == (2, "", 2)
    assert doc["error"].endswith("line 1, " + at)
    # as a session line: col counts from the start of the line
    session = "vars x y\nfunc f : %s\n" % deep
    message = "session: line 2, col %d: %s" % (MAX_NESTING + 10, NESTING)
    argv = ("check-divisor", "--session", "-", "--poly", "x")
    assert _cli(capsys, monkeypatch, session, *argv) == (2, "", "error: %s\n" % message)
    code, out, err = _cli(capsys, monkeypatch, session, *argv, "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"command": "check-divisor", "error": message,
                               "exit": 2, "schema": "logsym/1"}
