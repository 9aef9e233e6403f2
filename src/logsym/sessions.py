"""Session files and the expression language.

A session is a line-oriented UTF-8 file: variable/divisor/arena declarations
followed by named definitions (func, vfield, form, conn), with "#" comments.
Expressions build functions, log vector fields and log forms from numerals,
I, T, variables, @x basis fields, d(...) and dlog(...), with + - * / ^ where
^ is wedge on forms and power elsewhere (the kinds are disjoint, so no
ambiguity survives evaluation).  A numeral, I and T are constant functions
of the session's chart, elements of its coefficient ring Q(i)[T, T^-1], so
a value has one of three kinds.  All operator chains, including ^,
associate left.

Errors carry 1-based line/column positions.  print_canonical emits a
deterministic text rendering with the guarantee parse(print(x)) == x for
every value the language builds; it also prints a Scalar (a period, a
residue), which reads back as the constant function, and a RationalFunction,
which the language does not build, as (num) / (den).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Optional, Tuple, Union

from .calculus import CalculusError, LogForm, LogVectorField, d_of_function
from .connections import Connection1
from .context import POLY, TORUS, ContextError, VarContext, make_context
from .divisors import coordinate_divisor
from .linalg import RationalFunction
from .poly import Poly, PolyError
from .scalars import Scalar, ScalarError

RESERVED = {
    "vars", "divisor", "coords", "poly", "arena", "func", "vfield", "form",
    "conn", "d", "dlog", "I", "T", "torus",
}

Value = Union[Poly, LogVectorField, LogForm]


class SessionError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


class ParseError(SessionError):
    """Syntax error with the token that was found and what was legal there."""

    def __init__(self, line: int, col: int, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(line, col, "expected %s, found %s" % (expected, found))


class KindError(SessionError):
    """Well-formed syntax applied to the wrong kind of object."""


# -- tokenizer --------------------------------------------------------------

# digits and letters are ASCII only (str.isdigit admits digits int() rejects);
# a comment runs to the end of the text, newlines included
_TOKEN = re.compile(
    r"(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/^():,@])"
    r"|[ \t]+|(?s:#.*)"
)


def _tokenize(text: str, lineno: int):
    """Tokens are (kind, position, payload); kind in num|ident|sym|end."""
    out = []
    i, n = 0, len(text)
    while i < n:
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(lineno, i + 1, "a token", repr(text[i]))
        kind, val = m.lastgroup, m.group()
        if kind == "num":
            try:
                val = int(val)
            except ValueError:  # past the interpreter's int/str digit limit
                raise ParseError(lineno, i + 1, "a numeral of at most %d digits"
                                 % sys.get_int_max_str_digits(), "%d digits" % len(val)) from None
        if kind is not None:
            out.append((kind, (lineno, i + 1), val))
        i = m.end()
    out.append(("end", (lineno, n + 1), ""))
    return out


# -- expression parser ------------------------------------------------------
# AST nodes are tuples (tag, pos, ...); pos = (line, col).


# nesting deeper than this many parentheses and unary signs is a ParseError;
# each level costs the parser at most six interpreter frames
MAX_NESTING = 100


class _ExprParser:
    def __init__(self, tokens):
        self.toks = tokens
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_sym(self, s):
        kind, pos, val = self.next()
        if kind != "sym" or val != s:
            raise ParseError(pos[0], pos[1], "'%s'" % s, _show(kind, val))
        return pos

    def expect_name(self):
        kind, pos, val = self.next()
        if kind != "ident":
            raise ParseError(pos[0], pos[1], "a variable name", _show(kind, val))
        return val

    def _op(self, ops):
        """The next token's (position, symbol), consumed, when it is one of
        ops; else None."""
        kind, pos, val = self.peek()
        if kind != "sym" or val not in ops:
            return None
        self.k += 1
        return pos, val

    def _descend(self, pos):
        """Enter one more level of nesting, opened at pos; the caller leaves
        it by decrementing depth."""
        if self.depth == MAX_NESTING:
            raise ParseError(pos[0], pos[1], "at most %d levels of parentheses"
                             " and signs" % MAX_NESTING, "deeper nesting")
        self.depth += 1

    # operator chains associate left and loop rather than recurse, so that a
    # level of nesting costs a fixed number of frames
    def parse_expr(self):
        node = self.parse_term()
        while (op := self._op("+-")) is not None:
            node = ("bin", op[0], op[1], node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while (op := self._op("*/")) is not None:
            node = ("bin", op[0], op[1], node, self.parse_factor())
        return node

    def parse_factor(self):
        # unary sign binds looser than ^, so -x^2 means -(x^2)
        op = self._op("+-")
        if op is None:
            return self.parse_power()
        self._descend(op[0])
        node = self.parse_factor()
        self.depth -= 1
        return ("neg", op[0], node) if op[1] == "-" else node

    def parse_power(self):
        node = self.parse_atom()
        while (op := self._op("^")) is not None:
            node = ("bin", op[0], op[1], node, self.parse_exponent())
        return node

    def parse_exponent(self):
        # a single (possibly signed) atom: keeps ^ chains left-associative
        op = self._op("-")
        if op is None:
            return self.parse_atom()
        self._descend(op[0])
        node = self.parse_exponent()
        self.depth -= 1
        return ("neg", op[0], node)

    def _group(self, pos):
        """The expression inside parentheses opened at pos, and the ')'."""
        self._descend(pos)
        node = self.parse_expr()
        self.depth -= 1
        self.expect_sym(")")
        return node

    def parse_atom(self):
        kind, pos, val = self.next()
        if kind == "num":
            return ("num", pos, val)
        if kind == "sym" and val == "(":
            return self._group(pos)
        if kind == "sym" and val == "@":
            return ("at", pos, self.expect_name())
        if kind == "ident":
            if val == "d" and (paren := self._op("(")) is not None:
                return ("d", pos, self._group(paren[0]))
            if val == "dlog":
                self.expect_sym("(")
                name = self.expect_name()
                self.expect_sym(")")
                return ("dlog", pos, name)
            return ("ident", pos, val)
        raise ParseError(pos[0], pos[1], "an expression", _show(kind, val))

    def finish(self):
        kind, pos, val = self.peek()
        if kind != "end":
            raise ParseError(pos[0], pos[1], "end of line", _show(kind, val))


def _show(kind, val):
    if kind == "end":
        return "end of line"
    return repr(str(val))


def _parse_line(tokens):
    """An expression that must fill the rest of its line."""
    p = _ExprParser(tokens)
    node = p.parse_expr()
    p.finish()
    return node


# -- evaluator --------------------------------------------------------------


def _kind_name(v: Value) -> str:
    if isinstance(v, Poly):
        return "function"
    if isinstance(v, LogVectorField):
        return "vector field"
    return "form (degree %d)" % v.degree


class Evaluator:
    def __init__(self, ctx: VarContext, names: Dict[str, Value]):
        self.ctx = ctx
        self.names = names

    def eval(self, node) -> Value:
        tag = node[0]
        pos = node[1]
        if tag == "num":
            return Poly.from_int(self.ctx, node[2])
        if tag == "ident":
            return self._lookup(pos, node[2])
        if tag == "at":
            name = node[2]
            if name not in self.ctx.names:
                raise KindError(pos[0], pos[1], "unknown variable %r" % name)
            return LogVectorField.coordinate(self.ctx, name)
        if tag == "neg":
            v = self.eval(node[2])
            return -v
        if tag == "d":
            return self._d(pos, self.eval(node[2]))
        if tag == "dlog":
            name = node[2]
            if name not in self.ctx.names:
                raise KindError(pos[0], pos[1], "unknown variable %r" % name)
            if not self.ctx.is_divisor_index(self.ctx.index(name)):
                raise KindError(
                    pos[0], pos[1],
                    "dlog(%s) needs a divisor coordinate" % name,
                )
            return LogForm.coframe(self.ctx, name)
        if tag == "bin":
            # a left-associated chain of any length: down its left spine,
            # then fold left to right
            chain = []
            while node[0] == "bin":
                chain.append(node)
                node = node[3]
            v = self.eval(node)
            for _, pos, op, _, right in reversed(chain):
                v = self._bin(pos, op, v, self.eval(right))
            return v
        raise AssertionError(tag)

    def _lookup(self, pos, name):
        if name == "I":
            return Poly.constant(self.ctx, Scalar.i_unit())
        if name == "T":
            return Poly.constant(self.ctx, Scalar.two_pi_i())
        if name in self.names:
            v = self.names[name]
            if isinstance(v, Connection1):
                return v.sigma
            return v
        if name in self.ctx.names:
            return Poly.variable(self.ctx, name)
        raise KindError(pos[0], pos[1], "unknown name %r" % name)

    def _d(self, pos, v):
        if isinstance(v, Poly):
            return d_of_function(v)
        if isinstance(v, LogForm):
            return v.d()
        raise KindError(pos[0], pos[1], "cannot differentiate a %s" % _kind_name(v))

    def _bin(self, pos, op, l, r):
        try:
            return self._combine(pos, op, l, r)
        except (PolyError, CalculusError) as e:
            raise KindError(pos[0], pos[1], str(e)) from None

    def _combine(self, pos, op, l, r):
        """l op r, or a KindError at pos naming the kinds of l and r when
        they do not combine under op.

        ^ wedges two forms and otherwise raises a function to a power that
        is a constant integer; a negative power needs a unit monomial.  /
        multiplies by the inverse of a unit monomial.  * multiplies two
        functions or scales a field or form by a function, and + and - take
        two operands of one kind (forms of one degree).
        """
        if op == "^":
            if isinstance(l, LogForm) and isinstance(r, LogForm):
                return l.wedge(r)
            k = _integer(r)
            if k is None:
                raise KindError(*pos, "exponent must be an integer")
            if not isinstance(l, Poly):
                raise KindError(*pos, "cannot raise a %s to a power" % _kind_name(l))
            return l ** k
        if op == "/":
            if not isinstance(r, Poly):
                raise KindError(*pos, "cannot divide %s by %s"
                                % (_kind_name(l), _kind_name(r)))
            if not r.is_unit_monomial():
                raise KindError(*pos, "division by a non-invertible function")
            r = r.inverse_unit()
            op = "*"
        if op == "*":
            if isinstance(r, Poly) and not isinstance(l, Poly):
                l, r = r, l
            if isinstance(l, Poly):
                return l * r if isinstance(r, Poly) else r.scale(l)
            # fields and forms only: nothing was swapped
            if isinstance(l, LogForm) and isinstance(r, LogForm):
                raise KindError(*pos, "use ^ to wedge forms")
            raise KindError(*pos, "cannot multiply %s by %s"
                            % (_kind_name(l), _kind_name(r)))
        if type(l) is not type(r):
            raise KindError(*pos, "cannot %s %s and %s" % (
                "add" if op == "+" else "subtract", _kind_name(l), _kind_name(r)))
        if isinstance(l, LogForm) and l.degree != r.degree:
            raise KindError(*pos, "cannot %s forms of degree %d and %d" % (
                "add" if op == "+" else "subtract", l.degree, r.degree))
        return l + r if op == "+" else l - r


def _integer(v: Value) -> Optional[int]:
    """The value of v when v is a constant function with a rational integer
    value, else None."""
    if not isinstance(v, Poly):
        return None
    t = v._t
    if not t:
        return 0
    if len(t) != 1:
        return None
    ((e, (re, im, den)),) = t.items()
    return re if not (any(e) or im) and den == 1 else None


# -- session manifest -------------------------------------------------------

# the definition kinds, with what a definition of each must be
_WANTED = {"func": "function", "vfield": "vector field", "form": "form",
           "conn": "degree-1 form"}


class SessionManifest:
    """A parsed session: its context, its declared divisor equation (or
    None) and its definitions by kind and name, with (kind, name) in the
    order they were defined."""

    def __init__(self, ctx: VarContext, divisor_poly: Optional[Poly]):
        self.ctx = ctx
        self.divisor_poly = divisor_poly
        self.funcs: Dict[str, Poly] = {}
        self.vfields: Dict[str, LogVectorField] = {}
        self.forms: Dict[str, LogForm] = {}
        self.conns: Dict[str, Connection1] = {}
        self.order: List[Tuple[str, str]] = []

    def __eq__(self, other) -> bool:
        return isinstance(other, SessionManifest) and vars(self) == vars(other)

    def table(self, kind: str) -> dict:
        """The definitions of kind, by name."""
        return {"func": self.funcs, "vfield": self.vfields,
                "form": self.forms, "conn": self.conns}[kind]

    def divisor_equation(self) -> Optional[Poly]:
        """The defining polynomial: declared directly, or the product of the
        divisor coordinates."""
        if self.divisor_poly is not None:
            return self.divisor_poly
        if not self.ctx.divisor:
            return None
        return coordinate_divisor(self.ctx)


def parse_session(text: str) -> SessionManifest:
    lines = text.split("\n")
    var_names: Optional[List[str]] = None
    vars_line = 1
    div_kind: Optional[str] = None
    div_line = 1
    div_coords: List[str] = []
    div_expr = None  # (tokens-line, text) parsed after ctx exists
    arena: Optional[str] = None
    defs: List[Tuple[int, str, str, object]] = []

    for idx, raw in enumerate(lines, start=1):
        toks = _tokenize(raw, idx)
        if toks[0][0] == "end":
            continue
        kind, pos, val = toks[0]
        if kind != "ident":
            raise ParseError(pos[0], pos[1], "a declaration or definition", _show(kind, val))
        if val == "vars":
            if var_names is not None:
                raise ParseError(pos[0], pos[1], "a single vars line", "'vars'")
            vars_line = idx
            var_names = _ident_list(toks[1:], "variable name")
            for nm in var_names:
                if nm in RESERVED:
                    raise ParseError(pos[0], pos[1], "a non-reserved name", repr(nm))
        elif val == "divisor":
            if div_kind is not None:
                raise ParseError(pos[0], pos[1], "a single divisor line", "'divisor'")
            div_line = idx
            k2, p2, v2 = toks[1]
            if k2 == "ident" and v2 == "coords":
                div_kind = "coords"
                div_coords = _ident_list(toks[2:], "divisor coordinate")
            elif k2 == "ident" and v2 == "poly":
                div_kind = "poly"
                div_expr = (idx, _parse_line(toks[2:]))
            else:
                raise ParseError(p2[0], p2[1], "'coords' or 'poly'", _show(k2, v2))
        elif val == "arena":
            if arena is not None:
                raise ParseError(pos[0], pos[1], "a single arena line", "'arena'")
            k2, p2, v2 = toks[1]
            if k2 != "ident" or v2 not in (POLY, TORUS):
                raise ParseError(p2[0], p2[1], "'poly' or 'torus'", _show(k2, v2))
            arena = v2
            _ExprParser(toks[2:]).finish()
        elif val in _WANTED:
            k2, p2, name = toks[1]
            if k2 != "ident":
                raise ParseError(p2[0], p2[1], "a name", _show(k2, name))
            if name in RESERVED:
                raise ParseError(p2[0], p2[1], "a non-reserved name", repr(name))
            k3, p3, v3 = toks[2]
            if k3 != "sym" or v3 != ":":
                raise ParseError(p3[0], p3[1], "':'", _show(k3, v3))
            defs.append((idx, val, name, _parse_line(toks[3:])))
        else:
            raise ParseError(
                pos[0], pos[1],
                "one of vars/divisor/arena/func/vfield/form/conn", repr(val),
            )

    if var_names is None:
        if div_kind is None and not defs:
            raise ParseError(1, 1, "a vars declaration", "empty session")
        raise ParseError(1, 1, "a vars declaration before other lines", "none")
    if arena is None:
        # coordinate divisors live naturally on the torus, general ones do not
        arena = TORUS if div_kind == "coords" else POLY
    for nm in div_coords:
        if nm not in var_names:
            raise KindError(div_line, 1, "divisor coordinate %r is not a variable" % nm)
    try:
        ctx = make_context(var_names, div_coords, arena)
    except ContextError as e:
        raise KindError(vars_line, 1, str(e)) from None

    m = SessionManifest(ctx=ctx, divisor_poly=None)
    names: Dict[str, Value] = {}
    if div_expr is not None:
        lineno, node = div_expr
        h = Evaluator(ctx, names).eval(node)
        if not isinstance(h, Poly) or h.is_zero():
            raise KindError(lineno, 1, "divisor poly must be a nonzero function")
        m.divisor_poly = h

    for lineno, kind, name, node in defs:
        if name in ctx.names or name in names:
            raise KindError(lineno, 1, "name %r already in use" % name)
        v = Evaluator(ctx, names).eval(node)
        c = _coerce_def(kind, v, ctx)
        if c is None:
            raise KindError(lineno, 1, "%s must be a %s, got %s"
                            % (kind, _WANTED[kind], _kind_name(v)))
        m.table(kind)[name] = names[name] = c
        m.order.append((kind, name))
    return m


def _coerce_def(kind: str, v: Value, ctx: VarContext):
    """v as a value of kind (func, vfield, form or conn), or None when v is
    not one.  A function is a 0-form, and a zero function is also the zero
    field and the zero connection.  Session definitions and CLI arguments
    both go through this one rule."""
    if kind == "func":
        return v if isinstance(v, Poly) else None
    if isinstance(v, Poly):
        if kind == "form":
            return LogForm.function(v)
        if not v.is_zero():
            return None
        v = LogVectorField.zero(ctx) if kind == "vfield" else LogForm.zero(ctx, 1)
    if kind == "vfield":
        return v if isinstance(v, LogVectorField) else None
    if kind == "form":
        return v if isinstance(v, LogForm) else None
    return Connection1(v) if isinstance(v, LogForm) and v.degree == 1 else None


def _ident_list(toks, what):
    out = []
    for kind, pos, val in toks:
        if kind == "end":
            break
        if kind != "ident":
            raise ParseError(pos[0], pos[1], what, _show(kind, val))
        if val in out:
            raise ParseError(pos[0], pos[1], "distinct names", repr(val))
        out.append(val)
    if not out:
        raise ParseError(toks[0][1][0], toks[0][1][1], what, "end of line")
    return out


def eval_in_session(m: SessionManifest, text: str) -> Value:
    """Evaluate an expression with the session's names in scope."""
    names = {**m.funcs, **m.vfields, **m.forms, **m.conns}
    return Evaluator(m.ctx, names).eval(_parse_line(_tokenize(text, 1)))


# -- canonical printer ------------------------------------------------------


def number_text(a: Union[int, Fraction]) -> str:
    """str(a), or a ScalarError past the interpreter's int/str digit limit."""
    try:
        return str(a)
    except ValueError:
        raise ScalarError("a number of more than %d digits is too long to print"
                          % sys.get_int_max_str_digits()) from None


def _scalar_piece(k: int, a: Fraction, b: Fraction):
    """One T-power term as (negative?, positive-form text)."""
    if b == 0:
        neg = a < 0
        base = number_text(-a if neg else a)
    elif a == 0:
        neg = b < 0
        bb = -b if neg else b
        base = "I" if bb == 1 else number_text(bb) + "*I"
    else:
        neg = False
        ib = "I" if abs(b) == 1 else number_text(abs(b)) + "*I"
        base = "(%s %s %s)" % (number_text(a), "+" if b > 0 else "-", ib)
    if k == 0:
        t = ""
    elif k == 1:
        t = "T"
    else:
        t = "T^" + number_text(k)
    if not t:
        return neg, base
    if base == "1":
        return neg, t
    return neg, base + "*" + t


def scalar_text(s: Scalar) -> str:
    if s.is_zero():
        return "0"
    t = s.terms
    pieces = [_scalar_piece(k, *t[k]) for k in sorted(t, reverse=True)]
    return _join_signed(pieces)


def _join_signed(pieces) -> str:
    out = []
    for idx, (neg, txt) in enumerate(pieces):
        if idx == 0:
            out.append(("-" if neg else "") + txt)
        else:
            out.append((" - " if neg else " + ") + txt)
    return "".join(out)


def _mono_text(ctx: VarContext, e) -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 0:
            continue
        nm = ctx.names[i]
        parts.append(nm if k == 1 else nm + "^" + number_text(k))
    return "*".join(parts)


def _poly_pieces(p: Poly):
    """Signed pieces for each term, leading term first: the z-monomials in
    descending graded lex order, the T-powers of each coefficient
    descending."""
    ctx = p.ctx
    t = p._t
    pieces = []
    keys = sorted(t, key=lambda e: (sum(e[:-1]), e), reverse=True)
    for e, group in groupby(keys, key=lambda e: e[:-1]):
        coeff = []
        for k in group:
            re, im, d = t[k]
            coeff.append(_scalar_piece(k[-1], Fraction(re, d), Fraction(im, d)))
        mono = _mono_text(ctx, e)
        if not mono:
            pieces.extend(coeff)
        elif len(coeff) > 1:
            pieces.append((False, "(" + _join_signed(coeff) + ")*" + mono))
        else:
            # a coefficient of 1 or -1 prints as its sign alone
            neg, base = coeff[0]
            pieces.append((neg, mono if base == "1" else base + "*" + mono))
    return pieces


def poly_text(p: Poly) -> str:
    if p.is_zero():
        return "0"
    return _join_signed(_poly_pieces(p))


def _coeff_times(p: Poly, tail: str):
    """Signed pieces for p*tail, parenthesizing multi-term coefficients."""
    if p.is_one():
        return [(False, tail)]
    if (-p).is_one():
        return [(True, tail)]
    pieces = _poly_pieces(p)
    if len(pieces) == 1:
        neg, txt = pieces[0]
        return [(neg, txt + "*" + tail)]
    return [(False, "(" + poly_text(p) + ")*" + tail)]


def field_text(v: LogVectorField) -> str:
    ctx = v.ctx
    pieces = []
    for i, c in enumerate(v.coeffs):
        if c.is_zero():
            continue
        pieces.extend(_coeff_times(c, "@" + ctx.names[i]))
    if not pieces:
        return "0*@" + ctx.names[0]
    return _join_signed(pieces)


def _cell_text(ctx: VarContext, I) -> str:
    parts = []
    for i in I:
        nm = ctx.names[i]
        parts.append("dlog(%s)" % nm if ctx.is_divisor_index(i) else "d(%s)" % nm)
    return "^".join(parts)


def form_text(f: LogForm) -> str:
    ctx = f.ctx
    if f.degree == 0 or not ctx.n:  # no coordinate to name a cell with
        return poly_text(f.coefficient(()))
    pieces = []
    for I in sorted(f.terms):
        c = f.terms[I]
        if c.is_zero():
            continue
        pieces.extend(_coeff_times(c, _cell_text(ctx, I)))
    if not pieces:
        # the first coordinates in order, wrapping round past the top degree
        return "0*" + _cell_text(ctx, [i % ctx.n for i in range(f.degree)])
    return _join_signed(pieces)


def print_canonical(obj) -> str:
    if isinstance(obj, Scalar):
        return scalar_text(obj)
    if isinstance(obj, Poly):
        return poly_text(obj)
    if isinstance(obj, RationalFunction):
        return "(%s) / (%s)" % (poly_text(obj.num), poly_text(obj.den))
    if isinstance(obj, LogVectorField):
        return field_text(obj)
    if isinstance(obj, LogForm):
        return form_text(obj)
    if isinstance(obj, Connection1):
        return form_text(obj.sigma)
    raise TypeError("cannot print %r" % type(obj).__name__)


def print_session(m: SessionManifest) -> str:
    lines = ["vars " + " ".join(m.ctx.names)]
    if m.divisor_poly is not None:
        lines.append("divisor poly " + poly_text(m.divisor_poly))
    elif m.ctx.divisor:
        lines.append("divisor coords " + " ".join(m.ctx.names[i] for i in m.ctx.divisor))
    lines.append("arena " + m.ctx.arena)
    for kind, name in m.order:
        lines.append("%s %s : %s" % (kind, name, print_canonical(m.table(kind)[name])))
    return "\n".join(lines) + "\n"
