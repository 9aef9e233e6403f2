"""Command-line surface: every operation over a session file.

Exit codes: 0 = check passed / computation succeeded, 1 = check failed with a
verdict (non-integral, not free, defect nonzero, ...), 2 = usage, parse, or
unknown-name errors.  Output is byte-deterministic; --format json mirrors the
text verdicts with stable field names under "schema": "logsym/1".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .calculus import (
    CalculusError,
    DegenerateError,
    along_divisor,
    assemble_symplectic,
    gram_determinant,
    res_const,
)
from .connections import (
    NonconstantResidueError,
    PrequantError,
    class_and_primitive,
    gauge as gauge_op,
    integrality_check,
    is_flat,
    normalize_residues,
    periods,
    prequantize,
)
from .divisors import DivisorError, check_squarefree, is_coordinate_ncd, saito_check, weighted_homogeneous
from .linalg import LinAlgError
from .operators import LogDiffOp1, decompose, dirac_check, from_connection, prequantum_op
from .poisson import PoissonError, bracket, hamiltonian, jacobi_defect, sing_bracket, verify_identities
from .poly import Poly, PolyError
from .scalars import ScalarError
from .sessions import (
    SessionError,
    SessionManifest,
    _coerce_def,
    eval_in_session,
    number_text,
    parse_session,
    print_canonical,
)

SCHEMA = "logsym/1"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- resolution helpers -----------------------------------------------------


def _session_text(path: str) -> str:
    """The session text of a file or of stdin (path "-"), by one rule: the
    bytes decoded as strict UTF-8, with universal newlines.  A text stdin
    with no byte buffer (an in-process StringIO) is taken back to the bytes
    it stands for, so undecodable bytes it carries as surrogate escapes fail
    as they would in a file."""
    if path != "-":
        with open(path, "rb") as fh:
            data = fh.read()
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:
        data = sys.stdin.read().encode("utf-8", "surrogateescape")
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_session(path: str) -> SessionManifest:
    try:
        text = _session_text(path)
    except (OSError, UnicodeError) as e:
        raise CliError(2, "cannot read session: %s" % e)
    try:
        return parse_session(text)
    except SessionError as e:
        raise CliError(2, "session: %s" % e)


_QUOTE_MAX = 100


def _quote(text: str) -> str:
    """text as an error message quotes it: its repr, or past _QUOTE_MAX
    characters the repr of that many, "..." and the length."""
    if len(text) <= _QUOTE_MAX:
        return repr(text)
    return "%r... (%d characters)" % (text[:_QUOTE_MAX], len(text))


def _eval(m: SessionManifest, text: str):
    try:
        return eval_in_session(m, text)
    except SessionError as e:
        raise CliError(2, "in %s: %s" % (_quote(text), e))


_KINDS = {"function": "func", "vector field": "vfield", "form": "form",
          "connection": "conn"}


def _get(m: SessionManifest, text: Optional[str], noun: str):
    """The value of text in the session as a noun (function, vector field,
    form or connection), by the rule a session definition of that kind
    follows; the session's one form when a form's text is None."""
    if text is None:
        if len(m.forms) == 1:
            return next(iter(m.forms.values()))
        raise CliError(2, "give --form (session has %d forms)" % len(m.forms))
    v = _coerce_def(_KINDS[noun], _eval(m, text), m.ctx)
    if v is None:
        raise CliError(2, "%s is not a %s" % (_quote(text), noun))
    return v


def _two_form(m: SessionManifest, text: Optional[str]):
    w = _get(m, text, "form")
    if w.degree != 2:
        raise CliError(2, "--form must be a 2-form")
    return w


def _symplectic(m: SessionManifest, form_name: Optional[str]):
    w = _two_form(m, form_name)
    try:
        return assemble_symplectic(w)
    except DegenerateError as e:
        raise CliError(1, "degenerate: det = %s" % print_canonical(e.det))
    except CalculusError as e:
        raise CliError(1, str(e))


def _divisor_poly(m: SessionManifest, arg: Optional[str]) -> Poly:
    if arg is not None:
        return _get(m, arg, "function")
    h = m.divisor_equation()
    if h is None:
        raise CliError(2, "session declares no divisor")
    return h


def _pair_name(ctx, pair) -> str:
    return "T_{%s,%s}" % (ctx.names[pair[0]], ctx.names[pair[1]])


def _along_divisor(ctx, along):
    """The along-D lines and json keys of an AlongDivisor, none for None."""
    if along is None:
        return [], {}
    pole = None if along.pole is None else ctx.names[along.pole]
    det = print_canonical(along.det)
    why = "pole in %s" % pole if pole else "det = %s, polynomial ring" % det
    return ["along D: %s (%s)" % ("yes" if along.holds else "no", why)], {
        "along_divisor": {"holds": along.holds, "det": det, "pole": pole}}


def _shifts_text(shifts) -> str:
    return ", ".join(("+" if s >= 0 else "") + number_text(s) for s in shifts)


# -- subcommand handlers ----------------------------------------------------
# each returns (exit_code, json_payload, text_lines)


def cmd_check_divisor(m, args):
    h = _divisor_poly(m, args.poly)
    ok, witness = check_squarefree(h)
    ncd, coords = is_coordinate_ncd(h)
    lines = ["reduced" if ok else "repeated factor: %s" % print_canonical(witness)]
    if ncd:
        names = "*".join(m.ctx.names[i] for i in coords)
        lines.append("normal crossing: %s" % (names or "none, h is a unit"))
    payload = {
        "reduced": ok,
        "witness": None if ok else print_canonical(witness),
        "normal_crossing": ncd,
        "coords": [m.ctx.names[i] for i in coords] if ncd else [],
    }
    return (0 if ok else 1), payload, lines


def cmd_check_saito(m, args):
    names = [s for s in args.fields.split(",") if s]
    fields = [_get(m, nm, "vector field") for nm in names]
    h = _divisor_poly(m, args.poly)
    if len(fields) != m.ctx.n:
        raise CliError(2, "a frame needs %d fields, got %d" % (m.ctx.n, len(fields)))
    try:
        res = saito_check(fields, h)
    except DivisorError as e:
        return 1, {"free": False, "error": str(e)}, ["not free: %s" % e]
    if res.free:
        line = "free: det = %s = %s*h" % (
            print_canonical(res.det), print_canonical(res.certificate),
        )
        return 0, {
            "free": True,
            "det": print_canonical(res.det),
            "certificate": print_canonical(res.certificate),
        }, [line]
    return 1, {"free": False, "det": print_canonical(res.det)}, [
        "not free: det = %s is not a unit multiple of h" % print_canonical(res.det)
    ]


def cmd_check_logsymplectic(m, args):
    w = _two_form(m, args.form)
    closed = w.d().is_zero()
    frame = None
    if args.fields is not None:
        frame = [_get(m, nm, "vector field") for nm in args.fields.split(",") if nm]
    rows, det, nondeg = gram_determinant(w, frame)
    if frame is not None:
        kind, along = ("saito" if _saito_frame(m, frame) else "declared"), None
    else:
        kind, along = "log", along_divisor(rows, det) if m.ctx.divisor else None
    along, keys = _along_divisor(m.ctx, along)
    lines = [
        "closed: %s" % ("yes" if closed else "no"),
        "nondegenerate: %s (det = %s, %s frame)"
        % ("yes" if nondeg else "no", print_canonical(det), kind),
    ] + along
    code = 0 if (closed and nondeg) else 1
    return code, dict({
        "closed": closed,
        "nondegenerate": nondeg,
        "det": print_canonical(det),
        "frame": kind,
    }, **keys), lines


def _saito_frame(m: SessionManifest, frame) -> bool:
    """Whether saito_check calls frame free along the session's divisor
    equation, or along h = 1 when the session declares none."""
    h = m.divisor_equation()
    try:
        return saito_check(frame, Poly.one(m.ctx) if h is None else h).free
    except (DivisorError, PolyError):  # a field not logarithmic, or with a pole
        return False


def cmd_hamiltonian(m, args):
    S = _symplectic(m, args.form)
    f = _get(m, args.f, "function")
    try:
        res = hamiltonian(S, f)
    except PoissonError as e:
        return 1, {"error": str(e)}, ["no hamiltonian field: %s" % e]
    txt = print_canonical(res.delta)
    return 0, {"delta": txt}, ["delta = %s" % txt]


def cmd_bracket(m, args):
    S = _symplectic(m, args.form)
    f = _get(m, args.f, "function")
    g = _get(m, args.g, "function")
    val = bracket(S, f, g)
    txt = print_canonical(val)
    return 0, {"bracket": txt}, ["{f,g} = %s" % txt]


def cmd_singbracket(m, args):
    S = _symplectic(m, args.form)
    f = _get(m, args.f, "function")
    g = _get(m, args.g, "function")
    val = sing_bracket(S, f, g, h=m.divisor_equation())
    txt = print_canonical(val)
    return 0, {"sing_bracket": txt}, ["{f,g}_sing = %s" % txt]


def cmd_jacobi(m, args):
    S = _symplectic(m, args.form)
    f, g, h = (_get(m, t, "function") for t in (args.f, args.g, args.h))
    d = jacobi_defect(S, f, g, h)
    txt = print_canonical(d)
    code = 0 if d.is_zero() else 1
    return code, {"defect": txt, "zero": d.is_zero()}, ["jacobi defect = %s" % txt]


def cmd_identities(m, args):
    S = _symplectic(m, args.form)
    u, v, a, b = (_get(m, t, "function") for t in (args.u, args.v, args.a, args.b))
    rep = verify_identities(S, u, v, a, b)
    items = [
        ("hamiltonian of a product", rep.defect_i.is_zero(), print_canonical(rep.defect_i)),
        ("bracket vs pairing", rep.defect_iii.is_zero(), print_canonical(rep.defect_iii)),
        ("bracket of hamiltonian fields", rep.defect_iv.is_zero(), print_canonical(rep.defect_iv)),
        ("tilde field recombination", rep.defect_v.is_zero(), print_canonical(rep.defect_v)),
        ("jacobi", rep.jacobi.is_zero(), print_canonical(rep.jacobi)),
    ]
    lines = []
    for name, ok, txt in items:
        lines.append("%s: %s" % (name, "holds" if ok else "defect = %s" % txt))
    add_txt = print_canonical(rep.defect_ii)
    lines.append(
        "additivity over sums (informational): defect = %s" % add_txt
    )
    code = 0 if rep.core_identities_hold else 1
    payload = {
        "identities": {nm: ok for nm, ok, _ in items},
        "additivity_defect": add_txt,
        "all_hold": rep.core_identities_hold,
    }
    return code, payload, lines


def cmd_symbol(m, args):
    if (args.vfield is None) == (args.f is None):
        raise CliError(2, "give exactly one of --vfield or --f")
    conn = _get(m, args.conn, "connection")
    if args.vfield is not None:
        op = from_connection(conn.sigma, _get(m, args.vfield, "vector field"))
    else:
        S = _symplectic(m, args.form)
        f = _get(m, args.f, "function")
        op = prequantum_op(f, S, conn.sigma)
    txt = print_canonical(op.symbol())
    return 0, {"symbol": txt}, ["symbol = %s" % txt]


def cmd_decompose(m, args):
    conn = _get(m, args.conn, "connection")
    delta = _get(m, args.vfield, "vector field")
    mult = Poly.zero(m.ctx) if args.mult is None else _get(m, args.mult, "function")
    op = LogDiffOp1(delta, mult)
    sym, mpart = decompose(op, conn.sigma)
    ls, lm = print_canonical(sym), print_canonical(mpart)
    return 0, {"symbol": ls, "multiplier": lm}, [
        "symbol = %s" % ls, "multiplier = %s" % lm,
    ]


def cmd_dirac_test(m, args):
    S = _symplectic(m, args.form)
    conn = _get(m, args.conn, "connection")
    f = _get(m, args.f, "function")
    g = _get(m, args.g, "function")
    rep = dirac_check(f, g, S, conn.sigma)
    if rep.holds:
        return 0, {"holds": True}, ["holds"]
    txt = print_canonical(rep.defect.mult)
    return 1, {"holds": False, "defect_multiplier": txt}, [
        "fails: defect multiplier = %s" % txt
    ]


def cmd_curvature(m, args):
    conn = _get(m, args.conn, "connection")
    txt = print_canonical(conn.curvature)
    return 0, {"curvature": txt}, ["curvature = %s" % txt]


def cmd_gauge(m, args):
    conn = _get(m, args.conn, "connection")
    tau = _get(m, args.tau, "form")
    out = gauge_op(conn, tau)
    txt = print_canonical(out.sigma)
    return 0, {"sigma": txt}, ["sigma = %s" % txt]


def cmd_flat(m, args):
    conn = _get(m, args.conn, "connection")
    flat, data = is_flat(conn)
    if flat:
        res = ", ".join(print_canonical(r) for r in data)
        return 0, {
            "flat": True,
            "residues": [print_canonical(r) for r in data],
        }, ["flat: residues [%s]" % res]
    txt = print_canonical(data)
    return 1, {"flat": False, "curvature": txt}, ["not flat: curvature = %s" % txt]


def cmd_residues(m, args):
    if args.conn is not None:
        w = _get(m, args.conn, "connection").sigma
    else:
        w = _get(m, args.form, "form")
    if w.degree != 1:
        raise CliError(2, "residues wants a degree-1 form")
    ok, data = res_const(w)
    ctx = m.ctx
    if ok:
        lines = [
            "residue along %s = %s" % (ctx.names[i], print_canonical(r))
            for i, r in zip(ctx.divisor, data)
        ]
        if not lines:
            lines = ["no divisor coordinates"]
        return 0, {
            "constant": True,
            "residues": [print_canonical(r) for r in data],
        }, lines
    return _nonconstant_residue(ctx, *data)


def _nonconstant_residue(ctx, i, value):
    """The verdict of residues and normalize-residues on a residue that is
    a nonconstant function."""
    txt = print_canonical(value)
    return 1, {"constant": False, "along": ctx.names[i], "value": txt}, [
        "nonconstant residue along %s: %s" % (ctx.names[i], txt)
    ]


def cmd_normalize_residues(m, args):
    conn = _get(m, args.conn, "connection")
    try:
        out, shifts = normalize_residues(conn)
    except NonconstantResidueError as e:
        return _nonconstant_residue(m.ctx, e.index, e.value)
    txt = print_canonical(out.sigma)
    return 0, {"sigma": txt, "shifts": shifts}, [
        "shifts = (%s)" % _shifts_text(shifts),
        "sigma = %s" % txt,
    ]


def cmd_periods(m, args):
    w = _two_form(m, args.form)
    try:
        ps = periods(w)
    except PrequantError as e:
        return 1, {"error": str(e)}, [str(e)]
    lines = [
        "period %s over %s" % (print_canonical(p), _pair_name(m.ctx, pair))
        for pair, p in ps
    ] or ["no torus 2-cycles"]
    return 0, {
        "periods": [
            {"cycle": _pair_name(m.ctx, pair), "value": print_canonical(p)}
            for pair, p in ps
        ]
    }, lines


def cmd_integrality(m, args):
    w = _two_form(m, args.form)
    try:
        ok, data = integrality_check(w)
    except PrequantError as e:
        return 1, {"error": str(e)}, [str(e)]
    if ok:
        lines = [
            "integral: period = %s*T over %s" % (number_text(n), _pair_name(m.ctx, pair))
            for pair, n in data
        ] or ["integral: no torus 2-cycles"]
        return 0, {
            "integral": True,
            "multiples": [
                {"cycle": _pair_name(m.ctx, pair), "n": n} for pair, n in data
            ],
        }, lines
    pair, p = data
    line = "non-integral: period %s over %s" % (
        print_canonical(p), _pair_name(m.ctx, pair),
    )
    return 1, {
        "integral": False,
        "witness": {"cycle": _pair_name(m.ctx, pair), "value": print_canonical(p)},
    }, [line]


def _homotopy_form(m: SessionManifest, text: Optional[str]):
    w = _get(m, text, "form")
    if w.degree < 1:
        raise CliError(2, "--form must have degree >= 1")
    return w


def cmd_class(m, args):
    w = _homotopy_form(m, args.form)
    try:
        cls, _ = class_and_primitive(w)
    except PrequantError as e:
        return 1, {"error": str(e)}, [str(e)]
    txt = print_canonical(cls)
    return 0, {"class": txt}, ["class = %s" % txt]


def cmd_primitive(m, args):
    w = _homotopy_form(m, args.form)
    try:
        _, prim = class_and_primitive(w)
    except PrequantError as e:
        return 1, {"error": str(e)}, [str(e)]
    txt = print_canonical(prim)
    return 0, {"primitive": txt}, ["primitive = %s" % txt]


def cmd_prequantize(m, args):
    w = _two_form(m, args.form)
    rep = prequantize(w, m.divisor_poly)
    ctx = m.ctx
    along, keys = _along_divisor(ctx, rep.along)
    lines = [
        "closed: %s" % ("yes" if rep.closed else "no"),
        "nondegenerate: %s" % ("yes" if rep.nondegenerate else "no"),
    ] + along + [
        "even dimension: %s (n = %d)" % ("yes" if rep.even_dim else "no", ctx.n),
    ]
    for pair, p in rep.periods:
        lines.append(
            "period %s over %s" % (print_canonical(p), _pair_name(ctx, pair))
        )
    if rep.integral is not None:
        if rep.integral:
            lines.append("integral: yes")
        else:
            pair, p = rep.witness
            lines.append(
                "non-integral: period %s over %s"
                % (print_canonical(p), _pair_name(ctx, pair))
            )
    if rep.class_part is not None:
        lines.append("class part = %s" % print_canonical(rep.class_part))
    if rep.connection is not None:
        lines.append("connection: sigma = %s" % print_canonical(rep.connection.sigma))
        if rep.normalized_shifts:
            lines.append("residue shifts = (%s)" % _shifts_text(rep.normalized_shifts))
        for i, r in rep.residues:
            lines.append(
                "residue along %s = %s" % (ctx.names[i], print_canonical(r))
            )
    if rep.obstruction:
        lines.append("obstruction: %s" % rep.obstruction)
    lines.append("note: %s" % rep.lct_caveat)
    verdict = bool(rep.prequantizable)
    payload = {
        "closed": rep.closed,
        "nondegenerate": rep.nondegenerate,
        "even_dim": rep.even_dim,
        "periods": [
            {"cycle": _pair_name(ctx, pair), "value": print_canonical(p)}
            for pair, p in rep.periods
        ],
        "integral": rep.integral,
        "class": None if rep.class_part is None else print_canonical(rep.class_part),
        "connection": None if rep.connection is None else print_canonical(rep.connection.sigma),
        "shifts": rep.normalized_shifts,
        "obstruction": rep.obstruction,
        "note": rep.lct_caveat,
        "prequantizable": verdict,
        **keys,
    }
    return (0 if verdict else 1), payload, lines


def cmd_weights(m, args):
    h = _divisor_poly(m, args.poly)
    res = weighted_homogeneous(h)
    if res is None:
        return 1, {"weighted_homogeneous": False}, ["none"]
    w, d = res
    return 0, {
        "weighted_homogeneous": True, "weights": list(w), "degree": d,
    }, ["weights: (%s) degree %s" % (", ".join(map(number_text, w)), number_text(d))]


# -- wiring -----------------------------------------------------------------

_COMMANDS = {
    "check-divisor": (cmd_check_divisor, ("poly",)),
    "check-saito": (cmd_check_saito, ("fields!", "poly")),
    "check-logsymplectic": (cmd_check_logsymplectic, ("form", "fields")),
    "hamiltonian": (cmd_hamiltonian, ("form", "f!")),
    "bracket": (cmd_bracket, ("form", "f!", "g!")),
    "singbracket": (cmd_singbracket, ("form", "f!", "g!")),
    "jacobi": (cmd_jacobi, ("form", "f!", "g!", "h!")),
    "identities": (cmd_identities, ("form", "u!", "v!", "a!", "b!")),
    "symbol": (cmd_symbol, ("conn!", "vfield", "f", "form")),
    "decompose": (cmd_decompose, ("conn!", "vfield!", "mult")),
    "dirac-test": (cmd_dirac_test, ("form", "conn!", "f!", "g!")),
    "curvature": (cmd_curvature, ("conn!",)),
    "gauge": (cmd_gauge, ("conn!", "tau!")),
    "flat": (cmd_flat, ("conn!",)),
    "residues": (cmd_residues, ("conn", "form")),
    "normalize-residues": (cmd_normalize_residues, ("conn!",)),
    "periods": (cmd_periods, ("form",)),
    "integrality": (cmd_integrality, ("form",)),
    "class": (cmd_class, ("form!",)),
    "primitive": (cmd_primitive, ("form!",)),
    "prequantize": (cmd_prequantize, ("form",)),
    "weights": (cmd_weights, ("poly",)),
}

_HELP = {
    "poly": "polynomial: a func name or expression (default: session divisor)",
    "fields": "comma-separated vfield names",
    "form": "form name or expression",
    "conn": "connection name",
    "vfield": "vector field name",
    "mult": "multiplier function (default 0)",
    "tau": "closed 1-form to add",
}


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage and exit, so that
    main can report the error in the requested format.  Subparsers share the
    class."""

    def error(self, message):
        raise _UsageError(self, message)


def _long_options(command: str):
    """The long option names of command's parser, as _add_options adds them."""
    return ("--help", "--session", "--format") + tuple(
        "--" + opt.rstrip("!") for opt in _COMMANDS[command][1])


def _json_requested(argv, command: Optional[str]) -> bool:
    """Whether argv asks for --format json, read without parsing it: some
    --word names --format, with json as its =value or as the next word.  For
    a named command a word names the option argparse resolves it to, the
    exact name, else the one name it is a prefix of; with no command only
    --format itself counts."""
    names = () if command is None else _long_options(command)
    for word, after in zip(argv, argv[1:] + [None]):
        name, eq, value = word.partition("=")
        if not name.startswith("--") or (value if eq else after) != "json":
            continue
        hits = [n for n in names if n.startswith(name)]
        if name == "--format" or name not in names and hits == ["--format"]:
            return True
    return False


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """Add command's options to p, its own parser or its subparser."""
    p.add_argument("--session", required=True, help="session file, - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    for opt in _COMMANDS[command][1]:
        key = opt.rstrip("!")
        p.add_argument("--" + key, required=opt.endswith("!"), default=None,
                       help=_HELP.get(key, "function argument"))


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: a tree with one subparser per command."""
    ap = _Parser(
        prog="logsym",
        description="logarithmic symplectic calculus on affine charts",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        _add_options(sub.add_parser(name), name)
    return ap


def _read_direct(command: str, words) -> Optional[argparse.Namespace]:
    """The namespace the tree reads from the command and words, when words are
    pairs of an exact long option of command, given once, and a value that
    is neither -h nor starts with "--", with every required option given
    and --format text or json; else None, and argparse reads and reports
    the words.  A value that starts with a single "-" (-x*y, -3, - for
    stdin) reads as argparse reads --option=value."""
    values = dict.fromkeys(_long_options(command)[1:])
    if len(words) % 2:
        return None
    for name, value in zip(words[::2], words[1::2]):
        if (name not in values or values[name] is not None
                or value[:2] == "--" or value == "-h"):
            return None
        values[name] = value
    required = ["--session"] + ["--" + opt[:-1] for opt in _COMMANDS[command][1]
                                if opt.endswith("!")]
    if any(values[name] is None for name in required):
        return None
    if values["--format"] is None:
        values["--format"] = "text"
    elif values["--format"] not in ("text", "json"):
        return None
    return argparse.Namespace(command=command,
                              **{name[2:]: value for name, value in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse hands every word after the command to its subparser, so a
    # leading command word is the command whatever follows
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = None if command is None else _read_direct(command, argv[1:])
        if args is None:
            tree = build_parser()
            args = tree.parse_args(argv)
            for name in _long_options(args.command)[1:]:
                # argparse strips "--" from an explicit --opt=-- and stores
                # []: the tree reports it as the option with no value
                if isinstance(getattr(args, name[2:]), list):
                    tree.parse_args([args.command, name])
    except _UsageError as e:
        if _json_requested(argv, command):
            doc = {"schema": SCHEMA, "command": command,
                   "error": str(e), "exit": 2}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            # argparse's own report, byte for byte
            e.parser.print_usage(sys.stderr)
            print("%s: error: %s" % (e.parser.prog, e), file=sys.stderr)
        return 2
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 2
    handler, _ = _COMMANDS[args.command]
    try:
        m = _load_session(args.session)
        code, payload, lines = handler(m, args)
    except (CliError, ScalarError, PolyError, CalculusError, LinAlgError,
            DivisorError, PoissonError, PrequantError, SessionError) as e:
        code = e.code if isinstance(e, CliError) else 2
        if args.format == "json":
            doc = {"schema": SCHEMA, "command": args.command,
                   "error": str(e), "exit": code}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print("error: %s" % e, file=sys.stderr)
        return code
    if args.format == "json":
        doc = {"schema": SCHEMA, "command": args.command, "exit": code}
        doc.update(payload)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
