"""The golden CLI corpus: a seeded list of in-process ``logsym`` calls and one
SHA-256 digest per (command, session, format) group.

A group's digest covers, call by call, the argv, the exit code, stdout and
stderr; the calls run from the repository root, where the argv's session
paths point.  The calls use all 22 commands on the three shipped sessions (by
path), on fixed sessions read from stdin (the two sessions of ROADMAP item 1,
a ``divisor poly`` session with Saito fields, a 4-variable torus chart, a
``divisor poly`` with monomial content and one malformed session per error
class) and on a missing file, with seeded
random arguments in text and json (a few of them of the wrong kind), plus
a few usage errors per command and fixed regression calls
(``REGRESSIONS``): calls that once let an exception escape, the
evaluator's refusals of mixed kinds, forms past the top degree, unit
divisors, and the verdicts on coordinate divisors that the ring deciding
them changes (ROADMAP items 1 and 19).  The argv list itself,
and the stdin of a group that gives one per call, are kept in the file, so
the corpus does not depend on this generator once it is written.

    python tests/golden_cli.py          # rewrite tests/golden_cli.json
    python tests/golden_cli.py --check  # name the groups whose digest changed

``tests/test_golden_cli.py`` runs the check.  A change that moves printed
bytes on purpose rewrites the file and says in CHANGES.md which groups moved
and why.  argparse wraps usage text to the terminal, so every call runs with
COLUMNS=80; its messages also differ between CPython minor versions, and the
file records the version it was written with.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "golden_cli.json"
SEED = 2021
CALLS = 8  # random calls per group on a well-formed session

# -- sessions ---------------------------------------------------------------

SHIPPED = ("sessions/exact.lsx", "sessions/saito3.lsx", "sessions/torus.lsx")
MISSING = "missing-session.lsx"

STDIN = {
    # ROADMAP item 1: a coordinate divisor, inverted in the chart's ring
    "coords-y": "vars x y\ndivisor coords y\nform w : d(x)^d(y)\n",
    # ROADMAP item 1: a divisor poly with no coordinate on the divisor
    "poly-xy": "vars x y\ndivisor poly x*y*(x+y)\nform w : d(x)^d(y)\n",
    # the same with its Saito fields
    "poly-saito": (
        "vars x y\ndivisor poly x*y*(x+y)\nform w : d(x)^d(y)\n"
        "vfield e : x*@x + y*@y\nvfield s : y*(x+y)*@y\nfunc h : x*y*(x+y)\n"
    ),
    "torus4": (
        "# four coordinates, all on the divisor\n"
        "vars x y z w\ndivisor coords x y z w\n"
        "form om : dlog(x)^dlog(y) + dlog(z)^dlog(w)\n"
        "form om2 : (1/T)*dlog(x)^dlog(y) + (2/T)*dlog(z)^dlog(w) + dlog(x)^dlog(z)\n"
        "form ex : d(x*dlog(y) + z*w*dlog(x))\n"
        "conn c : T*x*dlog(y) + T*z*dlog(w)\n"
        "vfield e : x*@x + z*@z\n"
        "func f : x*y + z\nfunc g : w^-1*x\n"
    ),
    # a divisor poly with monomial content and repeated factors, named by a func
    "poly-content": (
        "vars x y\ndivisor poly x^40*y*(x+y)^2\nform w : d(x)^d(y)\n"
        "func h : x^40*y*(x+y)^2\n"
    ),
    # one malformed session per error class
    "bad-bytes": "vars x y\n# caf\udce9\nform w : d(x)^d(y)\n",
    "bad-token": "vars x y\nform w : d(x)$d(y)\n",
    "bad-grammar": "vars x y\nform w d(x)^d(y)\n",
    "bad-header": "form w : d(x)^d(y)\n",
    "bad-kind": "vars x y\nform w : @x\n",
    "bad-name": "vars x y\nfunc f : q*x\n",
    "bad-context": "vars x x\n",
}

# what the argument generator may draw from on each well-formed session:
# variables, divisor coordinates (dlog is legal there), Laurent exponents,
# and the session's own names by kind
POOLS = {
    "sessions/exact.lsx": dict(
        vars="x y", div="y", laurent=True, func="f1 f2 f3 f4 f5", form2="w",
        form="", conn="s", vfield="e1"),
    "sessions/saito3.lsx": dict(
        vars="x y z", div="", laurent=False, func="", form2="", form="",
        conn="", vfield="d1 d2 d3"),
    "sessions/torus.lsx": dict(
        vars="x y", div="x y", laurent=True, func="",
        form2="w wexact wm2 wm1 w0 w1 w2 wh w3h", form="u", conn="",
        vfield=""),
    "coords-y": dict(vars="x y", div="y", laurent=True, func="", form2="w",
                     form="", conn="", vfield=""),
    "poly-xy": dict(vars="x y", div="", laurent=False, func="", form2="w",
                    form="", conn="", vfield=""),
    "poly-saito": dict(vars="x y", div="", laurent=False, func="h", form2="w",
                       form="", conn="", vfield="e s"),
    "torus4": dict(vars="x y z w", div="x y z w", laurent=True, func="f g",
                   form2="om om2 ex", form="", conn="c", vfield="e"),
    "poly-content": dict(vars="x y", div="", laurent=False, func="h",
                         form2="w", form="", conn="", vfield=""),
}

# -- argument generation ----------------------------------------------------

_COEFS = ("", "", "2*", "-", "1/2*", "T*", "I*", "(1 + I)*", "(3/T)*")


def _monomial(rng, pool):
    names = pool["vars"].split()
    laurent = pool["div"].split() if pool["laurent"] else []
    parts = []
    for v in rng.sample(names, rng.randint(0, min(2, len(names)))):
        e = rng.choice((1, 1, 2, -1) if v in laurent else (1, 1, 2))
        parts.append(v if e == 1 else "%s^%d" % (v, e))
    return "*".join(parts) or "1"


def _func(rng, pool):
    own = pool["func"].split()
    if own and rng.random() < 0.25:
        return rng.choice(own)
    out = ""
    for k in range(rng.randint(1, 3)):
        sign = "" if k == 0 else rng.choice((" + ", " - "))
        out += sign + rng.choice(_COEFS) + _monomial(rng, pool)
    return out


def _unit_monomial(rng, pool):
    """Mostly a monomial on the divisor coordinates (a divisor-ideal member),
    sometimes any function."""
    div = pool["div"].split()
    if not div or rng.random() < 0.2:
        return _func(rng, pool)
    parts = [v if rng.random() < 0.7 else v + "^2"
             for v in rng.sample(div, rng.randint(1, min(2, len(div))))]
    return rng.choice(("", "", "2*", "T*")) + "*".join(parts)


def _basis(v, pool):
    return "dlog(%s)" % v if v in pool["div"].split() else "d(%s)" % v


def _one_form(rng, pool):
    names = pool["vars"].split()
    terms = ["(%s)*%s" % (_func(rng, pool), _basis(v, pool))
             for v in rng.sample(names, rng.randint(1, len(names)))]
    return "(" + ") + (".join(terms) + ")" if len(terms) > 1 else terms[0]


def _two_form(rng, pool):
    own = pool["form2"].split()
    if own and rng.random() < 0.6:
        return rng.choice(own)
    names = pool["vars"].split()
    r = rng.random()
    if r < 0.4:
        return "d(%s)" % _one_form(rng, pool)
    a, b = rng.sample(names, 2)
    out = "%s%s^%s" % (rng.choice(_COEFS), _basis(a, pool), _basis(b, pool))
    if len(names) >= 4:
        c, e = [v for v in names if v not in (a, b)][:2]
        out += " + %s%s^%s" % (rng.choice(_COEFS), _basis(c, pool), _basis(e, pool))
    if r > 0.85:
        out += " + d(%s)" % _one_form(rng, pool)
    return out


def _any_form(rng, pool):
    own = pool["form"].split() + pool["form2"].split()
    r = rng.random()
    if own and r < 0.3:
        return rng.choice(own)
    if r < 0.5:
        return "d(%s)" % _func(rng, pool)
    if r < 0.7:
        return _one_form(rng, pool)
    return _two_form(rng, pool)


def _conn(rng, pool):
    own = pool["conn"].split()
    if own and rng.random() < 0.4:
        return rng.choice(own)
    return _one_form(rng, pool)


def _vfield(rng, pool):
    own = pool["vfield"].split()
    if own and rng.random() < 0.4:
        return rng.choice(own)
    names = pool["vars"].split()
    div = pool["div"].split()
    terms = []
    for v in rng.sample(names, rng.randint(1, len(names))):
        lead = "%s*" % v if v in div else ""
        terms.append("(%s)*%s@%s" % (_func(rng, pool), lead, v))
    return " + ".join(terms)


def _fields(rng, pool):
    own = pool["vfield"].split()
    n = len(pool["vars"].split())
    if own and rng.random() < 0.7:
        k = n if rng.random() < 0.8 else rng.randint(1, n + 1)
        return ",".join(rng.choice(own) for _ in range(k))
    return ",".join(_vfield(rng, pool).replace(" + ", "+") for _ in range(n))


def _tau(rng, pool):
    div = pool["div"].split()
    if div and rng.random() < 0.4:
        return "%s%s" % (rng.choice(_COEFS), "dlog(%s)" % rng.choice(div))
    return "d(%s)" % _func(rng, pool)


_MAKERS = {
    "poly": _func, "f": _func, "g": _func, "h": _func, "a": _func, "b": _func,
    "mult": _func, "u": _unit_monomial, "v": _unit_monomial, "conn": _conn,
    "vfield": _vfield, "fields": _fields, "tau": _tau,
}


def _form_or_field(rng, pool):
    return rng.choice((_one_form, _vfield))(rng, pool)


# a share WRONG_KIND of function and connection options get a value of
# another kind: a form or a field where a function is wanted, a function
# where a connection is, so a slip in the rule that coerces an argument shows
WRONG_KIND = 0.1
_WRONG = {key: _form_or_field for key, make in _MAKERS.items()
          if make in (_func, _unit_monomial)}
_WRONG["conn"] = _func

# commands whose --form is a form of any degree, not a 2-form
_ANY_DEGREE = {"class", "primitive"}
# commands that want one option of a pair, mostly given alone
_ONE_OF = {"symbol": ("vfield", "f"), "residues": ("conn", "form")}


def _argv(rng, command, session, fmt, options, pool):
    argv = [command, "--session", session if session.endswith(".lsx") else "-"]
    pair = _ONE_OF.get(command)
    alone = rng.choice(pair) if pair and rng.random() < 0.9 else None
    for opt in options:
        key = opt.rstrip("!")
        if alone and key in pair:
            if key != alone:
                continue
        elif not opt.endswith("!") and rng.random() < (0.15 if key == "form" else 0.5):
            continue
        if key == "form":
            value = (_any_form if command in _ANY_DEGREE else
                     _one_form if command == "residues" else _two_form)(rng, pool)
        elif key in _WRONG and rng.random() < WRONG_KIND:
            value = _WRONG[key](rng, pool)
        else:
            value = _MAKERS[key](rng, pool)
        argv += ["--" + key, value]
    if fmt == "json":
        argv += ["--format", "json"]
    return argv


def _usage_calls(command, fmt, options):
    """Calls argparse reports (or answers with help) before any session is
    read."""
    tail = ["--format", "json"] if fmt == "json" else []
    required = [o.rstrip("!") for o in options if o.endswith("!")]
    full = [command, "--session", SHIPPED[0]]
    for key in required:
        full += ["--" + key, "x"]
    calls = [
        full[:-2] + tail if required else [command] + tail,
        full + ["--bogus", "1"] + tail,
        [command, "--sess=" + SHIPPED[0]] + full[3:] + ["--format=" + fmt],
    ]
    if fmt == "text":
        calls.append([command, "--help"])
    return calls


def _both_formats(calls):
    return [argv + tail for argv in calls for tail in ([], ["--format", "json"])]


# expressions whose evaluation names the kinds of its operands or reads an
# exponent, given as --poly on a torus chart
_KIND_TEXTS = ["2 + d(x)", "@x - 2", "2/@x", "x/(1+T)", "I/0", "(1+T)^-1", "0^-1",
               "x^(y - y + 2)"]
# session lines that define a number as a field or a connection
_KIND_LINES = ["vfield v : 2", "conn c : 2"]

# a 2-dimensional chart whose d(w) and d(x)^d(y)^d(x) lie past the top
# degree, and a 1-dimensional one whose curvature does
_TOP = "vars x y\ndivisor coords x y\nform w : dlog(x)^dlog(y)\n"
_LINE = "vars x\ndivisor coords x\nconn c : x*dlog(x)\n"


def _on_stdin(command, text, options):
    """A group of calls of command, one per option list, in text and json,
    every call reading the session text on stdin."""
    return _cases(command, [(text, o) for o in options])


def _cases(command, cases):
    """A group of calls of command, one text and one json call per
    (session, options) case; a session that is not a path to a .lsx file is
    its text, read on stdin."""
    calls, stdin = [], []
    for session, options in cases:
        path = session if session.endswith(".lsx") else "-"
        calls += _both_formats([[command, "--session", path] + options])
        stdin += ["" if path != "-" else session] * 2
    return {"command": command, "session": "-", "format": "text+json",
            "stdin": stdin, "calls": calls}


# ROADMAP items 1 and 19: log frames on coordinate divisors, whose det is a
# unit on U and may not be one along D, and the arena that once picked one
_COORDS_Y = "vars x y\ndivisor coords y\nform w : d(x)^d(y)\n"
_POLE_U = "vars u v\ndivisor coords u v\nform w : -u^-1*dlog(u)^dlog(v)\n"
_ALONG = [(_COORDS_Y, []), (_POLE_U, []), ("sessions/exact.lsx", ["--form", "w"]),
          ("sessions/torus.lsx", ["--form", "w"])]
_PLANE_XY = "vars x y\ndivisor poly x*y\nform w : d(x)^d(y)\n"
_IDENTITY_ARGS = ["--u", "x", "--v", "y", "--a", "x", "--b", "y"]


# fixed calls, one group each, text and json together: calls that once let
# an exception escape main, the evaluator's texts for mixed kinds, forms past
# the top degree, unit divisors and the ring a verdict is decided in.  A group whose calls read different
# sessions on stdin gives them in "stdin", one per call.
REGRESSIONS = [
    # u + v = 0: identity (ii)'s {u+v,a}/(u+v) has a zero denominator
    {"command": "identities", "session": "sessions/torus.lsx", "format": "text+json",
     "calls": _both_formats([["identities", "--session", "sessions/torus.lsx",
                              "--form", "w", "--u", "x", "--v=-x", "--a", "y",
                              "--b", "x*y"]])},
    {"command": "check-divisor", "session": "-", "format": "text+json",
     # the text and the json call of a pair read one session
     "stdin": [""] * 2 * len(_KIND_TEXTS)
     + ["vars x y\n%s\n" % line for line in _KIND_LINES for _ in range(2)],
     "calls": _both_formats(
         [["check-divisor", "--session", "sessions/torus.lsx", "--poly", text]
          for text in _KIND_TEXTS]
         + [["check-divisor", "--session", "-", "--poly", "x"]] * len(_KIND_LINES))},
    _cases("check-logsymplectic",
           [(_TOP, ["--form", "d(w)"]), (_TOP, ["--form", "d(x)^d(y)^d(x)"])]
           + _ALONG),
    _cases("prequantize", _ALONG),
    # @x is not logarithmic along x*y in the polynomial ring
    _cases("check-saito", [("vars x y\ndivisor coords x y\n", ["--fields", "@x,y*@y"])]),
    # x is no member of the ideal of x*y, with or without an arena line
    _cases("singbracket", [(_PLANE_XY, ["--f", "x", "--g", "x*y"]),
                           ("arena torus\n" + _PLANE_XY, ["--f", "x", "--g", "x*y"])]),
    # an arena line, refused since the switch is removed
    _cases("identities", [("arena poly\n" + _TOP, _IDENTITY_ARGS),
                          ("arena torus\n" + _TOP, _IDENTITY_ARGS)]),
    _on_stdin("periods", _TOP, [["--form", "w + d(w)"]]),
    _on_stdin("class", _TOP, [["--form", "d(w)"]]),
    _on_stdin("curvature", _LINE, [["--conn", "c"]]),
    # a unit h cuts the empty divisor; x^2*y has a repeated factor x, and
    # x^-1*y is no polynomial
    {"command": "check-divisor", "session": "sessions/torus.lsx", "format": "text+json",
     "calls": _both_formats([["check-divisor", "--session", "sessions/torus.lsx",
                              "--poly", h] for h in ("3", "T", "x^2*y", "x^-1*y")])},
]


def build_groups():
    """The corpus's groups, each {command, session, format, calls}, in a
    fixed order; each group's arguments come from its own seeded stream."""
    from logsym.cli import _COMMANDS

    groups = []
    for command in sorted(_COMMANDS):
        options = _COMMANDS[command][1]
        for fmt in ("text", "json"):
            for session in SHIPPED + tuple(STDIN) + (MISSING,):
                rng = random.Random("%d:%s:%s:%s" % (SEED, command, session, fmt))
                pool = POOLS.get(session)
                if pool is None:
                    # malformed or missing: the session fails before any argument is read
                    calls = [_argv(rng, command, session, fmt, options, POOLS[SHIPPED[0]])]
                else:
                    calls = [_argv(rng, command, session, fmt, options, pool)
                             for _ in range(CALLS)]
                if session == SHIPPED[0]:
                    calls += _usage_calls(command, fmt, options)
                groups.append({"command": command, "session": session,
                               "format": fmt, "calls": calls})
    top = [[], ["--format", "json"], ["nosuch", "--session", SHIPPED[0]],
           ["--help"], ["--session", SHIPPED[0]]]
    groups.append({"command": "", "session": "", "format": "", "calls": top})
    groups += REGRESSIONS
    return groups


# -- running ----------------------------------------------------------------


def run_call(argv, stdin: bytes):
    """(exit, stdout, stderr) of one in-process main(argv), stdin being the
    given bytes as the interpreter would wrap them; an exception that
    escapes main is recorded in place of the exit code."""
    from logsym.cli import main

    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8",
                                 errors="surrogateescape")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = "SystemExit %r" % (e.code,)
            except Exception as e:  # recorded, so a changed escape shows
                code = "%s: %s" % (type(e).__name__, e)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(group) -> str:
    calls = group["calls"]
    stdins = group.get("stdin", [STDIN.get(group["session"], "")] * len(calls))
    h = hashlib.sha256()
    for argv, stdin in zip(calls, stdins):
        code, out, err = run_call(argv, stdin.encode("utf-8", "surrogateescape"))
        h.update(json.dumps([argv, code, out, err]).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def group_key(group) -> str:
    return "%s | %s | %s" % (group["command"] or "(no command)",
                             group["session"] or "-", group["format"] or "-")


def digests(groups):
    """{group key: digest}, run from the repository root (the argv names
    session files relative to it, and some errors echo the name) with
    COLUMNS=80 for argparse's usage text.  Two groups with one key are
    refused before any call runs: one digest could not stand for both."""
    counts = Counter(group_key(g) for g in groups)
    twice = sorted(k for k, n in counts.items() if n > 1)
    if twice:
        raise ValueError("duplicate group key: " + "; ".join(twice))
    saved, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        return {group_key(g): digest(g) for g in groups}
    finally:
        os.chdir(cwd)
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def changed_groups(corpus):
    """The keys of the committed groups whose digest differs now."""
    now = digests(corpus["groups"])
    return [group_key(g) for g in corpus["groups"] if now[group_key(g)] != g["sha256"]]


def write(groups):
    got = digests(groups)
    lines = ["{",
             '"python": %s,' % json.dumps("%d.%d" % sys.version_info[:2]),
             '"seed": %d,' % SEED,
             '"sessions": %s,' % json.dumps(STDIN, indent=1, sort_keys=True),
             '"groups": [']
    for n, g in enumerate(groups):
        head = {k: g[k] for k in ("command", "session", "format", "stdin") if k in g}
        head["sha256"] = got[group_key(g)]
        lines.append(json.dumps(head)[:-1] + ', "calls": [')
        lines.append(",\n".join(json.dumps(a) for a in g["calls"]))
        lines.append("]}" + ("," if n < len(groups) - 1 else ""))
    lines += ["]", "}", ""]
    CORPUS.write_text("\n".join(lines), encoding="utf-8")
    return len(groups), sum(len(g["calls"]) for g in groups)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        bad = changed_groups(load())
        for key in bad:
            print("changed: " + key)
        return 1 if bad else 0
    if argv:
        print("usage: golden_cli.py [--check]", file=sys.stderr)
        return 2
    n, calls = write(build_groups())
    print("wrote %s: %d groups, %d calls" % (CORPUS.name, n, calls))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
