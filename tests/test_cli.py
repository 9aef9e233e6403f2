"""End-to-end checks of the command line interface.

Everything runs in-process through main(argv) so stdout/stderr and exit codes
are the real ones; two subprocess runs at the end pin down byte determinism
across interpreter instances and hash seeds.
"""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import logsym
from logsym.cli import CliError, _get, main
from logsym.sessions import SessionError, parse_session

ROOT = Path(__file__).resolve().parent.parent
SAITO = str(ROOT / "sessions" / "saito3.lsx")
EXACT = str(ROOT / "sessions" / "exact.lsx")
TORUS = str(ROOT / "sessions" / "torus.lsx")
# the directory the logsym imported here lives in, for spawned interpreters
PACKAGE_ROOT = str(Path(logsym.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_stdin(capsys, monkeypatch, session, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(session))
    return run(capsys, *argv)


def lines(out):
    return out.rstrip("\n").split("\n")


# -- divisor commands --------------------------------------------------------


def test_check_divisor(capsys):
    code, out, _ = run(capsys, "check-divisor", "--session", SAITO)
    assert code == 0
    assert lines(out) == ["reduced"]

    code, out, _ = run(capsys, "check-divisor", "--session", SAITO,
                       "--poly", "x*y*z")
    assert code == 0
    assert lines(out) == ["reduced", "normal crossing: x*y*z"]

    code, out, _ = run(capsys, "check-divisor", "--session", EXACT,
                       "--poly", "x^2*y")
    assert code == 1
    assert lines(out) == ["repeated factor: x"]


def test_check_saito_free(capsys):
    code, out, _ = run(capsys, "check-saito", "--session", SAITO,
                       "--fields", "d1,d2,d3")
    assert code == 0
    assert lines(out) == [
        "free: det = x^3*y*z + x^2*y^2*z - 2*x^3*y - x^2*y^2 + x*y^3 = 1*h"
    ]


def test_check_saito_failures(capsys):
    code, out, _ = run(capsys, "check-saito", "--session", SAITO,
                       "--fields", "d1,d2")
    assert code == 1
    assert "not free: need exactly 3 fields, got 2" in out

    # repeating a field makes the determinant vanish
    code, out, _ = run(capsys, "check-saito", "--session", SAITO,
                       "--fields", "d1,d2,d1")
    assert code == 1
    assert lines(out) == ["not free: det = 0 is not a unit multiple of h"]


def test_weights(capsys):
    code, out, _ = run(capsys, "weights", "--session", SAITO)
    assert code == 1
    assert lines(out) == ["none"]

    code, out, _ = run(capsys, "weights", "--session", EXACT,
                       "--poly", "x^2*y+y^3")
    assert code == 0
    assert lines(out) == ["weights: (1, 1) degree 3"]

    code, out, _ = run(capsys, "weights", "--session", SAITO,
                       "--poly", "x^3+y^2+y")
    assert code == 1


# -- symplectic commands -----------------------------------------------------


def test_check_logsymplectic(capsys, monkeypatch):
    code, out, _ = run(capsys, "check-logsymplectic", "--session", EXACT)
    assert code == 0
    assert lines(out) == ["closed: yes", "nondegenerate: yes (det = 1, log frame)"]

    session = "vars x y\ndivisor coords y\nform wdeg : x*d(x)^dlog(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "check-logsymplectic", "--session", "-")
    assert code == 1
    assert lines(out) == ["closed: yes", "nondegenerate: no (det = x^2, log frame)"]

    # --fields switches to the Saito rule: a nonzero constant det, unit or not
    session = ("vars x y\narena poly\nform w : (1+T)*d(x)^d(y)\n"
               "vfield a : @x\nvfield b : @y\nvfield c : x*@x\n")
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                             "--session", "-", "--fields", "a,b")
    assert code == 0
    assert lines(out) == [
        "closed: yes", "nondegenerate: yes (det = T^2 + 2*T + 1, saito frame)",
    ]
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                             "--session", "-", "--fields", "c,b")
    assert code == 1
    assert lines(out) == [
        "closed: yes", "nondegenerate: no (det = (T^2 + 2*T + 1)*x^2, saito frame)",
    ]

    # a frame has one field per coordinate; any other count is an error
    session = "vars x y\ndivisor coords x y\nform w : dlog(x)^dlog(y)\n"
    for fields, got in ((",", 0), ("x*@x", 1), ("x*@x,y*@y,x*@x", 3)):
        code, out, err = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                                   "--session", "-", "--fields", fields)
        assert (code, out, err) == (2, "", "error: a frame needs 2 fields, got %d\n" % got)


def test_hamiltonian_and_brackets(capsys):
    code, out, _ = run(capsys, "hamiltonian", "--session", EXACT, "--f", "x")
    assert (code, lines(out)) == (0, ["delta = -y*@y"])

    code, out, _ = run(capsys, "bracket", "--session", EXACT,
                       "--f", "x", "--g", "y")
    assert (code, lines(out)) == (0, ["{f,g} = -y"])

    code, out, _ = run(capsys, "singbracket", "--session", EXACT,
                       "--f", "x", "--g", "y")
    assert (code, lines(out)) == (0, ["{f,g}_sing = -1"])

    # full torus chart: both brackets pick up the coordinate product
    code, out, _ = run(capsys, "hamiltonian", "--session", TORUS,
                       "--form", "w", "--f", "x")
    assert (code, lines(out)) == (0, ["delta = -x*y*@y"])
    code, out, _ = run(capsys, "bracket", "--session", TORUS,
                       "--form", "w", "--f", "x", "--g", "y")
    assert (code, lines(out)) == (0, ["{f,g} = -x*y"])


def test_scalar_factor_on_either_side(capsys):
    for f in ("2*x", "x*2"):
        code, out, err = run(capsys, "bracket", "--session", EXACT,
                             "--f", f, "--g", "y")
        assert (code, lines(out), err) == (0, ["{f,g} = -2*y"], "")


def test_singbracket_uses_declared_divisor(capsys, monkeypatch):
    # neither x nor y+1 lies in (y), so the singular bracket is the plain one;
    # testing membership against the empty coordinate product 1 instead would
    # put both in the ideal and divide by their product
    session = "vars x y\ndivisor poly y\nform w : d(x)^d(y)\n"
    code, out, err = run_stdin(capsys, monkeypatch, session, "singbracket",
                               "--session", "-", "--f", "x", "--g", "y+1")
    assert (code, lines(out), err) == (0, ["{f,g}_sing = -1"], "")


def test_singbracket_without_divisor(capsys, monkeypatch):
    # a polynomial-arena session with no divisor line: the coordinate product
    # is the constant 1, which cuts out nothing, so no function lies in the
    # ideal and the singular bracket is the plain bracket {y,x} = 1
    session = "vars x y\narena poly\nform w : d(x)^d(y)\n"
    code, out, err = run_stdin(capsys, monkeypatch, session, "singbracket",
                               "--session", "-", "--f", "y", "--g", "x")
    assert (code, lines(out), err) == (0, ["{f,g}_sing = 1"], "")


def test_jacobi(capsys):
    code, out, _ = run(capsys, "jacobi", "--session", EXACT,
                       "--f", "x", "--g", "y", "--h", "x*y")
    assert (code, lines(out)) == (0, ["jacobi defect = 0"])
    code, out, _ = run(capsys, "jacobi", "--session", TORUS, "--form", "w",
                       "--f", "x", "--g", "y", "--h", "x+y")
    assert code == 0


def test_identities(capsys):
    code, out, _ = run(capsys, "identities", "--session", EXACT,
                       "--u", "y", "--v", "y^2", "--a", "x*y", "--b", "x+y")
    assert code == 0
    got = lines(out)
    assert got[:5] == [
        "hamiltonian of a product: holds",
        "bracket vs pairing: holds",
        "bracket of hamiltonian fields: holds",
        "tilde field recombination: holds",
        "jacobi: holds",
    ]
    assert got[5].startswith("additivity over sums (informational): defect = ")
    # the Laurent unit of a torus denominator sits in the numerator
    code, out, _ = run(capsys, "identities", "--session", EXACT,
                       "--u", "y^-1", "--v", "y", "--a", "x", "--b", "y")
    assert code == 0
    assert lines(out)[5] == (
        "additivity over sums (informational): defect = (-y^2 + 1) / (y^2 + 1)")


# -- operator commands -------------------------------------------------------


def test_symbol_and_decompose(capsys):
    code, out, _ = run(capsys, "symbol", "--session", EXACT,
                       "--conn", "s", "--f", "x")
    assert (code, lines(out)) == (0, ["symbol = -y*@y"])

    code, out, _ = run(capsys, "symbol", "--session", EXACT,
                       "--conn", "s", "--vfield", "e1")
    assert (code, lines(out)) == (0, ["symbol = y*@y"])

    # exactly one source for the symbol
    code, _, err = run(capsys, "symbol", "--session", EXACT, "--conn", "s")
    assert code == 2 and "give exactly one of --vfield or --f" in err
    code, _, err = run(capsys, "symbol", "--session", EXACT, "--conn", "s",
                       "--f", "x", "--vfield", "e1")
    assert code == 2 and "give exactly one of --vfield or --f" in err

    code, out, _ = run(capsys, "decompose", "--session", EXACT,
                       "--conn", "s", "--vfield", "e1")
    assert (code, lines(out)) == (0, ["symbol = y*@y", "multiplier = -T*x"])

    code, out, _ = run(capsys, "decompose", "--session", EXACT,
                       "--conn", "s", "--vfield", "e1", "--mult", "x")
    assert (code, lines(out)) == (0, ["symbol = y*@y",
                                      "multiplier = (-T + 1)*x"])


def test_dirac(capsys, monkeypatch):
    code, out, _ = run(capsys, "dirac-test", "--session", EXACT,
                       "--conn", "s", "--f", "x", "--g", "y")
    assert (code, lines(out)) == (0, ["holds"])

    # doubling the connection breaks the curvature normalisation
    session = ("vars x y\ndivisor coords y\n"
               "form w : d(x)^dlog(y)\nconn c : 2*T*x*dlog(y)\n")
    code, out, _ = run_stdin(capsys, monkeypatch, session, "dirac-test",
                             "--session", "-", "--conn", "c",
                             "--f", "x", "--g", "y")
    assert code == 1
    assert lines(out) == ["fails: defect multiplier = T*y"]


# -- connection commands -----------------------------------------------------


def test_curvature_and_gauge(capsys, monkeypatch):
    code, out, _ = run(capsys, "curvature", "--session", EXACT, "--conn", "s")
    assert (code, lines(out)) == (0, ["curvature = T*d(x)^dlog(y)"])

    session = "vars x y\ndivisor coords x y\nconn c : (5/2)*dlog(x) + d(x*y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "curvature", "--session", "-", "--conn", "c")
    assert (code, lines(out)) == (0, ["curvature = 0*dlog(x)^dlog(y)"])

    code, out, _ = run(capsys, "gauge", "--session", EXACT,
                       "--conn", "s", "--tau", "d(x*y)")
    assert (code, lines(out)) == (0, ["sigma = y*d(x) + (x*y + T*x)*dlog(y)"])

    code, _, err = run(capsys, "gauge", "--session", EXACT,
                       "--conn", "s", "--tau", "x*y")
    # a function is a 0-form, so the gauge itself turns it down
    assert code == 2 and err == "error: gauge form must have degree 1\n"


def test_flat(capsys, monkeypatch):
    code, out, _ = run(capsys, "flat", "--session", EXACT, "--conn", "s")
    assert code == 1
    assert lines(out) == ["not flat: curvature = T*d(x)^dlog(y)"]

    session = ("vars x y\ndivisor coords x y\n"
               "conn c : (5/2)*dlog(x) + (-1)*dlog(y) + d(x*y)\n")
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "flat", "--session", "-", "--conn", "c")
    assert (code, lines(out)) == (0, ["flat: residues [5/2, -1]"])


def test_residues(capsys, monkeypatch):
    # residues are taken at the origin stratum, so x*dlog(y) contributes 0
    code, out, _ = run(capsys, "residues", "--session", TORUS, "--form", "u")
    assert (code, lines(out)) == (0, ["residue along x = 0",
                                      "residue along y = 0"])

    code, out, _ = run(capsys, "residues", "--session", EXACT, "--conn", "s")
    assert code == 1
    assert lines(out) == ["nonconstant residue along y: T*x"]

    session = "vars x y\narena poly\nconn c : x*d(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "residues", "--session", "-", "--conn", "c")
    assert (code, lines(out)) == (0, ["no divisor coordinates"])


def test_normalize_residues(capsys, monkeypatch):
    session = ("vars x y\ndivisor coords x y\n"
               "conn c : (5/2)*dlog(x) + (-1)*dlog(y) + d(x*y)\n")
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "normalize-residues", "--session", "-",
                             "--conn", "c")
    assert code == 0
    assert lines(out) == [
        "shifts = (-2, +1)",
        "sigma = (x*y + 1/2)*dlog(x) + x*y*dlog(y)",
    ]

    code, _, err = run(capsys, "normalize-residues", "--session", EXACT,
                       "--conn", "s")
    assert code == 2 and "nonconstant residue along y" in err


# -- period and class commands -----------------------------------------------


def test_periods(capsys):
    code, out, _ = run(capsys, "periods", "--session", TORUS, "--form", "w")
    assert (code, lines(out)) == (0, ["period T^2 over T_{x,y}"])

    code, out, _ = run(capsys, "periods", "--session", EXACT)
    assert (code, lines(out)) == (0, ["no torus 2-cycles"])


def test_integrality_sweep(capsys):
    expected = {
        "wm2": (0, "integral: period = -2*T over T_{x,y}"),
        "wm1": (0, "integral: period = -1*T over T_{x,y}"),
        "w0": (0, "integral: period = 0*T over T_{x,y}"),
        "w1": (0, "integral: period = 1*T over T_{x,y}"),
        "w2": (0, "integral: period = 2*T over T_{x,y}"),
        "wh": (1, "non-integral: period 1/2*T over T_{x,y}"),
        "w3h": (1, "non-integral: period 3/2*T over T_{x,y}"),
    }
    for name, (want_code, want_line) in expected.items():
        code, out, _ = run(capsys, "integrality", "--session", TORUS,
                           "--form", name)
        assert (code, lines(out)) == (want_code, [want_line]), name

    # T^2 is not an integer multiple of T
    code, out, _ = run(capsys, "integrality", "--session", TORUS, "--form", "w")
    assert code == 1
    assert lines(out) == ["non-integral: period T^2 over T_{x,y}"]

    # half chart: nothing to integrate over
    code, out, _ = run(capsys, "integrality", "--session", EXACT)
    assert (code, lines(out)) == (0, ["integral: no torus 2-cycles"])


def test_class_and_primitive(capsys):
    code, out, _ = run(capsys, "class", "--session", TORUS, "--form", "wexact")
    assert (code, lines(out)) == (0, ["class = 0*dlog(x)^dlog(y)"])

    code, out, _ = run(capsys, "class", "--session", TORUS, "--form", "w")
    assert (code, lines(out)) == (0, ["class = dlog(x)^dlog(y)"])

    code, out, _ = run(capsys, "primitive", "--session", TORUS,
                       "--form", "wexact")
    assert (code, lines(out)) == (0, ["primitive = x*dlog(y)"])

    code, out, _ = run(capsys, "class", "--session", TORUS, "--form", "u")
    assert code == 1
    assert lines(out) == ["form is not closed"]


# -- prequantize -------------------------------------------------------------


def test_prequantize_exact_chart(capsys):
    code, out, _ = run(capsys, "prequantize", "--session", EXACT)
    assert code == 0
    assert lines(out) == [
        "closed: yes",
        "nondegenerate: yes",
        "even dimension: yes (n = 2)",
        "integral: yes",
        "class part = 0*d(x)^dlog(y)",
        "connection: sigma = T*x*dlog(y)",
        "residue shifts = (+0)",
        "residue along y = T*x",
        "note: divisor is the coordinate normal crossing y: chart hypotheses"
        " for comparing log and complement cohomology hold",
    ]


def test_prequantize_integral_class(capsys):
    code, out, _ = run(capsys, "prequantize", "--session", TORUS,
                       "--form", "w2")
    assert code == 0
    got = lines(out)
    assert "period 2*T over T_{x,y}" in got
    assert "integral: yes" in got
    assert "class part = 2*dlog(x)^dlog(y)" in got
    assert any(l.startswith("obstruction: class part nonzero") for l in got)
    assert not any(l.startswith("connection:") for l in got)


def test_prequantize_nonintegral(capsys):
    code, out, _ = run(capsys, "prequantize", "--session", TORUS, "--form", "w")
    assert code == 1
    got = lines(out)
    assert "non-integral: period T^2 over T_{x,y}" in got
    assert "obstruction: non-integral period obstructs prequantization" in got


# -- defaults, errors, formats -----------------------------------------------


def test_form_defaulting(capsys):
    # a unique form in the session is picked up without --form
    code, out, _ = run(capsys, "hamiltonian", "--session", EXACT, "--f", "x")
    assert code == 0

    code, _, err = run(capsys, "bracket", "--session", TORUS,
                       "--f", "x", "--g", "y")
    assert code == 2 and "give --form (session has 10 forms)" in err

    code, _, err = run(capsys, "bracket", "--session", SAITO,
                       "--f", "x", "--g", "y")
    assert code == 2 and "give --form (session has 0 forms)" in err


def test_error_paths(capsys):
    code, _, err = run(capsys, "bracket", "--session", "missing.lsx",
                       "--f", "x", "--g", "y")
    assert code == 2 and "cannot read session" in err

    code, _, err = run(capsys, "bracket", "--session", EXACT,
                       "--f", "x +", "--g", "y")
    assert code == 2
    assert "line 1, col 4: expected an expression, found end of line" in err

    code, _, err = run(capsys, "bracket", "--session", EXACT,
                       "--f", "nosuch", "--g", "y")
    assert code == 2 and "unknown name 'nosuch'" in err


# -- one value vocabulary: a text means the same value in a file and as an
# argument


ATOMS = ("0", "2", "T", "x", "x+y", "d(x)", "dlog(y)", "d(x)^dlog(y)",
         "@x", "y*@y", "x*dlog(y)")
NOUNS = {"func": "function", "vfield": "vector field", "form": "form",
         "conn": "connection"}


def test_same_text_same_value():
    """The line '<kind> n : <atom>' parses exactly when the CLI accepts the
    atom as that kind, and both give equal values."""
    accepted = 0
    for path in (EXACT, SAITO, TORUS):
        text = Path(path).read_text(encoding="utf-8")
        m = parse_session(text)
        for kind, noun in NOUNS.items():
            for atom in ATOMS:
                try:
                    in_file = parse_session(
                        "%s%s n : %s\n" % (text, kind, atom)).table(kind)["n"]
                except SessionError:
                    in_file = None
                try:
                    as_arg = _get(m, atom, noun)
                except CliError:
                    as_arg = None
                assert in_file == as_arg, (path, kind, atom)
                accepted += as_arg is not None
    assert accepted  # the grid is not all refusals


# Errors raised inside the library, each reported by main's one handler with
# exit 2: "error: <message>" on stderr, or a json error document.
LIBRARY_ERRORS = [
    (["singbracket", "--session", "-", "--f", "2*y", "--g", "x*y"],
     "vars x y\ndivisor poly x*y\nform w : d(x)^d(y)\n",
     "{a,v}/v does not stay in the arena ring: (2) / (x)"),
    (["identities", "--session", EXACT, "--u", "x+y", "--v", "y",
      "--a", "x", "--b", "y"], "",
     "du/u needs a monomial, got x + y"),
    (["check-logsymplectic", "--session", "-", "--fields", "u,v"],
     "vars x y\ndivisor coords y\narena poly\nform w : d(x)^dlog(y)\n"
     "vfield u : @x\nvfield v : @y\n",
     "field is not logarithmic along y: its @y coefficient is not divisible by y"),
    (["gauge", "--session", EXACT, "--conn", "s", "--tau", "x*dlog(y)"], "",
     "gauge form must be closed"),
    (["residues", "--session", TORUS, "--form", "x^-1*dlog(y)"], "",
     "residue along y meets a pole in x"),
    (["normalize-residues", "--session", "-", "--conn", "s"],
     "vars x y\narena poly\ndivisor coords y\nconn s : x*dlog(y)\n",
     "residue normalization lives in the torus arena"),
]


def _error_bytes(command, message):
    doc = {"command": command, "error": message, "exit": 2, "schema": "logsym/1"}
    return "error: %s\n" % message, json.dumps(doc, indent=2) + "\n"


def test_library_error_bytes(capsys, monkeypatch):
    for argv, session, message in LIBRARY_ERRORS:
        text, doc = _error_bytes(argv[0], message)
        assert run_stdin(capsys, monkeypatch, session, *argv) == (2, "", text)
        assert run_stdin(capsys, monkeypatch, session, *argv,
                         "--format", "json") == (2, doc, "")


def test_numbers_past_the_digit_limit(capsys, monkeypatch, digit_limit):
    """A number CPython will not convert to or from text is a typed error with
    exit 2, from the scanner, the printer or the integer fields."""
    numeral = "9" * (digit_limit + 700)
    too_long = "a number of more than %d digits is too long to print" % digit_limit
    session = "vars x y\ndivisor coords x y\nform w : 9^5000*(1/T)*dlog(x)^dlog(y)\n"
    cases = [
        (["bracket", "--session", EXACT, "--f", numeral, "--g", "y"], "",
         "in %r: line 1, col 1: expected a numeral of at most %d digits, found"
         " %d digits" % (numeral, digit_limit, len(numeral))),
        (["bracket", "--session", EXACT, "--f", "9^5000*x", "--g", "y"], "", too_long),
        (["integrality", "--session", "-"], session, too_long),
        (["normalize-residues", "--session", TORUS, "--conn", "9^5000*dlog(y)"], "",
         too_long),
    ]
    for argv, stdin, message in cases:
        text, doc = _error_bytes(argv[0], message)
        assert run_stdin(capsys, monkeypatch, stdin, *argv) == (2, "", text)
        assert run_stdin(capsys, monkeypatch, stdin, *argv,
                         "--format", "json") == (2, doc, "")


def test_argparse_paths(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "nosuchcmd", "--session", EXACT)[0] == 2


COMMANDS = ("bracket", "check-divisor", "check-logsymplectic", "check-saito",
            "class", "curvature", "decompose", "dirac-test", "flat", "gauge",
            "hamiltonian", "identities", "integrality", "jacobi",
            "normalize-residues", "periods", "prequantize", "primitive",
            "residues", "singbracket", "symbol", "weights")
CHOICES = "{%s}" % ",".join(COMMANDS)
TOP_USAGE = "usage: logsym [-h]\n              %s\n              ...\n" % CHOICES
INVALID = ("argument command: invalid choice: 'nosuchcmd' (choose from %s)"
           % ", ".join("'%s'" % c for c in COMMANDS))


def test_one_subparser_per_command_call(capsys, monkeypatch):
    """A call that names its command builds that command's parser only."""
    real = argparse._SubParsersAction.add_parser
    added = []

    def counting(self, name, **kwargs):
        added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    code, out, _ = run(capsys, "bracket", "--session", EXACT, "--f", "x", "--g", "y")
    assert (code, lines(out)) == (0, ["{f,g} = -y"])
    assert added == ["bracket"]


def test_top_level_usage_bytes(capsys, monkeypatch):
    """Where the top-level parser reports, its usage lists every command,
    also when the call named one."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = run(capsys, "bracket", "--session", EXACT, "--f", "x",
                         "--g", "y", "extra")
    assert (code, out) == (2, "")
    assert err == TOP_USAGE + "logsym: error: unrecognized arguments: extra\n"

    code, out, err = run(capsys, "nosuchcmd", "--session", EXACT)
    assert (code, out) == (2, "")
    assert err == TOP_USAGE + "logsym: error: %s\n" % INVALID

    code, out, err = run(capsys, "nosuchcmd", "--session", EXACT, "--format", "json")
    assert (code, err) == (2, "")
    assert out == json.dumps({"command": None, "error": INVALID, "exit": 2,
                              "schema": "logsym/1"}, indent=2) + "\n"

    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert out == (
        TOP_USAGE
        + "\nlogarithmic symplectic calculus on affine charts\n"
        + "\npositional arguments:\n  %s\n" % CHOICES
        + "\noptions:\n  -h, --help            show this help message and exit\n"
    )


JSON_SMOKE = [
    ("check-divisor", ["--session", SAITO], 0),
    ("check-saito", ["--session", SAITO, "--fields", "d1,d2,d3"], 0),
    ("check-logsymplectic", ["--session", EXACT], 0),
    ("hamiltonian", ["--session", EXACT, "--f", "x"], 0),
    ("bracket", ["--session", EXACT, "--f", "x", "--g", "y"], 0),
    ("singbracket", ["--session", EXACT, "--f", "x", "--g", "y"], 0),
    ("jacobi", ["--session", EXACT, "--f", "x", "--g", "y", "--h", "x*y"], 0),
    ("identities", ["--session", EXACT, "--u", "y", "--v", "y^2",
                    "--a", "x*y", "--b", "x+y"], 0),
    ("symbol", ["--session", EXACT, "--conn", "s", "--f", "x"], 0),
    ("decompose", ["--session", EXACT, "--conn", "s", "--vfield", "e1"], 0),
    ("dirac-test", ["--session", EXACT, "--conn", "s",
                    "--f", "x", "--g", "y"], 0),
    ("curvature", ["--session", EXACT, "--conn", "s"], 0),
    ("gauge", ["--session", EXACT, "--conn", "s", "--tau", "d(x*y)"], 0),
    ("flat", ["--session", EXACT, "--conn", "s"], 1),
    ("residues", ["--session", TORUS, "--form", "u"], 0),
    ("normalize-residues", ["--session", EXACT, "--conn", "s"], 2),
    ("periods", ["--session", TORUS, "--form", "w"], 0),
    ("integrality", ["--session", TORUS, "--form", "w2"], 0),
    ("class", ["--session", TORUS, "--form", "w"], 0),
    ("primitive", ["--session", TORUS, "--form", "wexact"], 0),
    ("prequantize", ["--session", EXACT], 0),
    ("weights", ["--session", SAITO], 1),
    ("weights", ["--session", SAITO, "--poly", "0"], 2),
    ("weights", [], 2),  # argparse usage error: --session missing
]


def test_json_documents(capsys):
    """Every subcommand emits a self-describing json document whose exit field
    matches the process exit code; errors carry an error key instead of a
    payload."""
    for cmd, extra, want in JSON_SMOKE:
        code, out, err = run(capsys, cmd, *extra, "--format", "json")
        assert code == want, (cmd, err)
        doc = json.loads(out)
        assert doc["schema"] == "logsym/1"
        assert doc["command"] == cmd
        assert doc["exit"] == code
        if code == 2:
            assert "error" in doc
        else:
            assert "error" not in doc
            assert len(doc) > 3  # some payload beyond the envelope


def test_text_json_exit_agreement(capsys):
    for cmd, extra, want in JSON_SMOKE:
        text_code, _, _ = run(capsys, cmd, *extra)
        json_code, _, _ = run(capsys, cmd, *extra, "--format", "json")
        assert text_code == json_code == want, cmd


def test_prequantize_json_payload(capsys):
    code, out, _ = run(capsys, "prequantize", "--session", TORUS,
                       "--form", "w2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["prequantizable"] is True
    assert doc["integral"] is True
    assert doc["connection"] is None
    assert doc["class"] == "2*dlog(x)^dlog(y)"
    assert doc["periods"] == [{"cycle": "T_{x,y}", "value": "2*T"}]


def _spawn(argv, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-m", "logsym.cli"] + argv,
                          capture_output=True, env=env)


def test_byte_determinism():
    """Identical invocations produce identical bytes, independent of the hash
    seed; printing never depends on set or dict iteration order."""
    argv = ["prequantize", "--session", TORUS, "--form", "w2",
            "--format", "json"]
    a = _spawn(argv, "0")
    b = _spawn(argv, "1")
    assert a.returncode == b.returncode == 0, (a.stderr + b.stderr).decode()
    assert a.stdout == b.stdout

    argv = ["check-saito", "--session", SAITO, "--fields", "d1,d2,d3"]
    a = _spawn(argv, "3")
    b = _spawn(argv, "4")
    assert a.returncode == b.returncode == 0, (a.stderr + b.stderr).decode()
    assert a.stdout == b.stdout
