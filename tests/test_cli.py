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
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logsym
from logsym import cli, poisson
from logsym.cli import CliError, _get, main
from logsym.poly import Poly
from logsym.sessions import SessionError, parse_session, print_canonical

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

    # a unit cuts the empty divisor, which the text names
    for h in ("3", "T"):
        code, out, _ = run(capsys, "check-divisor", "--session", EXACT, "--poly", h)
        assert (code, lines(out)) == (0, ["reduced", "normal crossing: none, h is a unit"])
        code, out, _ = run(capsys, "check-divisor", "--session", EXACT, "--poly", h,
                           "--format", "json")
        assert json.loads(out)["coords"] == []


def test_check_saito_free(capsys):
    code, out, _ = run(capsys, "check-saito", "--session", SAITO,
                       "--fields", "d1,d2,d3")
    assert code == 0
    assert lines(out) == [
        "free: det = x^3*y*z + x^2*y^2*z - 2*x^3*y - x^2*y^2 + x*y^3 = 1*h"
    ]


def test_check_saito_failures(capsys):
    # a frame has one field per coordinate; any other count is an error
    for fields, got in (("d1,d2", 2), ("d1", 1), ("d1,d2,d3,d1", 4)):
        assert run(capsys, "check-saito", "--session", SAITO, "--fields", fields) == (
            2, "", "error: a frame needs 3 fields, got %d\n" % got)

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
    assert lines(out) == ["closed: yes", "nondegenerate: yes (det = 1, log frame)",
                          "along D: yes (det = 1, polynomial ring)"]

    session = "vars x y\ndivisor coords y\nform wdeg : x*d(x)^dlog(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "check-logsymplectic", "--session", "-")
    assert code == 1
    assert lines(out) == ["closed: yes", "nondegenerate: no (det = x^2, log frame)",
                          "along D: no (det = x^2, polynomial ring)"]

    # --fields asks the same unit test in the polynomial ring: (1+T)^2 is a
    # nonzero constant but no unit, on the log frame as on a given frame
    session = ("vars x y\nform w : (1+T)*d(x)^d(y)\n"
               "vfield a : @x\nvfield b : @y\nvfield c : x*@x\n")
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                             "--session", "-")
    assert code == 1
    assert lines(out) == [
        "closed: yes", "nondegenerate: no (det = T^2 + 2*T + 1, log frame)",
    ]
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                             "--session", "-", "--fields", "a,b")
    assert code == 1
    assert lines(out) == [
        "closed: yes", "nondegenerate: no (det = T^2 + 2*T + 1, saito frame)",
    ]
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                             "--session", "-", "--fields", "c,b")
    assert code == 1
    assert lines(out) == [
        "closed: yes", "nondegenerate: no (det = (T^2 + 2*T + 1)*x^2, declared frame)",
    ]

    # a frame has one field per coordinate; any other count is an error
    session = "vars x y\ndivisor coords x y\nform w : dlog(x)^dlog(y)\n"
    for fields, got in ((",", 0), ("x*@x", 1), ("x*@x,y*@y,x*@x", 3)):
        code, out, err = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                                   "--session", "-", "--fields", fields)
        assert (code, out, err) == (2, "", "error: a frame needs 2 fields, got %d\n" % got)

    # a 3-form past the top degree is not taken for a 2-form
    code, out, err = run_stdin(capsys, monkeypatch, session, "check-logsymplectic",
                               "--session", "-", "--form", "d(x)^d(y)^d(x)")
    assert (code, out, err) == (2, "", "error: --form must be a 2-form\n")


COORDS_Y = "vars x y\ndivisor coords y\nform w : d(x)^d(y)\n"
POLE_U = "vars u v\ndivisor coords u v\nform w : -u^-1*dlog(u)^dlog(v)\n"


def test_a_declared_frame_is_named_by_saito_check(capsys, monkeypatch):
    """A frame given with --fields is a saito frame when saito_check calls it
    free along the session's divisor equation, or along h = 1 without one,
    and a declared frame otherwise, in text and json: @u is not logarithmic
    along u*v, x*@x, @y has det x, not a unit times 1, and a field with a
    pole is no derivation of the polynomial ring."""
    uv = "vars u v\ndivisor coords u v\nform p : d(u)^d(v)\n"
    xy = "vars x y\nform w : d(x)^d(y)\n"
    cases = [(uv, "@u,@v", 0, "yes (det = 1, declared frame)"),
             (uv, "u*@u,v*@v", 1, "no (det = u^2*v^2, saito frame)"),
             (uv, "u^-1*@u,v*@v", 1, "no (det = u^-2*v^2, declared frame)"),
             (xy, "@x,T*@y", 0, "yes (det = T^2, saito frame)"),
             (xy, "x*@x,@y", 1, "no (det = x^2, declared frame)")]
    for session, fields, code, verdict in cases:
        argv = ["check-logsymplectic", "--session", "-", "--fields", fields]
        got, out, _ = run_stdin(capsys, monkeypatch, session, *argv)
        assert (got, lines(out)) == (code, ["closed: yes", "nondegenerate: " + verdict])
        got, out, _ = run_stdin(capsys, monkeypatch, session, *argv, "--format", "json")
        assert (got, json.loads(out)["frame"]) == (code, verdict.split(", ")[1][:-7])
    argv = ["check-saito", "--session", "-", "--fields", "@u,@v"]
    assert run_stdin(capsys, monkeypatch, uv, *argv)[:2] == (
        1, "not free: field 1 is not logarithmic along h\n")


def test_along_divisor_next_to_the_verdict_on_U(capsys, monkeypatch):
    """On a coordinate divisor, check-logsymplectic and prequantize print
    whether the log-frame Gram det is a unit of the polynomial ring (along D)
    next to today's verdict on U, which keeps its line, exit code and json
    keys: d(x)^d(y) = y*d(x)^dlog(y) degenerates along y = 0, and
    -u^-1*dlog(u)^dlog(v) has a pole in u."""
    cases = [(COORDS_Y, ["--session", "-"], "nondegenerate: yes (det = y^2, log frame)",
              "along D: no (det = y^2, polynomial ring)",
              {"holds": False, "det": "y^2", "pole": None}),
             (POLE_U, ["--session", "-"], "nondegenerate: yes (det = u^-2, log frame)",
              "along D: no (pole in u)", {"holds": False, "det": "u^-2", "pole": "u"}),
             ("", ["--session", EXACT, "--form", "w"], "nondegenerate: yes (det = 1, log frame)",
              "along D: yes (det = 1, polynomial ring)",
              {"holds": True, "det": "1", "pole": None}),
             ("", ["--session", TORUS, "--form", "w"], "nondegenerate: yes (det = 1, log frame)",
              "along D: yes (det = 1, polynomial ring)",
              {"holds": True, "det": "1", "pole": None})]
    for session, argv, on_u, along, value in cases:
        code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic", *argv)
        assert (code, lines(out)) == (0, ["closed: yes", on_u, along])
        code, out, _ = run_stdin(capsys, monkeypatch, session, "check-logsymplectic", *argv,
                                 "--format", "json")
        doc = json.loads(out)
        assert (code, doc["closed"], doc["nondegenerate"]) == (0, True, True)
        assert doc["along_divisor"] == value
        code, out, _ = run_stdin(capsys, monkeypatch, session, "prequantize", *argv)
        assert lines(out)[1:3] == ["nondegenerate: yes", along]
        prequantizable = code == 0
        code, out, _ = run_stdin(capsys, monkeypatch, session, "prequantize", *argv,
                                 "--format", "json")
        doc = json.loads(out)
        assert (doc["nondegenerate"], doc["prequantizable"]) == (True, prequantizable)
        assert doc["along_divisor"] == value
    # the first two still build their connections on U
    for session, sigma in ((COORDS_Y, "-T*y*d(x)"), (POLE_U, "T*u^-1*dlog(v)")):
        code, out, _ = run_stdin(capsys, monkeypatch, session, "prequantize",
                                 "--session", "-", "--format", "json")
        assert (code, json.loads(out)["connection"]) == (0, sigma)
    # a chart without divisor coordinates prints no along-D line or key
    plane = "vars x y\nform w : d(x)^d(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, plane, "check-logsymplectic",
                             "--session", "-")
    assert (code, lines(out)) == (0, ["closed: yes", "nondegenerate: yes (det = 1, log frame)"])
    for command in ("check-logsymplectic", "prequantize"):
        code, out, _ = run_stdin(capsys, monkeypatch, plane, command, "--session", "-",
                                 "--format", "json")
        assert "along_divisor" not in json.loads(out)


def test_polynomial_questions_are_asked_in_the_polynomial_ring(capsys, monkeypatch):
    """check-divisor and check-saito decide in the chart's polynomial ring,
    where no divisor coordinate is a unit: x^2*y has the repeated factor x,
    x^-1*y is no polynomial, and @x is not logarithmic along x*y."""
    code, out, _ = run(capsys, "check-divisor", "--session", TORUS, "--poly", "x^2*y")
    assert (code, lines(out)) == (1, ["repeated factor: x"])
    code, out, _ = run(capsys, "check-divisor", "--session", TORUS, "--poly", "x^2*y",
                       "--format", "json")
    doc = json.loads(out)
    assert (code, doc["reduced"], doc["witness"]) == (1, False, "x")
    message = "not in the polynomial ring: pole in x"
    code, out, err = run(capsys, "check-divisor", "--session", TORUS, "--poly", "x^-1*y")
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    code, out, _ = run(capsys, "check-divisor", "--session", TORUS, "--poly", "x^-1*y",
                       "--format", "json")
    assert (code, json.loads(out)["error"]) == (2, message)
    session = "vars x y\ndivisor coords x y\n"
    argv = ["check-saito", "--session", "-", "--fields", "@x,y*@y"]
    code, out, _ = run_stdin(capsys, monkeypatch, session, *argv)
    assert (code, lines(out)) == (1, ["not free: field 1 is not logarithmic along h"])
    code, out, _ = run_stdin(capsys, monkeypatch, session, *argv, "--format", "json")
    assert (code, json.loads(out)) == (1, {
        "schema": cli.SCHEMA, "command": "check-saito", "exit": 1, "free": False,
        "error": "field 1 is not logarithmic along h"})
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-saito", "--session", "-",
                             "--fields", "x*@x,y*@y")
    assert (code, lines(out)) == (0, ["free: det = x*y = 1*h"])
    # weights read h in the polynomial ring, as check-divisor does
    code, out, err = run(capsys, "weights", "--session", TORUS, "--poly", "x^-1*y^-1")
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    code, out, _ = run(capsys, "weights", "--session", TORUS, "--poly", "x^-1*y^-1",
                       "--format", "json")
    assert (code, json.loads(out)["error"]) == (2, message)


def test_saito_certificate_is_a_unit(capsys, monkeypatch):
    """Saito's criterion asks for det = q*h with q a unit of the polynomial
    ring: 1 + T is a nonzero constant and no unit, and 2*T is one."""
    session = "vars x y\ndivisor poly x*y\n"
    argv = ["check-saito", "--session", "-", "--fields", "(1+T)*x*@x,y*@y"]
    code, out, _ = run_stdin(capsys, monkeypatch, session, *argv)
    assert (code, lines(out)) == (1, ["not free: det = (T + 1)*x*y is not a unit multiple of h"])
    code, out, _ = run_stdin(capsys, monkeypatch, session, *argv, "--format", "json")
    assert (code, json.loads(out)) == (1, {
        "schema": cli.SCHEMA, "command": "check-saito", "exit": 1, "free": False,
        "det": "(T + 1)*x*y"})
    code, out, _ = run_stdin(capsys, monkeypatch, session, "check-saito", "--session", "-",
                             "--fields", "2*T*x*@x,y*@y")
    assert (code, lines(out)) == (0, ["free: det = 2*T*x*y = 2*T*h"])


def test_singbracket_on_a_divisor_poly_session(capsys, monkeypatch):
    """x is no member of the ideal of the declared x*y, so {x, x*y} has no
    singular bracket; an arena line once flipped this to {f,g}_sing = -x,
    and is now refused."""
    session = "vars x y\ndivisor poly x*y\nform w : d(x)^d(y)\n"
    argv = ["singbracket", "--session", "-", "--f", "x", "--g", "x*y"]
    message = "{a,v}/v does not stay in the chart's ring: (-1) / (y)"
    assert run_stdin(capsys, monkeypatch, session, *argv) == (2, "", "error: %s\n" % message)
    code, out, _ = run_stdin(capsys, monkeypatch, session, *argv, "--format", "json")
    assert (code, json.loads(out)["error"]) == (2, message)
    code, out, err = run_stdin(capsys, monkeypatch, "arena torus\n" + session, *argv)
    assert (code, out) == (2, "") and "the arena line is removed" in err
    code, out, _ = run_stdin(capsys, monkeypatch, "arena torus\n" + session, *argv,
                             "--format", "json")
    assert code == 2 and "the arena line is removed" in json.loads(out)["error"]


def test_normalize_residues_without_divisor_coordinates(capsys, monkeypatch):
    """A chart without divisor coordinates has no residues to move."""
    session = "vars x y\nconn s : x*d(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session, "normalize-residues",
                             "--session", "-", "--conn", "s")
    assert (code, lines(out)) == (0, ["shifts = ()", "sigma = x*d(y)"])


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
    # a session with no divisor line declares no equation, so no function
    # lies in the ideal and the singular bracket is the plain bracket {y,x} = 1
    session = "vars x y\nform w : d(x)^d(y)\n"
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


def test_identities_bracket_vs_pairing_defect_exits_1(capsys, monkeypatch):
    """A nonzero identity (iii) is a verdict: spoiling only the omega side of
    {a,b}, the pairing of the certified d(b) with delta_a, prints its defect
    and exits 1, in text and json."""
    real = poisson._bracket_sides

    def spoiled(S, hf, hg):
        via_pairing, via_apply = real(S, hf, hg)
        if print_canonical(hg.f) == "x + y":
            via_pairing = via_pairing + Poly.one(S.ctx)
        return via_pairing, via_apply

    monkeypatch.setattr(poisson, "_bracket_sides", spoiled)
    argv = ["identities", "--session", EXACT, "--u", "y", "--v", "y^2",
            "--a", "x*y", "--b", "x+y"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert lines(out)[:5] == [
        "hamiltonian of a product: holds",
        "bracket vs pairing: defect = 1",
        "bracket of hamiltonian fields: holds",
        "tilde field recombination: holds",
        "jacobi: holds",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert (code, doc["exit"], doc["all_hold"]) == (1, 1, False)
    assert [k for k, ok in doc["identities"].items() if not ok] == ["bracket vs pairing"]


def test_identities_on_divisor_monomials(capsys, monkeypatch):
    """du/u needs no inverse of u, so the divisor monomials x and y have
    tilde fields and all five identities are decided; the same session with
    an arena line is refused, naming the line's removal."""
    session = "vars x y\ndivisor coords x y\nform w : dlog(x)^dlog(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session, "identities", "--session", "-",
                             "--u", "x", "--v", "y", "--a", "x", "--b", "y")
    assert code == 0
    assert lines(out)[:5] == [
        "hamiltonian of a product: holds",
        "bracket vs pairing: holds",
        "bracket of hamiltonian fields: holds",
        "tilde field recombination: holds",
        "jacobi: holds",
    ]
    code, out, _ = run_stdin(capsys, monkeypatch, session, "jacobi", "--session", "-",
                             "--f", "x", "--g", "y", "--h", "x*y")
    assert (code, lines(out)) == (0, ["jacobi defect = 0"])
    for arena in ("poly", "torus"):
        code, out, err = run_stdin(capsys, monkeypatch, "arena %s\n" % arena + session,
                                   "identities", "--session", "-", "--u", "x", "--v", "y",
                                   "--a", "x", "--b", "y")
        assert (code, out) == (2, "")
        assert err == ("error: session: line 1, col 1: the arena line is removed: a "
                       "chart inverts its divisor coordinates, and questions about a "
                       "polynomial are asked in its polynomial ring\n")


def test_identities_off_the_divisor_ideal(capsys):
    """Identity (i) takes s = {u,v}/(uv) when u or v is a unit monomial off
    the divisor ideal too, so x^-1 and x^2, x^-1*y hold on the torus chart
    (the singular bracket's {u,v}/v once printed a defect there)."""
    for u, v in (("x^-1", "y"), ("x^2", "x^-1*y")):
        code, out, _ = run(capsys, "identities", "--session", TORUS, "--form", "w",
                           "--u", u, "--v", v, "--a", "x", "--b", "y")
        assert (code, lines(out)[0]) == (0, "hamiltonian of a product: holds"), (u, v)


def test_an_option_value_may_start_with_a_minus(capsys):
    """A value that starts with a single "-" is the option's value, read as
    --option=value reads it; -h and a word that starts with "--" are still
    options, so argparse reports the option before them as given no value."""
    code, out, err = run(capsys, "bracket", "--session", EXACT, "--f", "-x*y", "--g", "y")
    assert (code, lines(out), err) == (0, ["{f,g} = y^2"], "")
    assert run(capsys, "bracket", "--session", EXACT, "--f=-x*y", "--g", "y") == (code, out, err)
    code, out, _ = run(capsys, "identities", "--session", TORUS, "--form", "w",
                       "--u", "x", "--v", "-3*y", "--a", "x", "--b", "y")
    assert (code, lines(out)[0]) == (0, "hamiltonian of a product: holds")
    for word in ("-h", "--g"):
        code, _, err = run(capsys, "bracket", "--session", EXACT, "--f", word, "--g", "y")
        assert code == 2 and "argument --f: expected one argument" in err


def test_identities_u_plus_v_zero_exits_2(capsys):
    """u + v = 0 leaves {u+v,a}/(u+v) undefined: one error and exit 2 in
    text, one json error document in json."""
    argv = ["identities", "--session", TORUS, "--form", "w", "--u", "x",
            "--v=-x", "--a", "y", "--b", "x*y"]
    message = "u + v = 0: identity (ii) divides by u + v"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"schema": cli.SCHEMA, "command": "identities",
                               "error": message, "exit": 2}


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
    # the residue along y is the dlog(y) coefficient restricted to y = 0, so
    # x*dlog(y) has the nonconstant residue x there, whatever the order of
    # the variables
    code, out, _ = run(capsys, "residues", "--session", TORUS, "--form", "u")
    assert (code, lines(out)) == (1, ["nonconstant residue along y: x"])
    session = "vars y x\ndivisor coords x y\nform u : x*dlog(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "residues", "--session", "-", "--form", "u")
    assert (code, lines(out)) == (1, ["nonconstant residue along y: x"])

    # x^-1 has no pole on y = 0: it is the residue along y
    code, out, _ = run(capsys, "residues", "--session", TORUS,
                       "--form", "x^-1*dlog(y)")
    assert (code, lines(out)) == (1, ["nonconstant residue along y: x^-1"])

    # x*y vanishes on x = 0 and on y = 0: constant residues
    session = "vars x y\ndivisor coords x y\nform u : (5/2 + x*y)*dlog(x) + x*y*dlog(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "residues", "--session", "-", "--form", "u")
    assert (code, lines(out)) == (0, ["residue along x = 5/2",
                                      "residue along y = 0"])

    code, out, _ = run(capsys, "residues", "--session", EXACT, "--conn", "s")
    assert code == 1
    assert lines(out) == ["nonconstant residue along y: T*x"]

    session = "vars x y\nconn c : x*d(y)\n"
    code, out, _ = run_stdin(capsys, monkeypatch, session,
                             "residues", "--session", "-", "--conn", "c")
    assert (code, lines(out)) == (0, ["no divisor coordinates"])


def test_residues_and_normalize_residues_agree(capsys, monkeypatch):
    # one residue rule: the residue along y is x, so residues reports it
    # nonconstant and normalize-residues gives the same verdict, in text and
    # in json; the connection is well formed, so neither exits 2
    session = "vars x y\ndivisor coords x y\nconn c : (5/2)*dlog(x) + x*dlog(y)\n"
    for cmd in ("residues", "normalize-residues"):
        code, out, err = run_stdin(capsys, monkeypatch, session,
                                   cmd, "--session", "-", "--conn", "c")
        assert (code, out, err) == (1, "nonconstant residue along y: x\n", "")
        code, out, err = run_stdin(capsys, monkeypatch, session, cmd, "--session",
                                   "-", "--conn", "c", "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {"command": cmd, "constant": False, "along": "y",
                                   "value": "x", "exit": 1, "schema": cli.SCHEMA}


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

    code, out, _ = run(capsys, "normalize-residues", "--session", EXACT,
                       "--conn", "s")
    assert (code, lines(out)) == (1, ["nonconstant residue along y: T*x"])


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
        "along D: yes (det = 1, polynomial ring)",
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


def test_long_arguments_are_quoted_in_part(capsys, monkeypatch):
    """An error quotes an argument of up to 100 characters whole, and a
    longer one by its first 100, "..." and its length; the positioned
    message after the quote stays whole."""
    signs, sum_q = "-" * 3000 + "x", "x+" * 2000 + "q"
    edge, form_sum = "x+" * 49 + "qq", "+".join(["x"] * 1000)
    cases = [
        (["check-divisor", "--poly=" + signs],
         "in %r... (3001 characters): line 1, col 101: expected at most 100"
         " levels of parentheses and signs, found deeper nesting" % signs[:100]),
        (["check-divisor", "--poly", sum_q],
         "in %r... (4001 characters): line 1, col 4001: unknown name 'q'"
         % sum_q[:100]),
        (["check-divisor", "--poly", edge],
         "in %r: line 1, col 99: unknown name 'qq'" % edge),
        (["curvature", "--conn", form_sum],
         "%r... (1999 characters) is not a connection" % form_sum[:100]),
        (["curvature", "--conn", form_sum[:99]], "%r is not a connection" % form_sum[:99]),
    ]
    for argv, message in cases:
        text, doc = _error_bytes(argv[0], message)
        argv += ["--session", "-"]
        assert run_stdin(capsys, monkeypatch, "vars x y\n", *argv) == (2, "", text)
        assert run_stdin(capsys, monkeypatch, "vars x y\n", *argv,
                         "--format", "json") == (2, doc, "")


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
     "{a,v}/v does not stay in the chart's ring: (2) / (x)"),
    (["identities", "--session", EXACT, "--u", "x+y", "--v", "y",
      "--a", "x", "--b", "y"], "",
     "du/u needs a monomial, got x + y"),
    (["check-divisor", "--session", TORUS, "--poly", "x^-1*y"], "",
     "not in the polynomial ring: pole in x"),
    (["gauge", "--session", EXACT, "--conn", "s", "--tau", "x*dlog(y)"], "",
     "gauge form must be closed"),
    (["residues", "--session", TORUS, "--form", "y^-1*dlog(y)"], "",
     "coefficient of e^{y} cell has a pole in y beyond the log factor"),
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


# Malformed input found by the CLI before any check runs: a field list of
# the wrong size, a form of the wrong degree where a 2-form is wanted, and a
# 0-form where the homotopy operator wants degree >= 1.
MALFORMED = [
    (["check-saito", "--session", SAITO, "--fields", "d1,d2"],
     "a frame needs 3 fields, got 2"),
    (["periods", "--session", TORUS, "--form", "u"], "--form must be a 2-form"),
    (["integrality", "--session", TORUS, "--form", "x"], "--form must be a 2-form"),
    (["hamiltonian", "--session", EXACT, "--form", "x", "--f", "x"],
     "--form must be a 2-form"),
    (["bracket", "--session", EXACT, "--form", "dlog(y)", "--f", "x", "--g", "y"],
     "--form must be a 2-form"),
    (["singbracket", "--session", EXACT, "--form", "x", "--f", "x", "--g", "y"],
     "--form must be a 2-form"),
    (["jacobi", "--session", EXACT, "--form", "x", "--f", "x", "--g", "y",
      "--h", "x*y"], "--form must be a 2-form"),
    (["identities", "--session", EXACT, "--form", "x", "--u", "y", "--v", "y",
      "--a", "x", "--b", "y"], "--form must be a 2-form"),
    (["symbol", "--session", EXACT, "--form", "x", "--conn", "s", "--f", "x"],
     "--form must be a 2-form"),
    (["dirac-test", "--session", EXACT, "--form", "x", "--conn", "s", "--f", "x",
      "--g", "y"], "--form must be a 2-form"),
    (["class", "--session", TORUS, "--form", "x"], "--form must have degree >= 1"),
    (["primitive", "--session", EXACT, "--form", "x*y"],
     "--form must have degree >= 1"),
]


def test_malformed_input_exits_2(capsys):
    for argv, message in MALFORMED:
        text, doc = _error_bytes(argv[0], message)
        assert run(capsys, *argv) == (2, "", text)
        assert run(capsys, *argv, "--format", "json") == (2, doc, "")


def test_empty_values_are_given(capsys):
    """An option given as "" is given: it is read like any other value, not
    replaced by the option's default (the session's form, the log frame,
    multiplier 0)."""
    empty = "in '': line 1, col 1: expected an expression, found end of line"
    for argv, message in (
        (["residues", "--session", EXACT, "--conn", ""], empty),
        (["check-logsymplectic", "--session", EXACT, "--fields", ""],
         "a frame needs 2 fields, got 0"),
        (["decompose", "--session", EXACT, "--conn", "s", "--vfield", "e1",
          "--mult", ""], empty),
    ):
        text, doc = _error_bytes(argv[0], message)
        assert run(capsys, *argv) == (2, "", text)
        assert run(capsys, *argv, "--format", "json") == (2, doc, "")


def test_wrong_forms_that_stay_verdicts(capsys):
    """A 2-form that is not closed, or a chart of odd dimension, is a
    verdict on the data, not malformed input."""
    code, out, _ = run(capsys, "periods", "--session", SAITO, "--form", "z*d(x)^d(y)")
    assert (code, out) == (1, "periods of a non-closed form are undefined\n")
    assert run(capsys, "hamiltonian", "--session", SAITO, "--form", "d(x)^d(y)",
               "--f", "x") == (1, "", "error: chart dimension 3 is odd\n")
    for cmd in ("class", "primitive"):
        for form in ("x*d(y)", "z*d(x)^d(y)"):
            assert run(capsys, cmd, "--session", SAITO, "--form", form) == (
                1, "form is not closed\n", "")


def test_numbers_past_the_digit_limit(capsys, monkeypatch, digit_limit):
    """A number CPython will not convert to or from text is a typed error with
    exit 2, from the scanner, the printer or the integer fields."""
    numeral = "9" * (digit_limit + 700)
    too_long = "a number of more than %d digits is too long to print" % digit_limit
    session = "vars x y\ndivisor coords x y\nform w : 9^5000*(1/T)*dlog(x)^dlog(y)\n"
    plane = "vars x y\nform w : d(x)^d(y)\n"
    cases = [
        (["bracket", "--session", EXACT, "--f", numeral, "--g", "y"], "",
         "in %r... (%d characters): line 1, col 1: expected a numeral of at most"
         " %d digits, found %d digits"
         % (numeral[:100], len(numeral), digit_limit, len(numeral))),
        (["bracket", "--session", EXACT, "--f", "9^5000*x", "--g", "y"], "", too_long),
        (["integrality", "--session", "-"], session, too_long),
        (["normalize-residues", "--session", TORUS, "--conn", "9^5000*dlog(y)"], "",
         too_long),
        # an exponent, a T-power and a weight past the limit
        (["check-divisor", "--session", "-", "--poly", "x^(10^5000)*y^2"], plane, too_long),
        (["bracket", "--session", TORUS, "--form", "w", "--f", "T^(10^5000)*x", "--g", "y"],
         "", too_long),
        (["weights", "--session", "-", "--poly", "x^(10^5000)*y + y^2"], plane, too_long),
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


def test_one_parser_per_command_call(capsys, monkeypatch):
    """A well-formed call of any command, from a file or from stdin, in text
    or json, builds no parser; any other call (a leftover word, an
    abbreviated option, --opt=--, an unknown command) builds the tree once."""
    built, trees = [], []
    real_init = cli._Parser.__init__
    real_add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def counting_add_subparsers(self, **kwargs):
        trees.append(self.prog)
        return real_add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        counting_add_subparsers)
    calls = {}
    for cmd, extra, code in JSON_SMOKE:
        calls.setdefault(cmd, (extra, code))
    assert sorted(calls) == list(COMMANDS)
    for cmd, ((_, path, *words), want) in calls.items():
        for fmt in ("text", "json"):
            argv = [cmd, "--session", path] + words + ["--format", fmt]
            assert run(capsys, *argv)[0] == want, argv
            stdin = Path(path).read_text(encoding="utf-8")
            argv[2] = "-"
            assert run_stdin(capsys, monkeypatch, stdin, *argv)[0] == want, argv
    assert (built, trees) == ([], [])

    tree = ["logsym"] + ["logsym " + cmd for cmd in COMMANDS]
    for argv, want in ((["--forma", "json"], 0), (["extra"], 2),
                       (["--f=--"], 2), (["--help"], 0)):
        argv = ["bracket", "--session", EXACT, "--f", "x", "--g", "y"] + argv
        assert run(capsys, *argv)[0] == want, argv
        assert (built, trees) == (tree, ["logsym"]), argv
        built.clear()
        trees.clear()
    assert run(capsys, "nosuchcmd")[0] == 2
    assert (built, trees) == (tree, ["logsym"])


# -- the direct read of a well-formed command line --------------------------
# main reads pairs of exact option names and values itself; every other
# shape goes to argparse.  A value that starts with a single "-" reads as
# argparse reads --option=value.  Both must give the same namespace and bytes.

_WORD_VALUES = ["-", "-1", "", "-x", "a b", "x=1", "json", "xml", "text", "x",
                "-x + y", "s", "--", EXACT, "-h", "-3*y", "--x"]
_EXTRA_WORDS = ["-h", "--help", "--", "extra", "--bogus", "-"]


@st.composite
def _command_words(draw):
    command = draw(st.sampled_from(COMMANDS))
    names = cli._long_options(command)[1:]
    name, value = st.sampled_from(names), st.sampled_from(_WORD_VALUES)
    pairs = [["--session", draw(value)]]
    for opt in cli._COMMANDS[command][1]:
        if draw(st.integers(0, 9)) < (9 if opt.endswith("!") else 3):
            pairs.append(["--" + opt.rstrip("!"), draw(value)])
    odd = st.one_of(
        st.tuples(name, value).map(list),  # maybe a repeat
        st.builds(lambda n, k, v: [n[:k], v], name, st.integers(3, 8), value),
        st.builds(lambda n, v: ["%s=%s" % (n, v)], name, value),
        name.map(lambda n: [n + "=--"]),  # argparse stores [], not "--"
        st.sampled_from(_EXTRA_WORDS).map(lambda w: [w]),
        value.map(lambda v: [v]))
    pairs += draw(st.lists(odd, max_size=2))
    pairs = draw(st.permutations(pairs))
    return command, [w for pair in pairs for w in pair]


def _main_bytes(argv):
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(Path(EXACT).read_text(encoding="utf-8"))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _argparse_read(command, words):
    """(namespace, leftover words) as the tree reads the command and words,
    or (None, None) where it reports a usage error or prints help."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return tuple(cli.build_parser().parse_known_args([command] + words))
    except (cli._UsageError, SystemExit):
        return None, None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_command_words())
def test_direct_read_matches_argparse(command_words):
    """Where the direct read returns a namespace, argparse reads an equal one
    from the same pairs written --option=value and leaves no word over, and
    reads it from the words as given when no value starts with "-" ("-"
    alone aside); where argparse reports a usage error, prints help or
    leaves words over on those --option=value words, the direct read
    declines; and main prints the same bytes as argparse's reading of them."""
    command, words = command_words
    direct = cli._read_direct(command, words)
    joined = words if direct is None else [
        "%s=%s" % pair for pair in zip(words[::2], words[1::2])]
    parsed, extra = _argparse_read(command, joined)
    assert direct is None or (direct == parsed and extra == []), words
    if direct is not None and all(v[:1] != "-" or v == "-" for v in words[1::2]):
        assert _argparse_read(command, words) == (parsed, extra), words
    want = _main_bytes([command] + words)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_read_direct", lambda command, words: None)
        assert _main_bytes([command] + joined) == want, words


def _tree_bytes(argv):
    """What the full tree prints for argv, a help request or a usage error,
    through the subparser of argv[0]: (exit code, stdout, stderr) in text,
    or the error message when argv asks for json."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as e:
            return e.code or 0, out.getvalue(), err.getvalue()
        except cli._UsageError as e:
            if "json" in argv:
                return str(e)
            e.parser.print_usage(sys.stderr)
            print("%s: error: %s" % (e.parser.prog, e), file=sys.stderr)
            return 2, out.getvalue(), err.getvalue()
    raise AssertionError("no usage error: %r" % argv)


def _usage_cases(cmd):
    required = []
    for opt in cli._COMMANDS[cmd][1]:
        if opt.endswith("!"):
            required += ["--" + opt.rstrip("!"), "x"]
    ok = ["--session", EXACT] + required
    return [["-h"], [], required, ok + ["--format", "xml"], ok + ["extra"],
            ok + ["--bogus", "1"]]


def test_one_parser_prints_the_tree_bytes(capsys, monkeypatch):
    """Help and usage errors of every command, in text and json, are the
    bytes the full tree's subparser prints (leftover words: the tree's
    usage and the top level's error)."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    for cmd in COMMANDS:
        for words in _usage_cases(cmd):
            argv = [cmd] + words
            want = _tree_bytes(argv)
            assert run(capsys, *argv) == want, argv
            argv = [cmd, "--format", "json"] + words
            want = _tree_bytes(argv)
            got = run(capsys, *argv)
            if words == ["-h"]:
                assert got == want, argv
            else:
                doc = {"command": cmd, "error": want, "exit": 2, "schema": "logsym/1"}
                assert got == (2, json.dumps(doc, indent=2) + "\n", ""), argv


def test_abbreviated_format_on_usage_errors(capsys):
    """--format is found in a usage error as argparse finds it: by the exact
    name, else by the one option of the command that the word begins."""
    missing = json.dumps({"command": "check-divisor",
                          "error": "the following arguments are required: --session",
                          "exit": 2, "schema": "logsym/1"}, indent=2) + "\n"
    for words in (["--fo", "json"], ["--forma=json"], ["--format", "json"]):
        assert run(capsys, "check-divisor", *words) == (2, missing, "")
    code, out, _ = run(capsys, "check-divisor", "--session", SAITO, "--fo", "json")
    assert (code, json.loads(out)["reduced"]) == (0, True)
    # --f is an option of bracket itself, and --fo begins both --format and
    # --form in symbol: neither asks for json
    code, out, err = run(capsys, "bracket", "--f", "json")
    assert (code, out) == (2, "")
    assert err.endswith("logsym bracket: error: the following arguments are "
                        "required: --session, --g\n")
    code, out, err = run(capsys, "symbol", "--session", EXACT, "--conn", "s",
                         "--fo", "json")
    assert (code, out) == (2, "")
    assert err.endswith("logsym symbol: error: ambiguous option: --fo could match"
                        " --format, --form\n")
    # with no command only --format itself counts
    code, out, err = run(capsys, "nosuchcmd", "--fo", "json")
    assert (code, out) == (2, "") and "invalid choice" in err


def test_double_dash_values_are_usage_errors(capsys, monkeypatch):
    """argparse stores an explicit --opt=-- as [], not a string: main reports
    it as argparse reports --opt -- with no value, exit 2 in text and json."""
    monkeypatch.setenv("COLUMNS", "80")
    for cmd, words, opt in (
        ("integrality", [], "--session"),
        ("check-divisor", ["--session", EXACT], "--poly"),
        ("check-divisor", ["--session", EXACT], "--format"),
    ):
        error = "argument %s: expected one argument" % opt
        code, out, err = run(capsys, cmd, *words, opt + "=--")
        assert (code, out) == (2, "")
        assert err.startswith("usage: logsym %s [-h]" % cmd)
        assert err.endswith("logsym %s: error: %s\n" % (cmd, error))
        assert run(capsys, cmd, *words, opt, "--") == (code, out, err)
        if opt == "--format":
            continue
        doc = {"command": cmd, "error": error, "exit": 2, "schema": "logsym/1"}
        want = (2, json.dumps(doc, indent=2) + "\n", "")
        assert run(capsys, cmd, *words, opt + "=--", "--format", "json") == want
        assert run(capsys, cmd, "--format=json", *words, opt + "=--") == want


def test_session_not_utf8(capsys, tmp_path):
    path = tmp_path / "s.lsx"
    path.write_bytes(b"vars x y\n# caf\xe9\n")
    message = ("cannot read session: 'utf-8' codec can't decode byte 0xe9 in"
               " position 14: invalid continuation byte")
    text, doc = _error_bytes("check-divisor", message)
    assert run(capsys, "check-divisor", "--session", path) == (2, "", text)
    assert run(capsys, "check-divisor", "--session", path,
               "--format", "json") == (2, doc, "")


def _byte_stdin(data):
    """A stdin as the interpreter sets one up with no locale: text over a
    byte buffer, undecodable bytes escaped as lone surrogates."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="surrogateescape")


@pytest.mark.parametrize("data, position", [
    (b"vars x y\n# caf\xe9\n", 14),
    (b"vars x y\nform w : d(x)\xe9\n", 22),
])
def test_session_bytes_decode_alike(capsys, monkeypatch, tmp_path, data, position):
    """The same bytes give the same result from a file and from stdin, read
    through its byte buffer or handed in as escaped text."""
    path = tmp_path / "s.lsx"
    path.write_bytes(data)
    message = ("cannot read session: 'utf-8' codec can't decode byte 0xe9 in"
               " position %d: invalid continuation byte" % position)
    text, doc = _error_bytes("check-divisor", message)
    stdins = (_byte_stdin(data), io.StringIO(data.decode("utf-8", "surrogateescape")))
    for fmt, want in (("text", (2, "", text)), ("json", (2, doc, ""))):
        argv = ("check-divisor", "--poly", "x", "--format", fmt)
        assert run(capsys, *argv, "--session", path) == want
        for stdin in stdins:
            stdin.seek(0)
            monkeypatch.setattr("sys.stdin", stdin)
            assert run(capsys, *argv, "--session", "-") == want


def test_session_newlines_decode_alike(capsys, monkeypatch, tmp_path):
    path = tmp_path / "s.lsx"
    data = b"vars x y\r\ndivisor coords x\rfunc f : x*y\r\n"
    path.write_bytes(data)
    want = (0, "reduced\nnormal crossing: x*y\n", "")
    assert run(capsys, "check-divisor", "--session", path, "--poly", "f") == want
    monkeypatch.setattr("sys.stdin", _byte_stdin(data))
    assert run(capsys, "check-divisor", "--session", "-", "--poly", "f") == want


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
    ("residues", ["--session", TORUS, "--form", "u"], 1),
    ("normalize-residues", ["--session", EXACT, "--conn", "s"], 1),
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


# -- the CLI contract over generated argv -------------------------------------
# Whatever the words, main returns 0, 1 or 2 and lets no exception escape;
# in json mode it prints one JSON document whose exit is the return code.

_ATOMS = ["x", "y", "z", "x*y", "x+y", "2*T*x", "T", "I", "1/2", "0", "",
          "(", "x y", "1/0", "x^-1", "x^(1/2)", "foo", "w", "u", "w2", "wexact",
          "s", "f", "e1", "d1", "d1,d2,d3", "d2,d1", "@x", "y*@y", "x^2*@x",
          "d(x)", "dlog(x)", "dlog(y)", "d(x*y)", "d(x)^dlog(y)", "x*dlog(y)",
          "dlog(x)^dlog(y)", "+".join(["x"] * 1000), "(" * 150 + "x" + ")" * 150,
          "-" * 3000 + "x"]
_DEFS = {"form": ["d(x)^dlog(y)", "dlog(x)^dlog(y)", "x*d(x)^d(y)", "d(x*dlog(y))",
                  "(3/2)*T^-1*dlog(x)^dlog(y)", "x*dlog(y)", "0"],
         "conn": ["T*x*dlog(y)", "(7/3)*dlog(x) + d(x*y)", "x^-1*dlog(y)", "0"],
         "func": ["x^2 + y", "x*y*(x+y)", "T*x - I"],
         "vfield": ["y*@y", "x*@x + y*@y", "@x"]}


@st.composite
def _stdin_session(draw):
    names = ["x", "y", "z"][:draw(st.integers(2, 3))]
    div = draw(st.lists(st.sampled_from(names), unique=True))
    lines = ["vars " + " ".join(names)]
    if div:
        lines.append("divisor coords " + " ".join(sorted(div)))
    for kind, name in (("form", "w"), ("conn", "s"), ("func", "f"), ("vfield", "e1")):
        if draw(st.booleans()):
            lines.append("%s %s : %s" % (kind, name, draw(st.sampled_from(_DEFS[kind]))))
    return "\n".join(lines) + "\n"


@st.composite
def _invocation(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    stdin = draw(st.one_of(st.none(), _stdin_session()))
    session = draw(st.sampled_from([EXACT, SAITO, TORUS])) if stdin is None else "-"
    argv = [command, "--session", session]
    for opt in cli._COMMANDS[command][1]:
        if draw(st.booleans()):
            argv.append("--%s=%s" % (opt.rstrip("!"), draw(st.sampled_from(_ATOMS))))
    fmt = draw(st.sampled_from(["text", "json"]))
    return argv + ["--format", fmt], stdin, fmt


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_invocation())
def test_cli_contract(invocation):
    argv, stdin, fmt = invocation
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    if fmt == "json":
        assert json.loads(out.getvalue())["exit"] == code
