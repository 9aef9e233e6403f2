"""Per-layer tracing installed from outside the package.

The tracer wraps the public functions of each logsym module and the methods
of Scalar, Poly, VarContext, RationalFunction, LogForm and LogVectorField.
A module function is rebound in every logsym module that holds the same
function object, so a call through an imported name (poisson's own
solve_linear, cli's own prequantize) is seen too. Methods are replaced as
class attributes. No file of the package changes.

Functions and the LogForm/LogVectorField methods record one span each
(name, start, end, parent span, op id), kept in memory and written out when
the run ends. The hot arithmetic methods of Scalar, Poly, VarContext and
RationalFunction keep only aggregated counts and self time, so memory stays
bounded. Self time is a call's duration minus the time of the wrapped calls
it made; inclusive time counts only the outermost call of a recursive name.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("scalars", "context", "poly", "linalg", "calculus", "divisors",
           "poisson", "operators", "connections", "sessions", "cli")

HOT, SPAN = "hot", "span"

# (module, function or Class.method, trace key, mode). The key's first part
# names the layer that the call's time and errors are charged to.
TARGETS = (
    [("scalars", "Scalar." + m, "scalars." + m.strip("_"), HOT)
     for m in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
               "__pow__", "inverse", "exact_div", "unit_part")]
    + [("scalars", "scalar_gcd", "scalars.gcd", HOT),
       ("context", "VarContext.check_same", "context.check_same", HOT)]
    + [("poly", "Poly." + m, "poly." + m.strip("_"), HOT)
       for m in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale",
                 "partial", "log_partial", "mul_var_power", "substitute_zero")]
    + [("poly", "gcd_mv", "poly.gcd", SPAN),
       ("poly", "divides", "poly.divides", SPAN)]
    + [("linalg", "RationalFunction.__init__", "linalg.ratfunc", HOT),
       ("linalg", "solve_linear", "linalg.solve", SPAN),
       ("linalg", "solve_linear_poly", "linalg.solve_poly", SPAN),
       ("linalg", "det_poly", "linalg.det", SPAN)]
    + [("calculus", "LogForm." + m, "calculus.form_" + m.strip("_"), SPAN)
       for m in ("__add__", "__sub__", "__neg__", "scale", "scale_scalar",
                 "wedge", "d", "interior", "lie", "evaluate", "residue")]
    + [("calculus", "LogVectorField." + m, "calculus.field_" + m.strip("_"), SPAN)
       for m in ("__add__", "__sub__", "__neg__", "scale", "scale_scalar",
                 "apply", "bracket", "log_components")]
    + [("calculus", f, "calculus." + f, SPAN)
       for f in ("assemble_symplectic", "gram_matrix", "log_frame",
                 "d_of_function", "res_const")]
    + [("divisors", f, "divisors." + f, SPAN)
       for f in ("check_squarefree", "is_logarithmic", "saito_check",
                 "is_coordinate_ncd", "weighted_homogeneous")]
    + [("poisson", f, "poisson." + f, SPAN)
       for f in ("hamiltonian", "bracket", "sing_bracket", "tilde_hamiltonian",
                 "jacobi_defect", "verify_identities")]
    + [("operators", f, "operators." + f, SPAN)
       for f in ("dirac_check", "prequantum_op", "from_connection", "decompose",
                 "atiyah_check", "splitting_check", "verify_E_condition")]
    + [("connections", f, "connections." + f, SPAN)
       for f in ("gauge", "is_flat", "periods", "integrality_check",
                 "class_and_primitive", "normalize_residues",
                 "_normalize_residues_soft", "prequantize")]
    + [("sessions", f, "sessions." + f, SPAN)
       for f in ("parse_session", "eval_in_session", "print_canonical",
                 "print_session")]
    + [("cli", "main", "cli.main", SPAN),
       ("cli", "build_parser", "cli.build_parser", SPAN)]
)


class Tracer:
    def __init__(self):
        self.stack = []  # open calls: [time spent in wrapped children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.errors = defaultdict(int)
        self.spans = []
        self.names = []
        self.current = -1  # id of the innermost open span
        self.op = 0  # 0 during set-up, then the 1-based op index
        self.covered_s = 0.0  # op time spent under some wrapped call
        self.last_error = {}  # layer -> exception last counted there
        self.seen = set()  # (kind, id(S), args) solved in the current op
        self.repeats = defaultdict(int)
        self.gcd_top = 0
        self.gcd_trivial = 0
        self.exit2 = 0

    def start_op(self, op):
        self.op = op
        self.seen.clear()
        self.last_error.clear()

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [importlib.import_module("logsym")]
        mods += [importlib.import_module("logsym." + m) for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for modname, attr, key, mode in TARGETS:
            mod = by_name[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(key, cls.__dict__[meth], mode))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(key, fn, mode)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)

    def _wrap(self, key, fn, mode):
        layer = key.split(".", 1)[0]
        stack, calls, self_s, incl_s, depth = (
            self.stack, self.calls, self.self_s, self.incl_s, self.depth)
        spans = self.spans
        clock = time.perf_counter
        span = mode == SPAN
        if span:
            self.names.append(key)
        name_id = len(self.names) - 1
        before, after = _HOOKS.get(key, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = tracer.current
                tracer.current = sid
            frame = [0.0]
            depth[key] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if tracer.last_error.get(layer) is not e:
                    tracer.last_error[layer] = e
                    tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                depth[key] -= 1
                dur = end - start
                calls[key] += 1
                self_s[key] += dur - frame[0]
                if not depth[key]:
                    incl_s[key] += dur
                if stack:
                    stack[-1][0] += dur
                elif tracer.op:
                    tracer.covered_s += dur
                if span:
                    spans[sid] = (name_id, start, end, parent, tracer.op)
                    tracer.current = parent
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": self.names[name_id],
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, op_s):
        """The per-layer metrics named in BENCHMARK.json, from this run."""
        c, s, inc, err = self.calls, self.self_s, self.incl_s, self.errors

        def layer_self(prefix):
            return sum((v for k, v in s.items() if k.startswith(prefix)), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        hc, bc = c["poisson.hamiltonian"], c["poisson.bracket"]
        return {
            "scalars.mul_calls": c["scalars.mul"],
            "scalars.add_calls": c["scalars.add"],
            "scalars.gcd_calls": c["scalars.gcd"],
            "scalars.self_s": layer_self("scalars."),
            "scalars.errors": err["scalars"],
            "context.check_same_calls": c["context.check_same"],
            "poly.mul_calls": c["poly.mul"],
            "poly.mul_self_s": s["poly.mul"],
            "poly.divides_calls": c["poly.divides"],
            "poly.divides_self_s": s["poly.divides"],
            "poly.gcd_calls": c["poly.gcd"],
            "poly.gcd_self_s": s["poly.gcd"],
            "poly.gcd_top_calls": self.gcd_top,
            "poly.gcd_trivial_ratio": ratio(self.gcd_trivial, self.gcd_top),
            "poly.errors": err["poly"],
            "linalg.solve_calls": c["linalg.solve"],
            "linalg.solve_s": inc["linalg.solve"],
            "linalg.solve_share": ratio(inc["linalg.solve"], op_s),
            "linalg.det_calls": c["linalg.det"],
            "linalg.det_s": inc["linalg.det"],
            "linalg.ratfunc_calls": c["linalg.ratfunc"],
            "linalg.errors": err["linalg"],
            "calculus.assemble_calls": c["calculus.assemble_symplectic"],
            "calculus.assemble_s": inc["calculus.assemble_symplectic"],
            "calculus.d_calls": c["calculus.form_d"],
            "calculus.interior_calls": c["calculus.form_interior"],
            "calculus.self_s": layer_self("calculus."),
            "calculus.errors": err["calculus"],
            "divisors.squarefree_calls": c["divisors.check_squarefree"],
            "divisors.squarefree_s": inc["divisors.check_squarefree"],
            "divisors.saito_s": inc["divisors.saito_check"],
            "divisors.weights_s": inc["divisors.weighted_homogeneous"],
            "divisors.ncd_s": inc["divisors.is_coordinate_ncd"],
            "divisors.errors": err["divisors"],
            "poisson.hamiltonian_calls": hc,
            "poisson.hamiltonian_s": inc["poisson.hamiltonian"],
            "poisson.hamiltonian_repeat_ratio": ratio(self.repeats["hamiltonian"], hc),
            "poisson.bracket_calls": bc,
            "poisson.bracket_repeat_ratio": ratio(self.repeats["bracket"], bc),
            "poisson.self_s": layer_self("poisson."),
            "poisson.errors": err["poisson"],
            "operators.dirac_calls": c["operators.dirac_check"],
            "operators.dirac_s": inc["operators.dirac_check"],
            "operators.errors": err["operators"],
            "connections.prequantize_calls": c["connections.prequantize"],
            "connections.prequantize_s": inc["connections.prequantize"],
            "connections.homotopy_s": inc["connections.class_and_primitive"],
            "connections.periods_s": inc["connections.periods"],
            "connections.normalize_s": inc["connections.normalize_residues"]
            + inc["connections._normalize_residues_soft"],
            "connections.errors": err["connections"],
            "sessions.parse_calls": c["sessions.parse_session"],
            "sessions.parse_s": inc["sessions.parse_session"],
            "sessions.print_s": inc["sessions.print_canonical"],
            "sessions.eval_s": inc["sessions.eval_in_session"],
            "sessions.errors": err["sessions"],
            "cli.main_calls": c["cli.main"],
            "cli.parser_s": inc["cli.build_parser"],
            "cli.self_s": layer_self("cli."),
            "cli.exit2_calls": self.exit2,
            "trace.coverage": ratio(self.covered_s, op_s),
        }


# -- hooks: counts that need a call's arguments or result --------------------


def _repeat(kind):
    def before(tracer, args):
        key = (kind, id(args[0])) + tuple(args[1:])
        if key in tracer.seen:
            tracer.repeats[kind] += 1
        else:
            tracer.seen.add(key)
    return before


def _gcd_after(tracer, result):
    if not tracer.depth["poly.gcd"]:
        tracer.gcd_top += 1
        if result.is_constant():
            tracer.gcd_trivial += 1


def _main_after(tracer, code):
    if code == 2:
        tracer.exit2 += 1


_HOOKS = {
    "poisson.hamiltonian": (_repeat("hamiltonian"), None),
    "poisson.bracket": (_repeat("bracket"), None),
    "poly.gcd": (None, _gcd_after),
    "cli.main": (None, _main_after),
}
