"""Source hygiene checks that need no linter: every name a module in
src/logsym imports is used in that module (the package __init__ re-exports
by design and is skipped), and every module-level function and method has a
caller.  Annotations are plain expressions in the tree, so a name used only
in one counts as used."""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logsym"


def _imported(tree):
    """(bound name, line) for every import outside `from __future__`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out.append((a.asname or a.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out.append((a.asname or a.name, node.lineno))
    return out


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _tracer():
    """perfbench/tracer.py; perfbench is not a package, so it is loaded by
    path."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _references(tree, skip=None):
    """Every name the tree refers to (Name ids and Attribute attrs), leaving
    out the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _overrides(module, cls_name, meth):
    """Whether the method meth of the class cls_name in module overrides one
    of a base class."""
    cls = getattr(importlib.import_module("logsym." + module), cls_name)
    return any(hasattr(base, meth) for base in cls.__mro__[1:])


def _unreferenced(targets):
    """"module.name" of every module-level function and method in
    src/logsym that nothing references outside its own body, that the
    package __init__ does not export and that is not in targets (tracer
    TARGETS attributes).  Dunders and overrides of a base-class method are
    called by the language or the base class, and are left out."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    init = trees.pop("__init__.py")
    kept = {name for name, _ in _imported(init)}
    kept |= {attr for attr in targets if "." not in attr}
    refs = {name: _references(tree) for name, tree in trees.items()}
    unreferenced = []
    for name, tree in trees.items():
        elsewhere = set().union(*(r for other, r in refs.items() if other != name))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, node.name, node.name in kept)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f, "%s.%s" % (node.name, f.name),
                         "%s.%s" % (node.name, f.name) in targets
                         or f.name.startswith("__") and f.name.endswith("__")
                         or _overrides(name[:-3], node.name, f.name))
                        for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for f, label, exempt in defs:
                if exempt or f.name in elsewhere:
                    continue
                if f.name not in _references(tree, skip=f):
                    unreferenced.append("%s.%s" % (name[:-3], label))
    return unreferenced


def _tracer_attrs():
    return [attr for _, attr, _, _ in _tracer().TARGETS]


def test_no_unreferenced_functions():
    """Every module-level function and every method in src/logsym is
    referenced somewhere in the package outside its own body, exported from
    the package __init__, or wrapped by the per-layer tracer, so a helper
    cannot outlive its last caller."""
    unreferenced = _unreferenced(_tracer_attrs())
    assert not unreferenced, "unreferenced functions: " + ", ".join(unreferenced)


# kept only because perfbench/tracer.py wraps them: each goes when the
# tracer table stops naming it
TRACER_ONLY = {"calculus.gram_matrix", "calculus.LogForm.lie",
               "connections._normalize_residues_soft", "scalars.Scalar.exact_div"}


def test_tracer_exemption_is_pinned():
    """The functions that have no caller in the package and are kept only
    because the tracer wraps them are exactly TRACER_ONLY, so a new dead
    helper cannot hide behind a tracer target."""
    assert set(_unreferenced([])) - set(_unreferenced(_tracer_attrs())) == TRACER_ONLY


def _contexts_with_a_third_argument(path):
    """The lines of path that call make_context with more than two
    arguments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "make_context"
            and len(node.args) + len(node.keywords) > 2]


def test_make_context_arena_is_benchmark_only():
    """make_context keeps its third parameter, arena, only for the calls in
    perfbench/workloads.py; nothing under src/, tests/ or demos/ passes one.
    Once a change to the benchmark stops passing it, this fails and names
    the parameter to delete, as TRACER_ONLY names the tracer's functions."""
    root = SRC.parent.parent
    assert _contexts_with_a_third_argument(root / "perfbench" / "workloads.py"), (
        "perfbench/workloads.py passes make_context no third argument: delete the "
        "parameter arena of logsym.context.make_context and its check")
    passed = ["%s:%d" % (path.relative_to(root), line)
              for top in ("src", "tests", "demos")
              for path in sorted((root / top).rglob("*.py"))
              for line in _contexts_with_a_third_argument(path)]
    assert not passed, "make_context given a third argument: " + ", ".join(passed)


def test_exports_are_bound():
    """Every name in logsym.__all__ is bound in the package, so a name left
    in the list after its import is gone fails here and not at a user's
    `from logsym import *`; and no name is listed twice."""
    logsym = importlib.import_module("logsym")
    missing = [name for name in logsym.__all__ if not hasattr(logsym, name)]
    assert not missing, "exported but not bound: " + ", ".join(missing)
    assert len(set(logsym.__all__)) == len(logsym.__all__)


def test_tracer_targets_resolve():
    """Every name the per-layer tracer wraps still exists where it looks:
    a module function as a module attribute, a method in the class's own
    __dict__ (the tracer replaces it there).  A rename in the kernels would
    otherwise only show as a crash of `perfbench/run.py --trace 1`."""
    tracer = _tracer()
    missing = []
    for modname, attr, _, _ in tracer.TARGETS:
        assert modname in tracer.MODULES, modname
        mod = importlib.import_module("logsym." + modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append("%s.%s" % (modname, attr))
        elif not callable(getattr(mod, attr, None)):
            missing.append("%s.%s" % (modname, attr))
    assert not missing, "tracer targets missing: " + ", ".join(missing)


_TABLES = {"terms", "_t"}
_MUTATORS = {"pop", "popitem", "update", "clear", "setdefault"}


def _is_table(node):
    return isinstance(node, ast.Attribute) and node.attr in _TABLES


def _table_mutations(tree):
    """(line, what) for every in-place change of a `.terms` or `._t` table:
    an item assigned or deleted, an augmented assignment to the table, or a
    call of a mutating dict method on it.  A local alias of a table is not
    followed; every kernel builds a fresh dict and wraps it instead."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript) and _is_table(t.value):
                    out.append((node.lineno, "item of ." + t.value.attr))
                elif isinstance(node, ast.AugAssign) and _is_table(t):
                    out.append((node.lineno, "augmented ." + t.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS and _is_table(node.func.value)):
            out.append((node.lineno, "." + node.func.value.attr + "." + node.func.attr))
    return out


def test_tables_are_never_changed_in_place():
    """A Poly.terms or Scalar._t table is never changed after it is built,
    which is what lets one-term products and sums with zero hand an operand's
    table (or the operand) back as the result."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d %s" % (path.name, line, what)
                  for line, what in _table_mutations(tree)]
    assert not found, "tables changed in place: " + ", ".join(found)
    # the walk sees each form of change and nothing else
    sample = ("p.terms[e] = c\ndel s._t[k]\np.terms |= q\np.terms.pop(e)\n"
              "s._t.update(t)\np.terms.setdefault(e, c)\ns._t.clear()\n"
              "x: int = 0\nterms[e] = c\np.terms = {}\nq = p.terms.get(e)\n")
    assert [line for line, _ in _table_mutations(ast.parse(sample))] == list(range(1, 8))


def _operand_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _mapped_key_arithmetic(tree):
    """Lines of every tuple(map(add, ...)) and tuple(map(sub, ...)), the
    operator named bare or as an attribute (operator.add)."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _operand_name(node.func) == "tuple"
                and len(node.args) == 1):
            continue
        inner = node.args[0]
        if (isinstance(inner, ast.Call) and _operand_name(inner.func) == "map"
                and inner.args and _operand_name(inner.args[0]) in ("add", "sub")):
            out.append(node.lineno)
    return sorted(out)


def test_key_arithmetic_has_one_rule():
    """Exponent keys are added and subtracted only by poly's kernels written
    out per key arity (poly._key_add, poly._key_sub), never by
    tuple(map(add|sub, ...)), which costs several times the written-out
    sum."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d" % (path.name, line) for line in _mapped_key_arithmetic(tree)]
    assert not found, "keys added through map: " + ", ".join(found)
    # the walk sees both operators in both spellings and nothing else
    sample = ("tuple(map(add, e1, e2))\ntuple(map(operator.sub, e, s))\n"
              "tuple(map(min, a, b))\nmap(add, a, b)\nlist(map(sub, a, b))\n"
              "tuple(a + b for a, b in zip(e1, e2))\n")
    assert _mapped_key_arithmetic(ast.parse(sample)) == [1, 2]


def _slots(tree):
    """(class, name) for every name in a class's literal __slots__."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in node.targets)):
                out += [(cls.name, s) for s in ast.literal_eval(node.value)]
    return out


def test_every_slot_is_read():
    """Every __slots__ name of a class in src/logsym is read as an attribute
    somewhere in the package, so a stored value cannot outlive its last
    reader.  Assignments do not count as reads."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = ["%s.%s" % (cls, name) for tree in trees
              for cls, name in _slots(tree) if name not in read]
    assert not unread, "slots never read: " + ", ".join(unread)
