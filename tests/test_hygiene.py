"""Source hygiene checks that need no linter: every name a module in
src/logsym imports is used in that module (the package __init__ re-exports
by design and is skipped).  Annotations are plain expressions in the tree,
so a name used only in one counts as used."""

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


def test_tracer_targets_resolve():
    """Every name the per-layer tracer wraps still exists where it looks:
    a module function as a module attribute, a method in the class's own
    __dict__ (the tracer replaces it there).  A rename in the kernels would
    otherwise only show as a crash of `perfbench/run.py --trace 1`.
    perfbench is not a package, so tracer.py is loaded by path."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
