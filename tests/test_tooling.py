"""The benchmark's layer trace binds every function it names, and the
package defines nothing that it never uses."""
import ast
import sys
from pathlib import Path

import energyrep.cli  # noqa: F401  (the trace wraps what the CLI imports)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_has_a_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    tracer = layertrace.Tracer()
    originals = {(mod, path): _lookup(mod, path)
                 for _, mod, path in layertrace.TRACED}
    try:
        tracer.install()  # raises on a traced name that is not bound
        for (mod, path), original in originals.items():
            assert _lookup(mod, path) is not original, f"{mod}.{path}"
    finally:
        tracer.uninstall()
    for (mod, path), original in originals.items():
        assert _lookup(mod, path) is original, f"{mod}.{path}"


def test_factored_eigendecomposition_is_one_traced_solve(monkeypatch):
    # the per-axis solves must not reach the traced method, and the span is
    # sized from the assembled matrix: --trace 1 call counts and n3 rely on it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    from energyrep.grid import WeightField, build_grid
    from energyrep.operators import assemble_h

    g = build_grid("torus", 8, radius=1.0)
    op = assemble_h(g, WeightField.constant(g, 2.0))
    assert op.factors is not None
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        op.eigendecomposition()
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[0] == "operators.eigendecomposition"]
    assert len(spans) == 1
    assert spans[0][4] == 64


def _lookup(modname, path):
    owner = sys.modules[modname]
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner.__dict__[attr] if owners else getattr(owner, attr)


SRC = Path(__file__).resolve().parents[1] / "src" / "energyrep"
# entry points reached from outside the package
EXEMPT = {("cli.py", "main")}


def _definitions_and_references():
    """Every function, class and method of the package, as (file, qualified
    name, name, first line, last line), and every name a module reads, as
    (file, line, name).  __init__.py only re-exports, so it is not read."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    defs.append((path.name, prefix + child.name, child.name,
                                 child.lineno, child.end_lineno))
                    stack.append((child, prefix + child.name + "."))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))
    return defs, refs


def test_every_definition_is_referenced_in_the_package():
    defs, refs = _definitions_and_references()
    unused = []
    for file, qualname, name, first, last in defs:
        if (name.startswith("__") and name.endswith("__")
                or (file, name) in EXEMPT):
            continue
        if not any(ref == name and not (rfile == file and first <= line <= last)
                   for rfile, line, ref in refs):
            unused.append(f"{file}:{qualname}")
    assert not unused, f"defined but never referenced: {unused}"
