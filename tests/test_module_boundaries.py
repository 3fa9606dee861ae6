"""Module boundaries of `symdyn`, read from its source with `ast`.

No private name crosses a module: a module imports no `_x` from another
and reads no attribute `._x` that it does not define itself.  The model and
the stepping and sampling kernel sit in `kernel`, which imports no symdyn
module but `netgraph`, and the modules built on the kernel alone do not
import `symsys`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symdyn"
# `cli` rejects a malformed SYMDYN_THREADS before any work through the
# reader that the packed engine resolves it with
CROSSINGS = {("cli", "ss._thread_count")}
KERNEL_CLIENTS = ("metricspace", "counterexample", "entropydim")


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _symdyn_imports(tree) -> list:
    """(module, names) of every import of a symdyn module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.append((node.module, [a.name for a in node.names]))
            else:
                out += [(a.name, []) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symdyn"):
            out.append((node.module.partition(".")[2] or "symdyn", [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            out += [(a.name.partition(".")[2], []) for a in node.names
                    if a.name.startswith("symdyn.")]
    return out


def _defined(tree) -> set:
    """Every name a module binds: functions, classes, methods, variables and
    attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_no_private_name_is_imported_from_another_module():
    found = [(name, module, imported) for name, tree in _modules().items()
             for module, names in _symdyn_imports(tree) for imported in names
             if _private(imported)]
    assert found == []


def test_no_private_attribute_of_another_module_is_read():
    found = set()
    for name, tree in _modules().items():
        own = _defined(tree)
        found |= {(name, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and node.attr not in own}
    assert found == CROSSINGS


def test_kernel_imports_only_netgraph():
    assert {module for module, _ in _symdyn_imports(_modules()["kernel"])} == {"netgraph"}


def test_kernel_clients_do_not_import_symsys():
    modules = _modules()
    assert [(name, module) for name in KERNEL_CLIENTS
            for module, _ in _symdyn_imports(modules[name]) if module == "symsys"] == []
