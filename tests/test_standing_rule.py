"""Every top-level function and class in src/qtchains has a library caller.

A definition passes when code elsewhere in the package names it, or when
the package's __init__ re-exports it.  Helpers that only tests call
belong in tests/oracles.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qtchains"


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
    return names


def test_every_src_definition_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = []
    refs = []  # (file, top-level node, names that node references)
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((name, node))
            refs.append((name, node, _referenced_names(node)))
    assert defs
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in defs
        if not any(node.name in names for _, other, names in refs if other is not node)
    ]
    assert unused == [], "no library or CLI caller: " + ", ".join(unused)
