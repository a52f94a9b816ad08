"""Source hygiene checks that need no installed linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/febench/**/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("demos/*.py")])


def unused_module_imports(source):
    """Names bound by a module-level import that the module never reads.

    ``from __future__`` imports and names listed in ``__all__`` count as used.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scanner_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path, sys as system\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(system.argv)\n")
    assert unused_module_imports(source) == [(2, "os"), (3, "dumps")]


def test_no_unused_module_level_imports():
    assert len(SOURCES) > 30
    found = {str(path.relative_to(ROOT)): names for path in SOURCES
             if (names := unused_module_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
