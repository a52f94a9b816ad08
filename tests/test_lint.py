"""Source hygiene checks that need no installed linter."""

import ast
import dataclasses
from pathlib import Path

from febench.cnn import CnnHeadConfig
from febench.encoders import EncoderConfig
from febench.training import RunConfig

ROOT = Path(__file__).resolve().parents[1]
# the library's run, head and encoder configs: the one home of each default
CONFIGS = (RunConfig, CnnHeadConfig, EncoderConfig)
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


def retyped_defaults(source, defaults, owners=()):
    """(line, name) of each annotated class field and keyword default in
    ``source`` whose value is a literal equal to ``defaults[name]``; the
    fields of the classes named in ``owners`` are not read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        pairs = []
        if isinstance(node, ast.ClassDef) and node.name not in owners:
            pairs = [(stmt.target.id, stmt.value) for stmt in node.body
                     if isinstance(stmt, ast.AnnAssign) and stmt.value
                     and isinstance(stmt.target, ast.Name)]
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            named = args.posonlyargs + args.args
            pairs = [(a.arg, d) for a, d in zip(
                named[len(named) - len(args.defaults):], args.defaults)]
            pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults) if d]
        for name, value in pairs:
            try:
                literal = ast.literal_eval(value)
            except ValueError:
                continue
            if name in defaults and literal == defaults[name]:
                found.append((value.lineno, name))
    return sorted(found)


def library_defaults():
    """Each field default of the library's run, head and encoder configs.

    ``None`` marks a value left unset, and each ``seed`` seeds its own
    stream (a corpus, a grid, one run), so neither counts as a copy.
    """
    return {f.name: f.default
            for config in CONFIGS
            for f in dataclasses.fields(config)
            if f.default not in (dataclasses.MISSING, None) and f.name != "seed"}


def test_default_scanner_flags_only_repeated_literals():
    source = ("class Cell:\n"
              "    max_len: int = 200\n"
              "    filters: int = Head.filters\n"
              "    threshold: float = 0.4\n"
              "    other: int = 200\n"
              "def run(kernel_sizes=(3, 4, 5, 6), *, learning_rate=5e-5,\n"
              "        name='x'):\n"
              "    pass\n")
    defaults = {"max_len": 200, "filters": 100, "threshold": 0.5,
                "kernel_sizes": (3, 4, 5, 6), "learning_rate": 5e-5}
    assert retyped_defaults(source, defaults) == [
        (2, "max_len"), (6, "kernel_sizes"), (6, "learning_rate")]
    assert retyped_defaults(source, defaults, owners=("Cell",)) == [
        (6, "kernel_sizes"), (6, "learning_rate")]


def test_bench_retypes_no_library_default():
    """A default anywhere in the package that copies a library config's
    literal falls out of step when that default changes; it must read the
    config's value or be passed by the caller.  Only the configs' own field
    definitions hold the literals."""
    defaults = library_defaults()
    assert {"learning_rate", "threshold", "max_len", "kernel_sizes",
            "filters"} <= set(defaults)
    owners = {config.__name__ for config in CONFIGS}
    found = {str(path.relative_to(ROOT)): hits
             for path in sorted(ROOT.glob("src/febench/**/*.py"))
             if (hits := retyped_defaults(path.read_text(encoding="utf-8"),
                                          defaults, owners))}
    assert found == {}


def foreign_private_writes(source):
    """(line, target) of each assignment to an underscore attribute of an
    object other than ``self`` or ``cls``."""
    return sorted((node.lineno, ast.unparse(node))
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and node.attr.startswith("_")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls")))


def test_private_write_scanner_flags_only_foreign_objects():
    source = ("class A:\n"
              "    def f(self, other):\n"
              "        self._x = 1\n"
              "        cls._y = 2\n"
              "        other._z = 3\n"
              "        other.z, self._w = 4, 5\n"
              "        other._n += 1\n"
              "        print(other._z)\n"
              "        self.part._held: int = 0\n"
              "record._held = {}\n")
    assert foreign_private_writes(source) == [
        (5, "other._z"), (7, "other._n"), (9, "self.part._held"),
        (10, "record._held")]


def test_no_module_writes_another_objects_private_attribute():
    """An underscore attribute is its class's own state: another object
    writing it bypasses the methods that keep the state consistent."""
    found = {str(path.relative_to(ROOT)): hits
             for path in sorted(ROOT.glob("src/febench/**/*.py"))
             if (hits := foreign_private_writes(path.read_text(encoding="utf-8")))}
    assert found == {}
