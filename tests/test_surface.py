"""The library exports only what it uses itself.

Every name in ``nsdpcq.__all__`` must be read somewhere in the package
outside ``__init__.py``, or by the benchmark harness outside its own
tests.  A name that only the tests read belongs with them, in
``tests/oracles.py``.  Reads are taken from the syntax tree: names,
attributes, imported names, and the dotted strings of the tracer's
``TARGETS``, which binds the functions it wraps by name.
"""
import ast
from pathlib import Path

import nsdpcq

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    for path in sorted((ROOT / "src" / "nsdpcq").glob("*.py")):
        if path.name != "__init__.py":
            yield path
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if path.name != "test_perfbench.py":
            yield path


def _names_read(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            names.update(part for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str)
                         for part in c.value.split("."))
    return names


def test_every_export_has_a_caller_outside_the_tests():
    read = set()
    for path in _sources():
        read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    # an alias such as corpus_entries is read under the object's own name
    unread = [name for name in nsdpcq.__all__
              if getattr(getattr(nsdpcq, name), "__name__", name)
              not in read]
    assert unread == []
