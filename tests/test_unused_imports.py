"""An offline lint signal: no module under ``src/repro`` imports a name
it never uses.

CI runs ruff and mypy; this test needs nothing beyond the standard
library's :mod:`ast`, so a checkout without them still fails on the
most common leftover of a deletion.  A name counts as used if it
appears as a name or as the root of an attribute chain, inside a string
annotation, or in ``__all__``.  ``from __future__`` imports are
directives, and a package's ``__init__`` re-exports what it imports, so
neither is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(node: ast.AST) -> set[str]:
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads: plain, in string annotations, in ``__all__``."""
    used = _names_in(tree)
    for annotation in _annotations(tree):
        for child in ast.walk(annotation):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                try:
                    used |= _names_in(ast.parse(child.value, mode="eval"))
                except SyntaxError:  # a ``Literal`` string, not a forward reference
                    continue
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for child in ast.walk(node.value):
                    if isinstance(child, ast.Constant) and isinstance(child.value, str):
                        used.add(child.value)
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every import in ``source`` that is never used."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        (name, line) for name, line in _imported(tree).items() if name not in used
    )


_MODULES = sorted(
    path for path in SOURCE.rglob("*.py") if path.name != "__init__.py"
)


def test_the_source_tree_is_found():
    assert len(_MODULES) > 20


@pytest.mark.parametrize(
    "path", _MODULES, ids=lambda path: str(path.relative_to(SOURCE))
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestTheCheck:
    def test_flags_an_unused_import(self):
        assert unused_imports("import os\nimport sys\nsys.exit()\n") == [("os", 1)]

    def test_flags_an_unused_from_import_by_its_bound_name(self):
        found = unused_imports("from a import b as c, d\nd()\n")
        assert found == [("c", 1)]

    def test_attribute_root_counts(self):
        assert unused_imports("import os.path\nos.path.join('a')\n") == []

    def test_string_annotation_counts(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from a import Order\n"
            "def f(order: 'list[Order]') -> None: ...\n"
        )
        assert unused_imports(source) == []

    def test_dunder_all_counts(self):
        assert unused_imports("from a import b\n__all__ = ['b']\n") == []

    def test_future_import_is_a_directive(self):
        assert unused_imports("from __future__ import annotations\n") == []
