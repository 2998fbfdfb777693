"""Every name a module of the package imports is used in that module.  The
package's ``__init__`` is exempt: its imports are the library API, which
``test_scripts`` checks against the README.  The Bell-table layout is read
only by the series kernel and the Sheffer layer: no other module names a
Bell-table helper."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "umbralcalc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in ``source`` (``__future__``
    features aside) that no expression in it reads."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom math import comb, gcd as g\nprint(g)\n"
    assert unused_imports(source) == ["os", "comb"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


BELL_HELPERS = {"_bell_table", "_bell_columns", "_revert_table", "_compose", "_fold_runs"}
BELL_READERS = {"series.py", "sheffer.py"}


def bell_helpers_named(source: str) -> list[str]:
    """The Bell-table helpers that ``source`` imports or reads as an attribute."""
    tree = ast.parse(source)
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    attributes = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    return [name for name in imported + attributes if name in BELL_HELPERS]


def test_bell_helpers_are_found():
    source = "from .series import _compose, egf_mul\nfrom . import series\nseries._bell_table(h)\n"
    assert bell_helpers_named(source) == ["_compose", "_bell_table"]


@pytest.mark.parametrize("module", sorted(set(MODULES) - BELL_READERS))
def test_only_the_kernel_and_sheffer_read_bell_tables(module):
    assert bell_helpers_named((PACKAGE / module).read_text()) == []
