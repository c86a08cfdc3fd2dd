"""Which sibling modules each package module may import."""

import ast
from pathlib import Path

import setdifflab

PACKAGE = Path(setdifflab.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """The modules named by the ``from .x import`` lines of one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_universe_sits_on_errors_alone():
    assert sibling_imports("universe") == {"errors"}


def test_fpforms_needs_only_the_universe():
    assert sibling_imports("fpforms") == {"errors", "universe"}


def test_extremal_does_not_import_fpforms():
    assert "patterns" in sibling_imports("extremal")
    assert "fpforms" not in sibling_imports("extremal")
