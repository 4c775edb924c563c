"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def imported_roots(path):
    """Top-level names of the absolute imports in a module; a relative
    import gives None."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.split(".")[0]


def test_imports_are_stdlib_or_own():
    modules = sorted((ROOT / "src" / "splicelink").glob("*.py"))
    assert modules
    for path in modules:
        for root in imported_roots(path):
            assert root is None or root == "splicelink" \
                or root in sys.stdlib_module_names, (path.name, root)


def test_no_runtime_dependencies_are_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "dependencies = []" in text.splitlines()
