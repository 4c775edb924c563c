"""The package imports nothing outside the standard library, every name a
module imports is used in it, every name it exports has a caller outside
the tests, and its frozen dataclasses are slotted."""

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


def unused_imports(path):
    """Names bound by an import in a module that occur nowhere in it as a
    name (the base of an attribute access is a name too)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_imported_name_is_used():
    # __init__.py imports to re-export
    modules = [path
               for path in sorted((ROOT / "src" / "splicelink").glob("*.py"))
               if path.name != "__init__.py"]
    assert modules
    for path in modules:
        assert unused_imports(path) == [], path.name


def exported_names():
    """Names splicelink/__init__.py imports to re-export."""
    tree = ast.parse((ROOT / "src" / "splicelink" / "__init__.py")
                     .read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def read_names(path):
    """Every name a module reads, as a name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_exported_name_has_a_caller():
    # the package exports what the command line and the benchmark call;
    # an oracle only the tests call lives in tests/oracles.py
    callers = [path
               for path in sorted((ROOT / "src" / "splicelink").glob("*.py"))
               if path.name != "__init__.py"]
    callers += sorted((ROOT / "splicebench").glob("*.py"))
    read = set().union(*map(read_names, callers))
    assert sorted(exported_names() - read) == []


def test_no_runtime_dependencies_are_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "dependencies = []" in text.splitlines()


def unslotted_frozen_dataclasses(path):
    """Names of the classes in a module decorated @dataclass(frozen=True,
    ...) without slots=True."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call) and ast.unparse(dec.func) in (
                    "dataclass", "dataclasses.dataclass"):
                flags = {k.arg: getattr(k.value, "value", None)
                         for k in dec.keywords}
                if flags.get("frozen") is True \
                        and flags.get("slots") is not True:
                    found.append(node.name)
    return found


def test_frozen_dataclasses_are_slotted():
    # a slotted instance has no __dict__, which is most of its memory
    modules = sorted((ROOT / "src" / "splicelink").glob("*.py"))
    assert modules
    for path in modules:
        assert unslotted_frozen_dataclasses(path) == [], path.name
