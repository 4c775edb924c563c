"""The package imports nothing outside the standard library, every name a
module imports is used in it, every name it exports has a caller outside
the tests, its value types are slotted immutable tuples, and importing its
command line loads no introspection modules."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

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


# the value types: namedtuple subclasses that declare __slots__ = ()
VALUE_TYPES = {"splice": ("Vertex", "Edge"),
               "invariants": ("Ray", "BoundarySlope"),
               "polytope": ("FibredFace", "NormBall"),
               "swtheory": ("CanonicalClass",),
               "orbits": ("LatticeMap", "OrbitPartition"),
               "cli": ("Report",)}


def value_types():
    """Every tuple subclass with named fields that a module of the package
    defines (__main__ runs the command line, so it is not imported); it
    must include the VALUE_TYPES."""
    found = {}
    for path in sorted((ROOT / "src" / "splicelink").glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module("splicelink." + path.stem)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, tuple) \
                    and hasattr(obj, "_fields") \
                    and obj.__module__ == module.__name__:
                found[module.__name__, name] = obj
    named = {("splicelink." + mod, name)
             for mod, names in VALUE_TYPES.items() for name in names}
    assert named <= found.keys()
    return found


def test_value_types_are_slotted_and_immutable():
    # a slotted instance has no __dict__, which is most of its memory
    for (mod, name), cls in value_types().items():
        value = cls(*range(len(cls._fields)))
        assert not hasattr(value, "__dict__"), (mod, name)
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], -1)
        with pytest.raises(AttributeError):
            value.extra = -1
        assert hash(value) == hash(tuple(range(len(cls._fields))))


def test_no_module_imports_dataclasses_or_typing():
    for path in sorted((ROOT / "src" / "splicelink").glob("*.py")):
        assert not {"dataclasses", "typing"} & set(imported_roots(path)), \
            path.name


def test_cli_import_loads_no_introspection_modules():
    # each CLI run pays its imports; dataclasses would pull in inspect,
    # ast, dis and tokenize
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import splicelink.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
