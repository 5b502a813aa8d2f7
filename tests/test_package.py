"""The package's public namespace."""

import ast
import pathlib
import types

import opcast


def test_every_exported_name_resolves_to_an_api_object():
    assert len(opcast.__all__) == len(set(opcast.__all__))
    for name in opcast.__all__:
        value = getattr(opcast, name)
        assert not isinstance(value, types.ModuleType), name


def test_submodules_are_not_exported():
    namespace = {}
    exec("from opcast import *", namespace)
    assert "harness" not in namespace and "model" not in namespace
    assert {"IoHmmModel", "leave_one_week_out", "parse_dataset"} <= set(namespace)


def test_every_exported_name_has_a_caller_outside_its_own_tests():
    # a use is a name or an attribute in the package's modules or the benchmark;
    # a string such as a report's "mae" key is not one
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = [path for path in sorted((root / "src" / "opcast").glob("*.py"))
               if path.name != "__init__.py"] + sorted((root / "bench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(opcast.__all__) - used) == []


def test_every_imported_name_is_used():
    # in the package's modules (its namespace module re-exports by design) and
    # the tests: each name an import binds is read as a name somewhere
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = [path for path in sorted((root / "src" / "opcast").glob("*.py"))
               if path.name != "__init__.py"] + sorted((root / "tests").glob("*.py"))
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [(alias.asname or alias.name.split(".")[0], node.lineno)
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(root)}:{line} {name}" for name, line in bound
                   if name not in read]
    assert unused == []
