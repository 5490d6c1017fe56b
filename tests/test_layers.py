"""Each layer module's ``__all__`` lists only what the module defines,
every top-level definition has a use, and the modules import one another
as one table says.

The traced benchmark wraps the functions named in these lists, under every
name the package binds them to: a stale name makes it fail, and a function
imported from another module would be wrapped under the wrong layer or
not at all."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "reorgsvd").glob("*.py"))

LAYERS = ("cli", "core", "reshape", "sweep", "tridiag", "pgm", "covid", "report")

# The package modules each module imports.  Layers pass plain matrices to
# one another: ``core`` imports nothing from the package, and the file
# formats (``pgm``, ``report``) are read and written only at the edges,
# by ``cli`` and ``__init__``.
IMPORTS = {
    "__init__": {"core", "covid", "pgm", "reshape", "sweep", "tridiag"},
    "cli": {"core", "covid", "pgm", "report", "reshape", "sweep", "tridiag"},
    "core": set(),
    "covid": {"core", "reshape"},
    "pgm": {"core"},
    "report": set(),
    "reshape": {"core"},
    "sweep": {"core", "reshape"},
    "tridiag": {"core", "reshape"},
}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_names_resolve_to_own_definitions(layer):
    module = importlib.import_module(f"reorgsvd.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{layer}.__all__ names missing {name!r}"
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (
                f"{layer}.{name} is defined in {obj.__module__}"
            )


def test_package_all_resolves():
    package = importlib.import_module("reorgsvd")
    for name in package.__all__:
        assert hasattr(package, name), name


def test_every_top_level_definition_is_used():
    # A definition counts as used when code in src/ names it (a Name or an
    # Attribute node, so a mention in a docstring does not count) or when
    # README documents it for users.
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []


def _package_imports(tree) -> set[str]:
    """The package modules that ``tree`` imports, at any depth, by a
    relative or an absolute import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("reorgsvd"):
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(module.partition(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "reorgsvd" and rest:
                    found.add(rest.partition(".")[0])
    return found


def test_modules_import_one_another_as_the_table_says():
    graph = {path.stem: _package_imports(ast.parse(path.read_text())) for path in SOURCES}
    assert graph == IMPORTS
