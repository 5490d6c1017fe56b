"""Each layer module's ``__all__`` lists only what the module defines,
and every top-level definition has a use.

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
