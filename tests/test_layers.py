"""Each layer module's ``__all__`` lists only what the module defines.

The traced benchmark wraps the functions named in these lists, under every
name the package binds them to: a stale name makes it fail, and a function
imported from another module would be wrapped under the wrong layer or
not at all."""

import importlib
import inspect

import pytest

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
