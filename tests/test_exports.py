"""Every module's ``__all__`` names only attributes the module defines, and
the package exports exactly the union of the ``__all__`` lists it star-imports."""

import ast
import collections
import importlib
import inspect
import pkgutil
import types

import pytest

import jjtune

MODULES = sorted(info.name for info in pkgutil.iter_modules(jjtune.__path__))

STARRED = [
    node.module
    for node in ast.parse(inspect.getsource(jjtune)).body
    if isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]
]


def _all(name):
    return importlib.import_module(f"jjtune.{name}").__all__


def test_modules_are_found():
    assert {"physics", "tuner", "tls", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    namespace: dict = {}
    exec(f"from jjtune.{name} import *", namespace)
    module = importlib.import_module(f"jjtune.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_package_star_imports_every_library_module():
    assert set(STARRED) == set(MODULES) - {"cli", "io"}


@pytest.mark.parametrize("name", STARRED)
def test_star_imported_module_declares_all(name):
    assert hasattr(importlib.import_module(f"jjtune.{name}"), "__all__")


def test_no_name_is_exported_by_two_modules():
    counts = collections.Counter(n for name in STARRED for n in _all(name))
    assert [n for n, k in counts.items() if k > 1] == []


def test_package_exports_exactly_the_modules_all():
    public = {
        n for n, v in vars(jjtune).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == {n for name in STARRED for n in _all(name)}
