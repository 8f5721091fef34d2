"""Every module's ``__all__`` names only attributes the module defines, and
the package exports exactly the union of the ``__all__`` lists of the library
modules it lists."""

import collections
import importlib
import pkgutil
import types

import pytest

import jjtune

MODULES = sorted(info.name for info in pkgutil.iter_modules(jjtune.__path__))

LIBRARY = list(jjtune._MODULES)


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
    assert sorted(LIBRARY) == sorted(set(MODULES) - {"cli", "io"})


@pytest.mark.parametrize("name", LIBRARY)
def test_star_imported_module_declares_all(name):
    assert hasattr(importlib.import_module(f"jjtune.{name}"), "__all__")


def test_no_name_is_exported_by_two_modules():
    counts = collections.Counter(n for name in LIBRARY for n in _all(name))
    assert [n for n, k in counts.items() if k > 1] == []


def test_package_exports_exactly_the_modules_all():
    union = {n for name in LIBRARY for n in _all(name)}
    public = {
        n for n in dir(jjtune)
        if not n.startswith("_") and not isinstance(getattr(jjtune, n), types.ModuleType)
    }
    assert public == union
    namespace: dict = {}
    exec("from jjtune import *", namespace)
    assert set(namespace) - {"__builtins__"} == union
    for name in LIBRARY:
        module = importlib.import_module(f"jjtune.{name}")
        for n in module.__all__:
            assert getattr(jjtune, n) is getattr(module, n)
            assert namespace[n] is getattr(module, n)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jjtune.no_such_name
    assert not hasattr(jjtune, "no_such_name")
