"""Every module's ``__all__`` names only attributes the module defines."""

import importlib
import pkgutil

import pytest

import jjtune

MODULES = sorted(info.name for info in pkgutil.iter_modules(jjtune.__path__))


def test_modules_are_found():
    assert {"physics", "tuner", "tls", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    namespace: dict = {}
    exec(f"from jjtune.{name} import *", namespace)
    module = importlib.import_module(f"jjtune.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)
