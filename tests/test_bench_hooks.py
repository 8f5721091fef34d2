"""The benchmark's traced pass finds every hook it wraps in the package.

``perfbench/layers.py`` wraps module attributes by name and skips, with a
note, any that no longer exist, so a renamed function would silently zero
the metrics built on it. Only ``hasattr`` is used here: ``install`` would
rebind the attributes for every test that runs after this one.
"""

import importlib
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Names the wafer module no longer has; the benchmark skips them and lists them.
STALE = {"jjtune.wafer.child_rng", "jjtune.wafer.apply_anneal"}


def test_every_wrapped_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    layers = importlib.import_module("layers")
    missing = {
        f"{module}.{attr}"
        for module, attr, *_ in layers.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == STALE
