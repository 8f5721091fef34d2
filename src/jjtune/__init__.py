"""jjtune: digital twin and closed-loop planning for laser-trimmed junctions.

Modules:
- physics: resistance <-> frequency <-> critical current maps
- fitkit: deterministic damped least-squares fitting
- dose: laser dose response and stochastic anneal shots
- aging: storage drift curves and offset preservation
- tls: defect spectroscopy maps, Stark calibration, coherence statistics
- wafer: registration, alignment QC, batch runs
- tuner: closed-loop retuning and target allocation
- cli: the ``jjtune`` command

``import jjtune`` loads no module. The first lookup of a public name imports
the library modules below and binds every name in their ``__all__`` here, so
``from jjtune import X`` works as before; a submodule name loads only that
submodule.
"""

from importlib import import_module as _import_module

_MODULES = ("aging", "dose", "errors", "fitkit", "physics", "streams", "tls", "tuner", "wafer")

__version__ = "0.1.0"


def _exports() -> list:
    """The union of the library modules' ``__all__``, bound here on first use."""
    if "__all__" not in globals():
        names = []
        for module_name in _MODULES:
            module = _import_module(f".{module_name}", __name__)
            globals().update((n, getattr(module, n)) for n in module.__all__)
            names.extend(module.__all__)
        globals()["__all__"] = names
    return globals()["__all__"]


def __getattr__(name: str):
    if name in _MODULES or name in ("cli", "io"):
        return _import_module(f".{name}", __name__)
    if name in _exports() or name == "__all__":
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_exports()))
