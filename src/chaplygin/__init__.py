"""Numerical workbench for almost-Poisson brackets of rolling rigid bodies.

Covers the reduced and full phase-space bracket structures of a ball with a
generalized rolling constraint of rank 0..3 (rank 2 is the Chaplygin
sphere), gauge transformations by 2-forms, conformal and twisted-Poisson
Hamiltonization checks, Casimirs, invariant measures, and fixed-step
dynamics with conservation diagnostics.

The public names of the modules resolve here on first use (PEP 562), so
loading a scenario and integrating import neither the bracket machinery
nor the verify suites.
"""

import importlib

__version__ = "0.1.0"

# Cheapest first, each after the modules it imports: a name resolves in the
# first module whose __all__ holds it, importing only the modules before it.
_MODULES = ("errors", "geometry", "body", "dynamics", "scenario", "brackets", "rolling", "verify")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        return [*_MODULES, *(n for m in _MODULES for n in _module(m).__all__)]
    for m in _MODULES:
        module = _module(m)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
