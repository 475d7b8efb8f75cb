"""Shared fixtures."""

import sys

import pytest

from crorbit import expr


@pytest.fixture
def compilations(monkeypatch):
    """The arguments of every kernel compilation, by compiler, from any crorbit module."""
    calls = {
        name: []
        for name in ("compile_values", "compile_values_and_jacobian",
                     "compile_values_rows", "compile_values_and_jacobian_rows")
    }
    for name, log in calls.items():
        real = getattr(expr, name)

        def counting(*args, real=real, log=log):
            log.append(args)
            return real(*args)

        for module in list(sys.modules.values()):  # every binding in the package
            if getattr(module, "__name__", "").startswith("crorbit") and hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls
