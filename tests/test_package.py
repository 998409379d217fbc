"""The package's own surface: every name in a module's ``__all__`` resolves.

The package itself and ``cli`` have no ``__all__`` and pass trivially.
"""

import importlib
import pkgutil

import pytest

import algdeform

MODULES = ["algdeform"] + [f"algdeform.{m.name}" for m in pkgutil.iter_modules(algdeform.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name} exports a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
