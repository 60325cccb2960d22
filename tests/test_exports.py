"""Every name a fraccond module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import fraccond

MODULES = ["fraccond"] + [
    f"fraccond.{info.name}" for info in pkgutil.iter_modules(fraccond.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
