import importlib
import pkgutil

import pytest

import boidol

MODULES = sorted(info.name for info in pkgutil.iter_modules(boidol.__path__))


def test_modules_found():
    assert {"fields", "group", "kernels"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_is_defined(name):
    module = importlib.import_module(f"boidol.{name}")
    missing = [entry for entry in getattr(module, "__all__", ())
               if entry not in vars(module)]
    assert not missing, f"boidol.{name}.__all__ names undefined {missing}"
