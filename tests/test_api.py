import importlib
import pkgutil

import pytest

import degen_icp

MODULES = sorted(info.name for info in pkgutil.iter_modules(degen_icp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"degen_icp.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"degen_icp.{name}.__all__ lists undefined names {missing}"
