import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import degen_icp
from degen_icp import IcpConfig, cli, errors

MODULES = sorted(info.name for info in pkgutil.iter_modules(degen_icp.__path__))
LISTING = [name for name in MODULES if hasattr(importlib.import_module(f"degen_icp.{name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"degen_icp.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"degen_icp.{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", LISTING)
def test_public_definitions_listed(name):
    module = importlib.import_module(f"degen_icp.{name}")
    unlisted = [
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and attr not in module.__all__
    ]
    assert not unlisted, f"degen_icp.{name} defines public names missing from __all__: {unlisted}"


def test_package_exports_module_names():
    # cloud_io stays a submodule, like cli.
    missing = [
        f"{name}.{attr}"
        for name in LISTING
        if name != "cloud_io"
        for attr in importlib.import_module(f"degen_icp.{name}").__all__
        if not hasattr(degen_icp, attr)
    ]
    assert not missing, f"public names degen_icp does not export: {missing}"


def test_errors_are_raised():
    source = "\n".join(path.read_text() for path in Path(degen_icp.__file__).parent.glob("*.py"))
    raised = set(re.findall(r"\braise\s+(\w+)", source))
    unraised = [
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.DegenIcpError) and obj is not errors.DegenIcpError
        and name not in raised
    ]
    assert not unraised, f"error types no code raises: {unraised}"


def test_icp_config_fields_settable():
    """Every IcpConfig field is a setting register reads: a flag or a
    set_defaults entry of its parser gives it a non-None default."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    register = commands.choices["register"]
    unsettable = [f.name for f in dataclasses.fields(IcpConfig) if register.get_default(f.name) is None]
    assert not unsettable, f"IcpConfig fields register cannot set: {unsettable}"
