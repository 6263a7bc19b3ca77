import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import degen_icp
from degen_icp import (IcpConfig, Pose, SceneKind, SceneSpec, cli, cloud_io, errors, exp_so3, generate_scene,
                       registration)

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
    """Every IcpConfig field is a setting register reads: a flag of its
    parser gives it a non-None default."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    register = commands.choices["register"]
    unsettable = [f.name for f in dataclasses.fields(IcpConfig) if register.get_default(f.name) is None]
    assert not unsettable, f"IcpConfig fields register cannot set: {unsettable}"


def test_benchmark_tracer_installs(monkeypatch):
    """The benchmark's tracer replaces package names by attribute; a rename it
    does not follow must fail here, not only in traced benchmark runs. A run
    between install and restore records the kd-tree spans its per-layer
    metrics read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass resolves the module by name
    spec.loader.exec_module(tracing)
    modules = (cli, cloud_io, registration)
    registration.cKDTree  # the first read imports the kd-tree class into the module's globals
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        target = generate_scene(SceneSpec(SceneKind.ROOM, point_count=300, seed=1)).points
        registration.icp(target, target, Pose(exp_so3([0.01, 0.0, 0.0]), [0.01, 0.0, 0.0]), IcpConfig())
    finally:
        restore()
    assert [dict(vars(module)) for module in modules] == before
    names = {span.name for span in tracer.spans}
    assert {"registration.tree_build", "registration.knn"} <= names


@pytest.mark.parametrize("workload", ["room-20k", "oracle-mc", "corridor-map"])
def test_benchmark_check_accepts_outputs(monkeypatch, tmp_path, workload):
    """The benchmark's output check must accept what the commands write: a
    renamed output field or a feature count that no longer sums to the
    source points would fail every benchmark operation, so it fails here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads, checks = importlib.import_module("workloads"), importlib.import_module("checks")
    op = workloads.build(workload, 5, tmp_path, tiny=True)[0]
    code = cli.main(op.argv)
    assert checks.check(op, code)[0] is None
