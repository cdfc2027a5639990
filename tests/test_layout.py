"""Module layout: no module reaches into a sibling's private names or
imports a name it never uses, importing the CLI stays cheap, the ensemble
module runs the exact-transport engine, both engines return one result
type, the CLI writes every file through one hashing writer, and the wave
field evaluates both laws through one density kernel and one CDF kernel,
reached only through the law object."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtraj.dynamics
import qtraj.ensemble
from qtraj import SeededStream, make_initial_conditions

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtraj"
_SOURCES = sorted(path for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")

#: scipy subpackages that cost a run's start-up far more than its work at the
#: benchmark sizes; scipy.integrate alone pulls in the other two.
_HEAVY_AT_IMPORT = ("scipy.integrate", "scipy.sparse", "scipy.optimize")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imports(tree: ast.Module):
    """(bound name, imported name, node) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), alias.name, node


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_private_sibling_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        name
        for _, name, node in _imports(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and _is_private(name)
    ]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for bound, _, _ in _imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports unused names {unused}"


def _module_level(node: ast.AST):
    """Every node that runs when the module is imported (function bodies excluded)."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_level_scipy_integrate(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        ast.unparse(node)
        for node in _module_level(tree)
        if (isinstance(node, ast.Import) and any(a.name.startswith("scipy.integrate") for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.integrate"))
        or (isinstance(node, ast.ImportFrom) and node.module == "scipy" and any(a.name == "integrate" for a in node.names))
    ]
    assert not found, f"{path.name} imports scipy.integrate at module level: {found}"


def test_cli_import_leaves_heavy_scipy_unloaded():
    """A fresh interpreter that imports qtraj.cli has loaded none of these."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = f"import sys, qtraj.cli; print(' '.join(m for m in {_HEAVY_AT_IMPORT!r} if m in sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout.split()
    assert not loaded, f"import qtraj.cli loads {loaded}"


def test_ensembles_run_the_transport_engine():
    """The name the ensemble module calls per batch is the dynamics module's
    exact-transport engine."""
    assert qtraj.ensemble.integrate_batch is qtraj.dynamics.integrate_batch


@pytest.mark.parametrize("engine", [qtraj.dynamics.integrate_batch, qtraj.dynamics.rk4_batch], ids=lambda f: f.__name__)
def test_engines_return_columns_on_the_record_grid(params, schedule, engine):
    """Both engines return one result type, recorded on the schedule's grid."""
    ics = make_initial_conditions(4, SeededStream(1, 0), params, 0.0, "revised")
    for batch in (ics, ics[:0]):
        columns = engine(batch, schedule, params)
        assert isinstance(columns, qtraj.dynamics.TrajectoryColumns) and len(columns) == len(batch)
        np.testing.assert_array_equal(columns.t, schedule.record_times)


def _calls(path: Path):
    """(enclosing function, called name, line) for every call in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    enclosing = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                enclosing[node] = func.name  # inner functions are walked later and win
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield enclosing.get(node, "<module>"), getattr(node.func, "id", getattr(node.func, "attr", None)), node.lineno


def test_cli_writes_only_through_the_hashing_writer():
    """In cli.py only ``_write_hashed`` calls ``open``, and nothing calls
    ``write_text`` or ``write_bytes``, so every output file is hashed and
    every failed write is reported one way."""
    offenders = [
        f"{where}:{line} calls {name}"
        for where, name, line in _calls(_PACKAGE / "cli.py")
        if name in ("write_text", "write_bytes") or (name == "open" and where != "_write_hashed")
    ]
    assert not offenders, f"cli.py writes outside _write_hashed: {offenders}"


def test_wavefield_has_one_density_kernel_and_one_cdf_kernel():
    """In wavefield.py only ``_cumulative`` calls ``wofz`` and ``ndtr``, and
    only ``_density_terms`` calls ``np.cos``, so both laws' densities and
    CDFs share one real kernel and one Faddeeva kernel."""
    owners = {"wofz": "_cumulative", "ndtr": "_cumulative", "cos": "_density_terms"}
    offenders = [
        f"{where}:{line} calls {name}"
        for where, name, line in _calls(_PACKAGE / "wavefield.py")
        if name in owners and where != owners[name]
    ]
    assert not offenders, f"wavefield.py evaluates a law outside its kernels: {offenders}"


def test_law_cdfs_go_through_the_law_object():
    """In wavefield.py only ``ClosedFormCDF.__call__`` calls ``_cumulative``,
    and no module defines the deleted function forms of the laws, so every
    CDF of a law is evaluated through ``position_cdf`` / ``momentum_cdf``."""
    tree = ast.parse((_PACKAGE / "wavefield.py").read_text(encoding="utf-8"))
    (law,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ClosedFormCDF"]
    (call,) = [node for node in law.body if isinstance(node, ast.FunctionDef) and node.name == "__call__"]
    inside = {id(node) for node in ast.walk(call)}
    outside = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_cumulative" and id(node) not in inside
    ]
    assert not outside, f"wavefield.py calls _cumulative outside ClosedFormCDF.__call__ at lines {outside}"
    deleted = {"mass_coordinate", "momentum_cumulative", "momentum_density"}
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in deleted
    ]
    assert not defined, f"law functions outside the law object: {defined}"
