"""Module layout: no module reaches into a sibling's private names or
imports a name it never uses, no module imports scipy, the third-party
imports are exactly the declared dependencies, neither importing the CLI
nor running ``qtraj verify`` loads scipy, the ensemble module runs the
exact-transport engine, both engines return one result type, the CLI
writes every file through one hashing writer, and the wave field evaluates
both laws through one density kernel and one CDF kernel with one Faddeeva
series, reached only through the law object, and the sampler draws every
stream of a batch from one Philox call."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtraj.dynamics
import qtraj.ensemble
import qtraj.wavefield
from qtraj import SeededStream, make_initial_conditions

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtraj"
_SOURCES = sorted(path for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(names):
    """``module:name`` for every function or class in the package named in ``names``."""
    return [
        f"{path.name}:{node.name}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in names
    ]


def test_public_names():
    """The package exports exactly the 24 names of the pipeline, each one
    resolves, and no module defines the deleted histogram spec, slice
    exception, peak bound or per-band metrics."""
    public = {
        "HBAR_NM2_ME_PS", "THEORIES", "DoubleSlitParams", "NodeSingularity",
        "psi", "rho", "p_bb", "p_revised", "position_cdf", "momentum_cdf",
        "schrodinger_residual", "continuity_residual",
        "SeededStream", "InitialCondition", "make_initial_conditions",
        "IntegrationSchedule", "EnsembleConfig", "EnsembleResult", "default_config", "run_ensemble",
        "slice_values", "build_histogram", "ks_test", "band_metrics",
    }
    assert len(qtraj.__all__) == len(public) == 24
    assert set(qtraj.__all__) == public
    assert all(getattr(qtraj, name, None) is not None for name in public)
    modules = {
        qtraj.dynamics: ("Trajectory",),
        qtraj.ensemble: ("Histogram", "KSResult", "TimeSlice", "histogram_edges", "ks_critical"),
        qtraj.wavefield: (
            "continuity_truncation_bound", "envelope_density", "node_floor", "norm_constant",
            "packet_amplitude", "sigma_t", "spread",
        ),
    }
    assert all(hasattr(module, name) for module, names in modules.items() for name in names)
    deleted = {"HistogramSpec", "SliceOutOfRange", "rho_peak_bound", "central_dip_metric", "side_band_peak"}
    assert not _defined(deleted), f"deleted names are back: {_defined(deleted)}"


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


def test_no_module_imports_scipy_at_module_level():
    """scipy costs a run's start-up more than its work at the benchmark
    sizes, so no module imports it when it is imported."""
    found = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in _module_level(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert not found, f"scipy imported at module level: {found}"


def test_no_module_imports_scipy():
    """No module imports scipy, at module level or inside a function: the
    package's one runtime dependency is numpy."""
    found = [
        f"{path.name}: {ast.unparse(node)}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for _, name, node in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if "scipy" in (name.split(".")[0], (getattr(node, "module", None) or "").split(".")[0])
    ]
    assert not found, f"scipy imported: {found}"


def test_declared_dependencies_are_the_imported_ones():
    """The third-party top-level modules the package imports, at any level,
    are exactly the runtime dependencies in pyproject.toml (each
    distribution is named as its module), so an undeclared import or a
    declared dependency that nothing uses fails."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((_PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower() for requirement in project["dependencies"]}
    imported = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        for _, name, node in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.add(name.split(".")[0])
            elif node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


def test_cli_import_leaves_heavy_scipy_unloaded():
    """A fresh interpreter that imports qtraj.cli and runs ``qtraj verify``
    has loaded no scipy module at all."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = (
        "import sys, qtraj.cli\n"
        "rc = qtraj.cli.main(['verify'])\n"
        "sys.stderr.write(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "raise SystemExit(rc)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.count("PASS ") == 5
    loaded = done.stderr.split()
    assert not loaded, f"import qtraj.cli and qtraj verify load {loaded}"


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
    """In wavefield.py only ``_cumulative`` calls ``_faddeeva``, only
    ``_faddeeva`` reads the coefficients of Weideman's series, and only
    ``_density_terms`` calls ``np.cos``, so both laws' densities and CDFs
    share one real kernel and one Faddeeva kernel, and the series lives in
    one function."""
    owners = {"_faddeeva": "_cumulative", "cos": "_density_terms"}
    offenders = [
        f"{where}:{line} calls {name}"
        for where, name, line in _calls(_PACKAGE / "wavefield.py")
        if name in owners and where != owners[name]
    ]
    assert not offenders, f"wavefield.py evaluates a law outside its kernels: {offenders}"
    tree = ast.parse((_PACKAGE / "wavefield.py").read_text(encoding="utf-8"))
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id.startswith("_WEIDEMAN")
    }
    assert readers == {"_faddeeva"}, f"Weideman's series is read by {sorted(readers)}"


def test_law_cdfs_go_through_the_law_object():
    """In wavefield.py only ``ClosedFormCDF.__call__`` calls ``_cumulative``,
    and no module defines the deleted function forms of the laws, a second
    maker of position laws or a stack of laws, or mentions ``cached_property``,
    so every CDF of a law is evaluated through ``position_cdf`` /
    ``momentum_cdf`` and every seed table comes from one cached function."""
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
    deleted |= {"stack", "_position_law", "_shared_position_cdf"}
    defined = _defined(deleted)
    assert not defined, f"law functions outside the law object: {defined}"
    mentions = [path.name for path in _PACKAGE.glob("*.py") if "cached_property" in path.read_text(encoding="utf-8")]
    assert not mentions, f"cached_property in {mentions}"


def test_every_stream_comes_from_one_philox_call(params, monkeypatch):
    """A batch of 5000 streams builds exactly one ``np.random.Philox``; no
    module mentions PCG64 or spawn_key, and none defines a single-stream
    sampler or a per-stream generator."""
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    make_initial_conditions(5000, SeededStream(1, 0), params, 0.0, "revised")
    assert len(built) == 1
    mentions = [
        f"{path.name}: {word}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for word in ("PCG64", "spawn_key")
        if word in path.read_text(encoding="utf-8")
    ]
    assert not mentions, f"per-stream seeding is back: {mentions}"
    defined = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in ("sample_positions", "sample_momenta"):
                defined.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef) and node.name == "SeededStream":
                defined += [f"{path.name}:SeededStream.{f.name}" for f in node.body if getattr(f, "name", None) == "generator"]
    assert not defined, f"single-stream samplers are back: {defined}"
