"""Every ``__all__`` in the package resolves, modules share only public names,
and importing the package stays light."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bulkq
from bulkq.algebraic import AlgebraicConfig

MODULES = ["bulkq"] + [f"bulkq.{info.name}" for info in pkgutil.iter_modules(bulkq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_no_module_imports_a_private_name_of_another():
    # a private name is free to change inside its module; a sibling that
    # needs it should get a public one instead
    found = []
    for path in sorted(Path(bulkq.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "bulkq":
                continue
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    assert found == []


def test_only_picard_solve_takes_a_tolerance():
    # every other tolerance is a module constant read at call time; the
    # Picard one switches on the tail certificate, a check of its own.
    # No command of the CLI takes one either.
    from bulkq.cli import main

    takers = {
        f"bulkq {name}" for name, cmd in main.commands.items()
        if any(param.name == "tol" for param in cmd.params)
    }
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", []):
            obj = getattr(module, attr)
            if isinstance(obj, type) and issubclass(obj, Exception):
                continue  # the error types take a message only
            if callable(obj) and "tol" in inspect.signature(obj).parameters:
                takers.add(attr)
    assert takers == {"picard_solve"}


def test_algebraic_config_is_c_and_m():
    assert tuple(f.name for f in dataclasses.fields(AlgebraicConfig)) == ("c", "m")


def test_import_leaves_scipy_unloaded():
    # scipy costs about 25 MB of resident memory and is a test dependency
    # only: no module of the package imports it, so neither the import nor
    # a run of the oracles and checks loads it
    found = []
    for path in sorted(Path(bulkq.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []
    paths = [str(Path(bulkq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, bulkq; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    code = (
        "import sys\n"
        "from bulkq import *\n"
        "p = QueueParams(lam=1.0, mu=1.0, m=2)\n"
        "assert cross_validate(p, [(0, 1, 0.5), (2, 0, 1.0)], mc_reps=500, seed=1).passed\n"
        "picard_solve(p, 0, 64, 1.0, 60, tol=1e-8)\n"
        "simulate_mc(p, McConfig(replications=100, seed=1, start=3, horizon=1.0))\n"
        "honesty_check(p, 2, 1.5, 42)\n"
        "expm_uniformization(p, 64, 2.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_leaves_fractions_and_numpy_polynomial_unloaded():
    # together about 1.2 MB of resident memory that the transition engine
    # never needs: no module of the package imports either, and the package
    # import loads neither
    found = []
    for path in sorted(Path(bulkq.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} imports {n}" for n in names
                if n == "fractions" or n.startswith("numpy.polynomial")
            ]
    assert found == []
    paths = [str(Path(bulkq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys, bulkq, bulkq.cli; "
        "print(sorted(m for m in ('fractions', 'numpy.polynomial') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_every_error_type_has_a_raiser():
    # an error type that no library path raises documents a failure that
    # cannot happen
    from bulkq import errors

    kinds = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.BulkqError) and obj is not errors.BulkqError
    }
    raised = set()
    for path in sorted(Path(bulkq.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(kinds - raised) == []
