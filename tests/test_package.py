"""Static checks over the package source.

The benchmark's tracer resolves every name in each module's `__all__` with
getattr, so a stale entry breaks every traced run; and an import left
behind by a deletion is dead code.  The package root carries only
`__version__`, so no second home for a public name can grow back.  The
runtime depends on numpy only: importing the CLI must not load scipy, which
tests keep as a reference.
"""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import acakit

SRC = Path(acakit.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(SRC)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"acakit.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"acakit.{name}.__all__ lists undefined names {missing}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level binding -> line for every import except __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    """Names re-exported through `__all__` count as used."""
    mod = importlib.import_module(f"acakit.{name}")
    tree = ast.parse(Path(mod.__file__).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(mod, "__all__", ()))
    unused = {
        imp: line for imp, line in _imported_names(tree).items() if imp not in used
    }
    assert not unused, f"acakit.{name}: unused imports {unused}"


def test_package_root_binds_only_version():
    """Public names live in their modules; the root re-exports nothing."""
    extra = {
        attr for attr in vars(acakit)
        if not attr.startswith("__") and attr not in MODULES
    }
    assert not extra, f"acakit binds {sorted(extra)} besides __version__"
    assert acakit.__version__


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only; scipy is a test-time reference."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import sys, acakit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lowrank_import_loads_no_experiments():
    """The skeleton encoder shares the worker pool through `_pool`, not
    through the benchmark harness."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, acakit.lowrank; print('acakit.experiments' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
