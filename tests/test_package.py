"""Static checks over the package source.

The benchmark's tracer resolves every name in each module's `__all__` with
getattr, so a stale entry breaks every traced run; an import left behind
by a deletion is dead code, and so is a public name that nothing uses.
The package root carries only `__version__` and no two modules list the
same public name, so each public name has one home.  The README quick
start runs as written.  The runtime depends on numpy only: importing
the CLI must not load scipy, which tests keep as a reference, and a serial
run must not load the process pool.
"""
import ast
import importlib
import os
import pkgutil
import re
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


# Public names that nothing in `src` reads and README.md does not name, each
# with the reason it is API.
UNREFERENCED_API = {
    "cloud_to_json": "writes the `approximate --clouds` file format",
}


def _reads_by_owner(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(top-level def or class, name) for every name read in a module, as a
    bare name or an attribute; the owner is None outside any def."""
    reads = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((owner, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((owner, node.attr))
    return reads


def test_public_names_are_used():
    """Every name in a module's `__all__` is read somewhere in `src` outside
    its own definition, or named in README.md, or listed in
    UNREFERENCED_API with its reason."""
    reads = {
        name: _reads_by_owner(ast.parse((SRC / f"{name}.py").read_text()))
        for name in MODULES
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    unused = []
    for name in MODULES:
        for attr in getattr(importlib.import_module(f"acakit.{name}"), "__all__", ()):
            used = any(
                ident == attr and not (other == name and owner == attr)
                for other, module_reads in reads.items()
                for owner, ident in module_reads
            )
            if not (used or re.search(rf"\b{attr}\b", readme)
                    or attr in UNREFERENCED_API):
                unused.append(f"{name}.{attr}")
    assert not unused, f"public names that nothing uses: {unused}"


def test_public_names_have_one_home():
    """No name appears in two modules' `__all__`: a re-export is a second
    home for a public name."""
    homes: dict[str, list[str]] = {}
    for name in MODULES:
        for attr in getattr(importlib.import_module(f"acakit.{name}"), "__all__", ()):
            homes.setdefault(attr, []).append(name)
    shared = {attr: mods for attr, mods in homes.items() if len(mods) > 1}
    assert not shared, f"public names listed by more than one module: {shared}"


def test_readme_quick_start(capsys):
    """The first Python block of README.md runs and prints the rank, the
    kernel evaluations and the relative error of a skeleton that beats
    the dense matrix's 400 x 400 evaluations."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    rank, evals, error = capsys.readouterr().out.split()
    assert int(rank) >= 1
    assert int(evals) < 400 * 400
    assert float(error) < 1e-6


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


def test_serial_runs_load_no_process_machinery(tmp_path):
    """A serial `benchmark`, an `approximate`, a `genetic` run and the JSON
    of a 600 000-float skeleton never import `multiprocessing` or
    `concurrent.futures`: `_pool` loads them only to start workers, and
    only pooled benchmarks and sweeps start any."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = f"""
import io
import sys
import numpy as np
from acakit.cli import main
from acakit.lowrank import Skeleton, write_skeleton_json
out = {str(tmp_path)!r}
runs = [
    ["benchmark", "--n", "30", "--m", "30", "--realizations", "4",
     "--out", out + "/bench.csv"],
    ["approximate", "--gen", "xi=1,n=100,m=100,dist=2.5", "--force",
     "--out", out + "/skel.json"],
    ["genetic", "--n", "8", "--m", "8", "--max-rank", "2",
     "--out", out + "/genetic.csv"],
]
codes = [main(argv) for argv in runs]
factors = np.random.default_rng(0).standard_normal((2, 10_000, 30))
write_skeleton_json(Skeleton(factors[0], factors[1], 1.0, 0.0), io.StringIO())
roots = ("multiprocessing", "concurrent")
print(codes, sorted(m for m in sys.modules if m.split(".")[0] in roots))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_benchmark_loads_no_skeleton_encoder(tmp_path):
    """The skeleton encoder is imported by the first skeleton it writes, so
    `import acakit.cli` and a `benchmark` run never load it."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = f"""
import sys
from acakit.cli import main
argv = ["benchmark", "--n", "20", "--m", "20", "--realizations", "2",
        "--out", {str(tmp_path / "bench.csv")!r}]
print(main(argv), "acakit._floatjson" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_lowrank_import_loads_no_experiments():
    """Skeletons and their JSON need neither the benchmark harness nor
    the worker pool."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import sys, acakit.lowrank; "
        "print({'acakit.experiments', 'acakit._pool'} & set(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "set()"
