"""The package's own surface: every name in a module's ``__all__`` resolves,
the runtime imports nothing outside the standard library, importing the
package does not load ``dataclasses`` or ``inspect``, and only ``linalg`` and
``hochschild`` feed a ``RowReducer`` by hand.

The package itself and ``cli`` have no ``__all__`` and pass trivially.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import algdeform

MODULES = ["algdeform"] + [f"algdeform.{m.name}" for m in pkgutil.iter_modules(algdeform.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name} exports a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


@pytest.mark.parametrize("path", sorted(Path(algdeform.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_runtime_imports_only_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports from outside the standard library: {outside}"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """``dataclasses`` and the ``inspect``, ``ast`` and ``dis`` it imports cost
    about half of a cached import of the package, and a CLI call is mostly
    start-up. Counted against the modules loaded before the import, so a site
    hook that preloads either one does not fail the test."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import algdeform, algdeform.cli, algdeform.documents\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    path = [str(Path(algdeform.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_linalg_and_hochschild_use_the_row_reducer():
    """Every other module states its linear systems as (row, rhs) pairs and
    solves them with ``linalg.solve_sparse_system``; the cochain complex
    streams integer rows, which only a reducer of its own takes."""
    users = set()
    for path in Path(algdeform.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
            if "RowReducer" in names:
                users.add(path.stem)
    assert users == {"linalg", "hochschild"}
