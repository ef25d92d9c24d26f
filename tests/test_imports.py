"""Every module imports on its own, in a fresh interpreter, and reads
every name it imports.

A bare package object stands in for ``gaschuetz/__init__.py``, so the
module under test is loaded first and its own imports decide the load
order: an import cycle that the package's import order hides shows here.
"""

import ast
import os
import subprocess
import sys

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gaschuetz"
)
MODULES = sorted(
    name[:-3] for name in os.listdir(PACKAGE)
    if name.endswith(".py") and not name.startswith("__")
)

SCRIPT = """
import importlib, sys, types
package = types.ModuleType("gaschuetz")
package.__path__ = [sys.argv[1]]
sys.modules["gaschuetz"] = package
importlib.import_module("gaschuetz." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, PACKAGE, module],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _unread_imports(source):
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unread_import_is_caught():
    assert _unread_imports("from .perm import mult, inverse\ninverse(x)\n") == [(1, "mult")]


@pytest.mark.parametrize("module", MODULES + ["__main__"])
def test_every_import_is_read(module):
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        assert _unread_imports(fh.read()) == []
