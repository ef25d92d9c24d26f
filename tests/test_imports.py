"""Every module imports on its own, in a fresh interpreter.

A bare package object stands in for ``gaschuetz/__init__.py``, so the
module under test is loaded first and its own imports decide the load
order: an import cycle that the package's import order hides shows here.
"""

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
