"""Every module imports on its own, in a fresh interpreter, and reads
every name it imports.

A bare package object stands in for ``gaschuetz/__init__.py``, so the
module under test is loaded first and its own imports decide the load
order: an import cycle that the package's import order hides shows here.
"""

import ast
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gaschuetz")
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


def _layout_reads(source):
    """Lines that read a base table's layout: an attribute ``at`` or
    ``points``, a private member of ``ProductTable`` (``_key``, or ``_times``
    for the index product, which is read as ``times``), or a call of
    ``group.base``, imported or qualified."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("at", "points", "_key", "_times"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "base"
                    or isinstance(f, ast.Attribute) and f.attr == "base"
                    and isinstance(f.value, ast.Name) and f.value.id == "group"):
                found.append((node.lineno, "base"))
    return sorted(found)


def test_layout_read_is_caught():
    source = ("points, at = table.points, table.at\nbase(G)\ngroup.base(G)\nN.base\n"
              "key, times = table._key, table._times\ntable.times(0, 1)\n")
    assert _layout_reads(source) == [(1, "at"), (1, "points"), (2, "base"), (3, "base"),
                                     (5, "_key"), (5, "_times")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "group"] + ["__main__"])
def test_only_group_reads_the_base_layout(module):
    """How base images key element indices is decided in ``group`` alone:
    other modules gather through ``group.products``, a table's columns or
    its public methods."""
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        assert _layout_reads(fh.read()) == []


def _bench_module(name):
    """A benchmark script, loaded by file path without running it."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(ROOT, "bench", name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve():
    """Every function the traced benchmark wraps or counts still exists
    where the benchmark looks for it, and every module it loads imports."""
    spans = _bench_module("spans")
    worker = _bench_module("worker")
    for name in worker.MODULES:
        importlib.import_module("gaschuetz." + name)
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module("gaschuetz." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    perm = importlib.import_module("gaschuetz.perm")
    for name in ("mult", "perm_order"):
        assert callable(getattr(perm, name, None)), f"perm.{name}"
    # the cProfile count of validate matches functions by defining file
    autgroups = importlib.import_module("gaschuetz.autgroups")
    defined_in = os.path.abspath(autgroups.validate.__code__.co_filename)
    assert defined_in == os.path.abspath(autgroups.__file__)
    # worker reports len(engine._verdict_cache) as engine.verdict.computed,
    # and the aut_group wrapper in spans reads the "aut" entry of G._cache
    engine = importlib.import_module("gaschuetz.engine")
    constructors = importlib.import_module("gaschuetz.constructors")
    G = constructors.symmetric(3)
    engine.verdict(G)
    assert isinstance(engine._verdict_cache, dict)
    assert G.element_set in engine._verdict_cache
    assert isinstance(G._cache, dict)
    assert G._cache.get("aut") is None
    aut = autgroups.aut_group(G)
    assert G._cache.get("aut") is aut


# Public definitions that no library module reads, kept on purpose.
KEEP = {
    "normal_subgroups": "criterion 8 oracle: the lattice-filter normal subgroups",
    "subgroups_of_order": "criterion 7 and 8 oracle: subgroups of one order",
    "minimal_supplement": "criterion 7: the paper's minimal-supplement lemma",
    "complements_conjugate": "criterion 7: complements are conjugate",
    "fired_statuses": "criterion 7: no group fires both a HOLDS and a FAILS rule",
    "blow_up": "paper construction: extend a counterexample by a coprime layer",
    "build_perfect": "paper construction: the perfect-centerless counterexample",
}


def _public_definitions(tree):
    """Names of the public module-level functions and classes."""
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _reads(tree):
    """Every name a module reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _caller_less(sources):
    """Public definitions and package exports that no module but
    ``__init__`` reads, as sorted (module, name) pairs."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    wanted = {}
    for module, tree in trees.items():
        for name in _public_definitions(tree):
            wanted[name] = module
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                wanted.setdefault(alias.asname or alias.name, "__init__")
    read = set()
    for module, tree in trees.items():
        if module != "__init__":
            read |= _reads(tree)
    return sorted((module, name) for name, module in wanted.items() if name not in read)


def test_caller_less_definition_is_caught():
    sources = {
        "__init__": "from .a import used, unused, exported\n",
        "a": "def used(): pass\ndef unused(): pass\ndef exported(): pass\n"
             "def _private(): pass\nclass Thing: pass\n",
        "b": "from .a import used\nimport a\nused()\na.Thing()\n",
    }
    assert _caller_less(sources) == [("a", "exported"), ("a", "unused")]


def test_every_public_definition_is_read():
    sources = {}
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    found = _caller_less(sources)
    names = {name for _, name in found}
    assert names >= set(KEEP), f"KEEP names a definition that is read: {set(KEEP) - names}"
    stray = [f"{m}.{n}" for m, n in found if n not in KEEP]
    assert not stray, f"no library module reads: {', '.join(stray)}"
