"""The contract of the lazy package surfaces (``repro._lazy_surface``).

Every package ``__init__`` under ``repro`` imports nothing; the names in
its lazy table -- the one place they are written, ``__all__`` is
generated from it -- are imported from their defining submodule on first
lookup and cached in the package's globals.  These tests pin the
behaviour callers see.
"""

import ast
import importlib
import pathlib
import sys
import threading

import pytest

import repro
from tests.test_import_budget import _fresh

SRC = pathlib.Path(repro.__file__).parent
INITS = sorted(SRC.rglob("__init__.py"))
PACKAGES = [
    ".".join(("repro",) + path.parent.relative_to(SRC).parts) for path in INITS
]
#: Names a package defines in its own ``__init__`` rather than re-exports.
OWN_NAMES = {
    "repro": {"__version__"},
    "repro.mpisim.collectives": {"COLL_TAG_BASE"},
    "repro.mpisim.protocols": {"make_protocol"},
}
#: Packages with a docstring and nothing to export.
NO_SURFACE = {"repro.tools"}
SURFACES = [name for name in PACKAGES if name not in NO_SURFACE]


def test_every_package_is_covered():
    assert len(SURFACES) == 17
    for name in NO_SURFACE:
        assert not hasattr(importlib.import_module(name), "__all__")


@pytest.mark.parametrize("path", INITS, ids=PACKAGES)
def test_init_imports_nothing_from_repro_at_run_time(path):
    """No ``from repro...`` and no ``import repro.x`` anywhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for inner in ast.walk(tree):
        if isinstance(inner, ast.ImportFrom):
            assert not (inner.module or "").startswith("repro"), (
                f"{path}: run-time `{ast.unparse(inner)}`")
            assert inner.level == 0, f"{path}: relative import"
        elif isinstance(inner, ast.Import):
            for alias in inner.names:
                assert alias.name == "repro" or not alias.name.startswith(
                    "repro."), f"{path}: run-time `{ast.unparse(inner)}`"


@pytest.mark.parametrize("package", SURFACES)
def test_all_is_the_lazy_table(package):
    """``_lazy_surface`` installs ``__all__``: table + own names, sorted."""
    pkg = importlib.import_module(package)
    own = OWN_NAMES.get(package, set())
    assert pkg.__all__ == sorted(set(pkg._exports) | own)
    assert own <= set(vars(pkg))
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", SURFACES)
def test_names_are_the_objects_of_their_defining_modules(package):
    pkg = importlib.import_module(package)
    for name, where in pkg._exports.items():
        assert where.startswith(package + ".")
        defined = getattr(importlib.import_module(where), name)
        assert getattr(pkg, name) is defined
        assert vars(pkg)[name] is defined  # cached: the next read is plain
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    for name in pkg._exports:
        assert namespace[name] is getattr(pkg, name)


@pytest.mark.parametrize("package", SURFACES)
def test_unknown_name_is_an_attribute_error_naming_the_package(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


@pytest.mark.parametrize("package", SURFACES)
def test_second_access_does_not_reach_getattr(package, monkeypatch):
    pkg = importlib.import_module(package)
    name = next(iter(pkg._exports))
    calls = []
    resolve = pkg.__getattr__
    monkeypatch.setitem(
        vars(pkg), "__getattr__",
        lambda attr: calls.append(attr) or resolve(attr))
    vars(pkg).pop(name, None)  # as in a process that never asked for it
    first = getattr(pkg, name)
    assert calls == [name]
    assert all(getattr(pkg, name) is first for _ in range(3))
    assert calls == [name]


def test_threads_resolving_one_name_get_one_object():
    pkg = importlib.import_module("repro.core")
    results, start = [], threading.Barrier(8)

    def resolve():
        start.wait(timeout=10.0)
        results.append(pkg.Monitor)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(50):
            vars(pkg).pop("Monitor", None)
            threads = [threading.Thread(target=resolve) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    from repro.core.monitor import Monitor

    assert len(results) == 400 and all(r is Monitor for r in results)


def test_threads_importing_one_name_for_the_first_time():
    """Same, when the defining module itself is still being imported."""
    out = _fresh(
        "import sys, threading; sys.setswitchinterval(1e-6)\n"
        "import repro.core as pkg\n"
        "got, go = [], threading.Barrier(8)\n"
        "def f():\n"
        "    go.wait(10); got.append(pkg.Monitor)\n"
        "ts = [threading.Thread(target=f) for _ in range(8)]\n"
        "[t.start() for t in ts]; [t.join(30) for t in ts]\n"
        "from repro.core.monitor import Monitor\n"
        "OUT = [len(got), all(g is Monitor for g in got)]\n")
    assert out["out"] == [8, True]


@pytest.mark.parametrize("first", ["module", "export"])
def test_export_named_like_its_submodule_wins_in_either_order(first):
    """``repro.mpisim.collectives.alltoall`` is a module *and* an exported
    function; with eager imports the function always won."""
    touch = {"module": "import repro.mpisim.collectives.alltoall\n",
             "export": "from repro.mpisim.collectives import alltoall\n"}
    order = [touch[first]] + [v for k, v in touch.items() if k != first]
    out = _fresh(
        "".join(order) +
        "import sys\n"
        "from repro.mpisim import collectives\n"
        "OUT = [callable(collectives.alltoall),\n"
        "       collectives.alltoall.__module__,\n"
        "       sys.modules['repro.mpisim.collectives.alltoall'].alltoall\n"
        "       is collectives.alltoall]\n")
    assert out["out"] == [True, "repro.mpisim.collectives.alltoall", True]


def test_a_name_clash_cannot_go_unnoticed():
    """Any export that shares its name with a submodule of its package
    sits in a package that outranks submodule bindings."""
    for package in SURFACES:
        pkg = importlib.import_module(package)
        directory = pathlib.Path(pkg.__file__).parent
        clashes = {name for name in pkg._exports
                   if (directory / f"{name}.py").exists()
                   or (directory / name / "__init__.py").exists()}
        if clashes:
            assert type(pkg).__name__ == "_ExportsOutrankSubmodules", (
                package, clashes)


def test_star_import_of_the_root_is_warning_free():
    out = _fresh("import repro\nfrom repro import *\nOUT = run_app.__name__")
    assert out["out"] == "run_app"


@pytest.mark.parametrize("package", SURFACES)
def test_every_export_resolves_without_numpy(package):
    """What ``pip install .`` without extras gets: every public name
    imports with numpy unimportable."""
    out = _fresh("import sys\nsys.modules['numpy'] = None\n"
                 f"from {package} import *\n"
                 f"import {package} as pkg\n"
                 "OUT = sorted(n for n in pkg.__all__ if n not in vars(pkg))")
    assert out["out"] == []


def test_numpy_is_a_module_level_import_only_where_arrays_are_the_point():
    offenders = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:  # module level, outside TYPE_CHECKING
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "numpy" for a in node.names):
                offenders.append(str(path.relative_to(SRC)))
            elif isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[0] == "numpy":
                offenders.append(str(path.relative_to(SRC)))
    assert offenders == []
