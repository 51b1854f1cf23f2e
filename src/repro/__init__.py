"""Reproduction of the CLUSTER 2006 overlap instrumentation framework.

Top-level convenience re-exports; see the subpackage docstrings for the
full map (``repro.core`` is the paper's contribution, everything else is
the evaluation substrate).

Importing a package under ``repro`` imports nothing else: every package
surface is a table of ``submodule -> names`` handed to
:func:`_lazy_surface`, and a name is imported from its defining module the
first time it is looked up (``docs/performance.md``, "Cold start").
"""

import importlib
import sys
import types
import typing

__version__ = "1.0.0"


class _ExportsOutrankSubmodules(types.ModuleType):
    """A package where an export named like a submodule keeps winning.

    The import system binds every loaded submodule on its parent, so
    whichever of ``from repro.mpisim.collectives.alltoall import ...`` and
    ``repro.mpisim.collectives.alltoall(...)`` ran first would otherwise
    decide whether the name is the module or the function.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) and name in self._exports:
            return
        super().__setattr__(name, value)


def _lazy_surface(
    package: str, exports: "dict[str, tuple[str, ...]]",
    own: "tuple[str, ...]" = (),
) -> "tuple[typing.Callable[[str], object], typing.Callable[[], list[str]]]":
    """Module ``__getattr__`` and ``__dir__`` (PEP 562) for ``package``.

    ``exports`` maps a submodule of ``package`` to the names the package
    re-exports from it -- the only place those names are written.  The
    first lookup of such a name imports that submodule and stores the
    object in the package's globals, so later lookups are plain attribute
    reads.  Also installs the package's ``__all__``: the table's names
    plus ``own`` (public names the ``__init__`` defines itself), sorted.
    """
    module = sys.modules[package]
    namespace = module.__dict__
    origin = namespace["_exports"] = {
        name: f"{package}.{sub}"
        for sub, names in exports.items() for name in names
    }
    namespace["__all__"] = sorted(origin.keys() | set(own))
    if origin.keys() & exports.keys():
        module.__class__ = _ExportsOutrankSubmodules

    def __getattr__(name: str) -> object:
        try:
            where = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(where), name)
        return value

    def __dir__() -> "list[str]":
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


def _numpy() -> types.ModuleType:
    """The numpy module, which only the array features need (ARMCI region
    data, strided gets with data, ``traffic_matrix``); the base install
    has none, so its absence is an ``ImportError`` naming the extra."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            "this feature needs numpy: pip install 'repro[numpy]'",
            name="numpy") from exc
    return numpy


__getattr__, __dir__ = _lazy_surface(__name__, {
    "core": ("Monitor", "OverlapMeasures", "OverlapReport", "XferTable"),
    "mpisim": ("MpiConfig", "mvapich2_like", "openmpi_like"),
    "netsim": ("NetworkParams",),
    "runtime": ("RunResult", "run_app"),
}, own=("__version__",))
