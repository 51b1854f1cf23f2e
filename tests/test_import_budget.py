"""Start-up budget: a process imports only what it runs.

Counts, not seconds: each check starts a fresh interpreter, imports one
entry point (or runs one simulation) and reads ``sys.modules``; one
blocks numpy in-process to see what the array features say without
it.  The rule being held (docs/performance.md, "Cold start"): a package
``__init__`` imports nothing, and a third-party import sits at the first
use of data that needs it.

Run alone with ``python -m pytest tests/test_import_budget.py -q``.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.analysis.traffic import traffic_matrix
from repro.armci import StridedSpec, run_armci_app
from repro.armci.api import Region
from repro.runtime import run_app

SRC = pathlib.Path(repro.__file__).parent.parent

_REPORT = """
import json, sys
print(json.dumps({
    "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    "heavy": sorted({"numpy", "asyncio", "multiprocessing"} & set(sys.modules)),
    "out": OUT,
}))
"""


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter (warnings are errors); report the
    modules it ended up with and whatever it left in ``OUT``."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "OUT = None\n" + code + _REPORT],
        text=True, capture_output=True, timeout=300.0,
        env={"PYTHONPATH": str(SRC), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_http_client_loads_itself_and_its_packages_only():
    """Parent commit: 94 ``repro.*`` modules, numpy, asyncio and
    multiprocessing, for a stdlib-only HTTP client."""
    seen = _fresh("import repro.service.client")
    assert seen["repro"] == ["repro", "repro.service", "repro.service.client"]
    assert seen["heavy"] == []


def test_the_sweep_dashboard_loads_the_metrics_package_and_itself_only():
    """Parent commit: 16 ``repro.*`` modules, the telemetry rollup among
    them, through the per-rank metrics aggregator."""
    seen = _fresh("import repro.tools.watch")
    assert seen["repro"] == [
        "repro", "repro.metrics", "repro.metrics.openmetrics",
        "repro.metrics.progress", "repro.metrics.registry", "repro.tools",
        "repro.tools.watch"]


@pytest.mark.parametrize("module", [
    "repro", "repro.tools.watch", "repro.tools.explain", "repro.sim.remote",
    "repro.tools.serve", "repro.tools.paper",
])
def test_entry_point_imports_without_numpy(module):
    assert "numpy" not in _fresh(f"import {module}")["heavy"]


def test_bare_package_is_one_module():
    assert _fresh("import repro")["repro"] == ["repro"]
    everything = _fresh("import repro\nfrom repro import *")
    assert "repro.runtime.launcher" in everything["repro"]


#: What a forked simulation worker needs.  ``tools.serve`` and
#: ``sim.remote`` must have it loaded before they announce themselves --
#: through their own imports, now that no package ``__init__`` does it.
SIMULATOR = {
    "repro.sim.engine", "repro.sim.process", "repro.netsim.fabric",
    "repro.netsim.nic", "repro.mpisim.endpoint", "repro.mpisim.communicator",
    "repro.mpisim.collectives.allreduce", "repro.core.monitor",
    "repro.core.processor", "repro.core.xfer_table", "repro.runtime.launcher",
}


@pytest.mark.parametrize("module", ["repro.tools.serve", "repro.sim.remote"])
def test_processes_that_fork_simulations_start_warm(module):
    assert SIMULATOR <= set(_fresh(f"import {module}")["repro"])


_RUN = """
import dataclasses, hashlib, json, sys
import repro.runtime.launcher, repro.experiments.halo
import repro.mpisim.config, repro.faults
from repro.experiments.halo import halo_app
from repro.faults import ResilienceParams, check_run_invariants, parse_fault_spec
from repro.mpisim.config import mvapich2_like
from repro.netsim.params import NetworkParams
from repro.runtime.launcher import run_app

config, params = mvapich2_like(), PARAMS
if params is not None and params.faults is not None:
    config = dataclasses.replace(config, resilience=ResilienceParams())
result = run_app(halo_app, 8, config, params=params,
                 app_args=(10, 4096.0, 0.0), seed=3)
check_run_invariants(result)
blob = json.dumps([[r.to_dict() for r in result.reports], repr(result.elapsed),
                   [repr(t) for t in result.rank_finish_times]], sort_keys=True)
OUT = hashlib.sha256(blob.encode()).hexdigest()
"""

#: Digests of the three runs below, computed at the parent commit.
_PLAIN = "b4eac0e8b18898edf5859732351a425938bceacd70e354dd57b3fc3bf4c2cb4e"
_JITTER = "04746896d0e5f33a47ea89d0d738b96bb84829af9525802a9784df334a7d2423"
_FAULTS = "c3c940f72310c01245dda713b43658e4b6b99254e7f1ea2963f027e88f23be17"


def _run(params: str) -> dict:
    return _fresh(_RUN.replace("PARAMS", params))


def test_a_default_simulation_never_imports_numpy():
    seen = _run("None")
    assert seen["out"] == _PLAIN
    assert "numpy" not in seen["heavy"]


def test_a_jittered_run_draws_the_same_stream_without_numpy():
    """The digest is the one numpy's ``default_rng`` streams gave."""
    seen = _run("NetworkParams(latency_jitter_frac=0.2)")
    assert seen["out"] == _JITTER
    assert "numpy" not in seen["heavy"]


def test_a_fault_injected_run_draws_the_same_streams_without_numpy():
    seen = _run("NetworkParams(faults=parse_fault_spec("
                "'drop=0.05,dup=0.02,reorder=0.05,events=0.1', seed=7))")
    assert seen["out"] == _FAULTS
    assert "numpy" not in seen["heavy"]


def _paper_quick(out: pathlib.Path) -> str:
    return ("import contextlib, io\n"
            "from repro.tools import paper\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    OUT = paper.main(['--quick', '--no-cache', '--jobs', '1', "
            f"'--out', {str(out)!r}])\n")


def _simulated(document: pathlib.Path) -> bytes:
    """The document without its trailer, which states host time."""
    body, trailer = document.read_bytes().rsplit(b"\n_(regenerated in ", 1)
    assert trailer.endswith(b" s of host time)_\n")
    return body


def test_the_quick_paper_reproduction_never_imports_numpy(tmp_path):
    """All 15 sections, MG on ARMCI and the fault matrix included; with
    numpy unimportable the document is the same byte for byte, up to the
    host time its trailer states."""
    plain, blocked = tmp_path / "plain.md", tmp_path / "blocked.md"
    seen = _fresh(_paper_quick(plain))
    assert seen["out"] == 0
    assert plain.read_text().count("\n## ") == 15
    assert "numpy" not in seen["heavy"]
    seen = _fresh("import sys\nsys.modules['numpy'] = None\n"
                  + _paper_quick(blocked))
    assert seen["out"] == 0
    assert _simulated(blocked) == _simulated(plain)


def _strided_get(ctx):
    ctx.malloc("win", 32)
    yield from ctx.armci.barrier()
    if ctx.rank == 0:
        yield from ctx.armci.get_strided(
            1, "win", StridedSpec(offset=0, seg_nbytes=16, stride=64, count=2),
            want_data=True)
    yield from ctx.armci.barrier()


def _one_message(ctx):
    if ctx.rank == 0:
        yield from ctx.comm.send(1, 1, 4096)
    else:
        yield from ctx.comm.recv(0, 1)


@pytest.mark.parametrize("feature", [
    lambda: Region.zeros(0, "win", 4, "float64").array,
    lambda: run_armci_app(_strided_get, 2),
    lambda: traffic_matrix(
        run_app(_one_message, 2, record_transfers=True).fabric),
], ids=["region-array", "strided-get-with-data", "traffic-matrix"])
def test_without_numpy_each_array_feature_names_the_extra(feature,
                                                          monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError, match=re.escape("repro[numpy]")):
        feature()


def test_the_base_install_depends_on_nothing():
    """numpy is the ``numpy`` extra; the ``test`` extra pulls it in
    because the tests hold the pure-Python streams to numpy's."""
    lines = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
    assert 'numpy = ["numpy>=1.24"]' in lines
    test_extra = next(line for line in lines if line.startswith("test = ["))
    assert '"numpy>=1.24"' in test_extra


def test_an_armci_mg_cell_never_imports_numpy():
    """MG's ``ghost`` window is only ever targeted by size-only puts."""
    seen = _fresh(
        "from repro.experiments.nas_char import characterize_mg\n"
        "OUT = characterize_mg('S', 4, blocking=False, niter=1).report.event_count\n")
    assert seen["out"] > 0
    assert "numpy" not in seen["heavy"]


def test_an_array_payload_is_still_snapshotted_at_send():
    """``_buffer_snapshot`` asks ``sys.modules`` for numpy: the sender may
    overwrite its buffer after the send returns."""
    import numpy as np

    from repro.mpisim.endpoint import _buffer_snapshot

    data = np.arange(4.0)
    snap = _buffer_snapshot(data)
    data[:] = -1.0
    assert snap.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert _buffer_snapshot(bytearray(b"ab")) == b"ab"
