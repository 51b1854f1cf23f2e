"""Start-up budget: a process imports only what it runs.

Counts, not seconds: each check starts a fresh interpreter, imports one
entry point (or runs one simulation) and reads ``sys.modules``.  The
rule being held (docs/performance.md, "Cold start"): a package
``__init__`` imports nothing, and a third-party import sits at the first
use of data that needs it.

Run alone with ``python -m pytest tests/test_import_budget.py -q``.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import repro

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


def test_the_quick_paper_reproduction_never_imports_numpy(tmp_path):
    """All 15 sections, MG on ARMCI and the fault matrix included."""
    out = tmp_path / "paper.md"
    seen = _fresh(
        "import contextlib, io\n"
        "from repro.tools import paper\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    OUT = paper.main(['--quick', '--no-cache', '--jobs', '1', "
        f"'--out', {str(out)!r}])\n")
    assert seen["out"] == 0
    assert out.read_text().count("\n## ") == 15
    assert "numpy" not in seen["heavy"]


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
