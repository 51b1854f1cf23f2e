"""Suite-wide fixtures."""

import pytest

from repro.experiments.runner import shutdown_shared_pool


@pytest.fixture(autouse=True)
def _no_leaked_runner_workers():
    """Every test starts and ends without runner worker processes.

    The worker set is process-wide and outlives ``run_tasks`` on purpose;
    left alive across tests it would make them order-dependent (a worker
    forked during an earlier test does not see a later monkeypatch, and
    ``multiprocessing.active_children()`` assertions would count it).
    """
    yield
    shutdown_shared_pool()
