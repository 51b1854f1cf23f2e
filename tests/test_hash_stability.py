"""Content hashes pinned to the values of the commit before PR 15.

On-disk result caches and the service's single-flight dedupe key on
these hashes; a storage or import-path refactor that moves any of them
silently turns every cached result into a miss (or worse, lets a stale
entry answer a different question).  A deliberate change bumps
``CACHE_VERSION`` and re-pins.
"""

import pytest

from repro.core.xfer_table import XferTable
from repro.experiments.runner import Task, _sweep_point
from repro.mpisim.config import mvapich2_like
from repro.service.jobs import job_content_key, parse_submission


def test_task_carrying_an_xfer_table_keeps_its_key():
    table = XferTable([1024.0, 65536.0, 1048576.0], [10e-6, 80e-6, 1.1e-3])
    task = Task(_sweep_point, ("isend_irecv", 4096.0, 2e-5, mvapich2_like(),
                               None, table, 10, 3))
    pinned = "96104fe9af0b622708e8a762d80db7978fa63f071065e7d226f3afacb4d09670"
    assert task.key == pinned
    # Lookups and a pickle round trip are not content.
    import pickle

    table.time_for(2048.0)
    assert task.key == pinned
    assert pickle.loads(pickle.dumps(task)).key == pinned


@pytest.mark.parametrize("spec,pinned", [
    ({"kind": "micro", "pattern": "isend_irecv", "nbytes": 2048,
      "computes": [0.0, 2e-5], "iters": 10},
     "2bca96d9fd1cfc69c93191c90aa01157079443836545c3e5e2ef61ce8adb9c3f"),
    ({"kind": "nas", "benchmark": "lu", "klass": "S", "np": [2, 4],
      "niter": 2},
     # Re-pinned in PR 22: the cell's argument tuple lost ``shard_sync``.
     "9069708195716fff8b63ec5d87fbabe5bf278b6421d1edf0727aaddc68e6a90a"),
    ({"kind": "paper", "section": "fig04", "quick": True},
     "a256be9f27c1802baecbff3f15f5f8783a06b746695b1a71ee499e0e8f1bb459"),
], ids=["micro", "nas", "paper"])
def test_job_content_keys_are_unchanged(spec, pinned):
    sub, tasks = parse_submission(spec)
    assert job_content_key(sub.kind, tasks) == pinned


def test_a_leftover_shard_sync_field_is_ignored_like_any_unknown_field():
    spec = {"kind": "nas", "benchmark": "lu", "klass": "S", "np": 2,
            "shards": 2}
    plain, tasks = parse_submission(spec)
    old, old_tasks = parse_submission({**spec, "shard_sync": "null"})
    assert old.spec == plain.spec and "shard_sync" not in plain.spec
    assert job_content_key(old.kind, old_tasks) == job_content_key(
        plain.kind, tasks)
