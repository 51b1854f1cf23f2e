"""A job spec becomes a run in one place.

The recipes -- ``nas_cell`` (spec -> app, config, arguments) and
``arm_faults`` (fault spec -> params, resilient config, watchdog) -- are
the only copies: every front end that launches the same cell must launch
the same job.  Before they existed only the report pins tied the front
ends together, one front end at a time.
"""

import hashlib
import json

import pytest

from repro.experiments import faultmatrix, micro, nas_char, overhead
from repro.experiments.nas_char import MPI_BENCHMARKS
from repro.runtime import launcher
from repro.tools import micro as micro_cli
from repro.tools import nas as nas_cli
from repro.tools import paper as paper_cli
from repro.tools import perfmain as perfmain_cli
from repro.tools import timeline as timeline_cli
from repro.tools import validate as validate_cli


@pytest.fixture()
def launches(monkeypatch):
    """Every ``run_app`` call made while the test runs: ``(kwargs, result)``."""
    seen = []

    def recording(app, nprocs, config=None, **kwargs):
        result = launcher.run_app.__wrapped__(app, nprocs, config, **kwargs)
        seen.append(({"config": config, **kwargs}, result))
        return result

    recording.__wrapped__ = launcher.run_app
    # Function-level importers read the launcher's attribute; the rest
    # bound the name at import.
    for module in (launcher, nas_char, overhead, faultmatrix, micro,
                   validate_cli):
        monkeypatch.setattr(module, "run_app", recording)
    return seen


def _digest(report) -> str:
    """Everything rank 0 reports except the label front ends choose."""
    payload = report.to_dict()
    del payload["label"]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kernel", sorted(MPI_BENCHMARKS) + ["mg"])
def test_every_front_end_launches_the_same_cell(kernel, launches, tmp_path):
    if kernel == "mg":
        point = nas_char.characterize_mg("S", 4, blocking=False, niter=1)
    else:
        point = nas_char.characterize(kernel, "S", 4, niter=1)
    payload = nas_cli._run_cell(kernel, "S", 4, 1, "paper", False,
                                kernel == "mg")
    measured = overhead.measure_overhead(kernel, "S", 4, niter=1)
    if kernel != "mg":  # the timeline CLI is MPI-only
        assert timeline_cli.main([
            "--benchmark", kernel, "--klass", "S", "--np", "4",
            "--niter", "1", "--no-plot", "--out", str(tmp_path)]) == 0

    instrumented = [result.reports[0] for _kwargs, result in launches
                    if result.reports[0] is not None]
    assert len(instrumented) == (3 if kernel == "mg" else 4)
    assert {_digest(report) for report in instrumented} == {
        _digest(point.report)}
    assert payload["reports"][0] == {**point.report.to_dict(),
                                     "label": payload["label"]}
    assert measured.events == point.report.event_count
    assert measured.time_instrumented == point.elapsed == payload["elapsed"]


@pytest.mark.parametrize("cli,argv", [
    (nas_cli, ["--benchmark", "lu", "--klass", "S", "--np", "2"]),
    (validate_cli, []),
])
def test_a_negative_fault_seed_is_a_usage_error(cli, argv, launches, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--faults", "drop=0.1", "--fault-seed", "-1"])
    assert exit_info.value.code == 2
    assert "seed must be a non-negative int" in capsys.readouterr().err
    assert launches == []


@pytest.mark.parametrize("cli,argv", [
    (validate_cli, ["--compute", "nan"]),
    (validate_cli, ["--compute=-1e-3"]),
    (validate_cli, ["--size", "nan"]),
    (validate_cli, ["--size", "-5"]),
    (micro_cli, ["--computes", "nan,1e-3"]),
    (micro_cli, ["--computes", "x"]),
    (micro_cli, ["--size", "inf"]),
    (validate_cli, ["--compute", "inf"]),
    (validate_cli, ["--compute", "x"]),
    (validate_cli, ["--size", "x"]),
    (micro_cli, ["--computes=1e-3,-1e-3"]),
    (micro_cli, ["--computes", "1e-3,inf"]),
    (micro_cli, ["--size", "-5"]),
    (perfmain_cli, ["--out", "t.tsv", "--min-size", "inf", "--max-size", "inf"]),
    (perfmain_cli, ["--out", "t.tsv", "--min-size", "nan"]),
    (perfmain_cli, ["--out", "t.tsv", "--max-size", "nan"]),
    (perfmain_cli, ["--out", "t.tsv", "--latency-us", "nan"]),
    (perfmain_cli, ["--out", "t.tsv", "--latency-us=-1"]),
    (perfmain_cli, ["--out", "t.tsv", "--bandwidth-mbs=-5"]),
])
def test_a_bad_size_or_compute_time_is_a_usage_error(cli, argv, launches,
                                                     capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "want a finite number >= 0" in capsys.readouterr().err
    assert launches == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cli,argv,message", [
    (perfmain_cli, ["--out", "t.tsv", "--reps", "0"], "--reps must be >= 1"),
    (micro_cli, ["--iters", "0"], "--iters must be >= 1"),
    (perfmain_cli, ["--out", "t.tsv", "--bandwidth-mbs", "0"],
     "bandwidths must be positive"),
    (paper_cli, ["--quick", "--jobs", "0"], "--jobs must be >= 1"),
    (paper_cli, ["--quick", "--jobs", "-1"], "--jobs must be >= 1"),
    (nas_cli, ["--benchmark", "lu", "--klass", "S", "--jobs", "0"],
     "--jobs must be >= 1"),
    (nas_cli, ["--benchmark", "lu", "--klass", "S", "--jobs", "-1"],
     "--jobs must be >= 1"),
    (nas_cli, ["--benchmark", "lu", "--klass", "S", "--np", "2", "--niter",
               "1", "--no-cache", "--rank", "5"], "--rank must be in [0, 2)"),
    (nas_cli, ["--benchmark", "lu", "--klass", "S", "--np", "2", "--rank",
               "-1"], "--rank must be in [0, 2), got -1"),
    (nas_cli, ["--benchmark", "lu", "--klass", "S", "--np", "4,2", "--rank",
               "3"], "--rank must be in [0, 2), got 3"),
    (paper_cli, ["--quick", "--only", "fig05,fig99"],
     "unknown figure keys: ['fig99']"),
])
def test_a_zero_count_or_bandwidth_is_a_usage_error(cli, argv, message,
                                                    launches, capsys,
                                                    tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert launches == [] and list(tmp_path.iterdir()) == []


def test_every_front_end_arms_faults_the_same_way(launches, capsys):
    spec, seed = faultmatrix.FAULT_SPECS["drop"], 3
    assert validate_cli.main(["--workload", "sp", "--klass", "S", "--np", "4",
                              "--faults", spec, "--fault-seed", str(seed)]) == 0
    capsys.readouterr()
    faultmatrix.run_cell("drop", "eager", seed=seed)
    nas_cli._run_cell("lu", "S", 2, 1, "paper", False, False,
                      faults=spec, fault_seed=seed)
    nas_cli._run_cell("mg", "S", 4, 1, "paper", False, False,
                      faults=spec, fault_seed=seed)

    armed = [(kwargs["params"].faults,
              getattr(kwargs["config"], "resilience", None),
              kwargs["watchdog"]) for kwargs, _result in launches]
    assert len(armed) == 4 and all(entry == armed[0] for entry in armed[:3])
    plan, resilience, watchdog = armed[0]
    assert plan.seed == seed and plan.drop_prob == 0.1
    assert resilience is not None and watchdog.max_sim_time == 60.0
    # ARMCI has no reliable transport to arm; the rest is the same recipe.
    assert armed[3] == (plan, None, watchdog)
