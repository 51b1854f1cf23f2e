"""Experiment drivers regenerating every figure of the paper's evaluation.

* :mod:`repro.experiments.micro` -- Sec. 3 microbenchmarks (Figs. 3-9):
  two-rank overlap tests sweeping inserted computation, plus the
  ``perf_main``-style transfer-time table builder.
* :mod:`repro.experiments.nas_char` -- Sec. 4.1/4.2/4.4 NAS benchmark
  characterization (Figs. 10-13 and 19).
* :mod:`repro.experiments.sp_tuning` -- Sec. 4.3 NAS SP overlap
  improvement (Figs. 14-18).
* :mod:`repro.experiments.overhead` -- Sec. 4.5 instrumentation overhead
  (Fig. 20).
* :mod:`repro.experiments.runner` -- parallel, content-hash-cached
  execution of independent sweep points (shared by the CLIs).

Each driver returns plain data records; rendering (text tables/plots)
lives in :mod:`repro.analysis`.
"""

import repro

__getattr__, __dir__ = repro._lazy_surface(__name__, {
    "micro": (
        "MicroPoint",
        "build_xfer_table",
        "measure_one_way_time",
        "overlap_sweep",
    ),
    "runner": (
        "ResultCache",
        "Task",
        "content_key",
        "overlap_sweep_parallel",
        "run_tasks",
    ),
})
