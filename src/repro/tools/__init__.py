"""Command-line tools.

* ``python -m repro.tools.perfmain`` -- measure and write the a-priori
  transfer-time table (the paper's ``perf_main`` step);
* ``python -m repro.tools.micro`` -- the Sec.-3 overlap microbenchmark
  sweep, with optional ASCII plots;
* ``python -m repro.tools.nas`` -- run one NAS benchmark cell and write
  per-process overlap reports;
* ``python -m repro.tools.report`` -- render saved overlap reports
  (summary, size breakdown, sections, before/after diff);
* ``python -m repro.tools.validate`` -- check derived bounds against the
  simulator's ground-truth overlap;
* ``python -m repro.tools.paper`` -- regenerate the paper's whole
  evaluation into one consolidated document.
"""


def finite_non_negative(text: str) -> float:
    """``argparse`` type for a size or a time: a number in ``[0, inf)``.

    ``nan``, ``inf``, a negative number and anything unparsable are usage
    errors (exit 2) naming the value, before anything is simulated.
    """
    import argparse

    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"want a finite number >= 0, got {text!r}")
    return value
