"""A-priori transfer-time table (the paper's ``perf_main`` step).

The bound arithmetic of Sec. 2.2 consumes ``xfer_time`` -- "the time for the
data transfer operation on the network that is measured a priori by running
a standard microbenchmark test".  This module holds that table: it is built
by a ping-pong measurement (see :func:`repro.experiments.micro.build_xfer_table`
for the simulated ``perf_main``), written to a disk file, and read back into
memory during library initialization, exactly as the paper describes (the
one-time load cost is the Fig. 20 caveat).

Lookups interpolate linearly in message size between measured points and
extrapolate with the boundary bandwidth beyond the measured range.
"""

from __future__ import annotations

import bisect
import io
import math
import os
import typing

_HEADER = "# repro xfer-time table: bytes<TAB>seconds"

#: Memo-cache entry budget for :meth:`XferTable.time_for`.  NAS kernels
#: reuse a handful of message sizes millions of times, so nearly every
#: lookup is a dict hit; the bound keeps pathological size streams from
#: growing the cache without limit.
_MEMO_CAPACITY = 4096

_SHAPE_ERROR = "sizes and times must be 1-D arrays of equal length"


def _floats(values: typing.Iterable[float]) -> "list[float]":
    """``values`` as Python floats; a scalar or nested input is a shape error."""
    try:
        return [float(v) for v in values]
    except TypeError:
        raise ValueError(_SHAPE_ERROR) from None


class XferTable:
    """Message-size to network-transfer-time mapping.

    Parameters
    ----------
    sizes:
        Message sizes in bytes, strictly increasing, all positive.
    times:
        Transfer time in seconds for each size, positive and
        non-decreasing is expected but not enforced (real measurements
        can be noisy).

    The table is stored as Python floats -- what the per-``XFER_END``
    lookup reads -- so building and querying one does not import numpy.
    """

    def __init__(
        self,
        sizes: typing.Sequence[float],
        times: typing.Sequence[float],
    ) -> None:
        self._sizes_list = sizes_list = _floats(sizes)
        self._times_list = times_list = _floats(times)
        if len(sizes_list) != len(times_list):
            raise ValueError(_SHAPE_ERROR)
        if not sizes_list:
            raise ValueError("xfer table cannot be empty")
        if not all(map(math.isfinite, sizes_list + times_list)):
            # nan compares false with everything, so the checks below
            # would let it through and every bound would come out nan.
            raise ValueError("message sizes and transfer times must be finite")
        if min(sizes_list) <= 0:
            raise ValueError("message sizes must be positive")
        if any(s1 <= s0 for s0, s1 in zip(sizes_list, sizes_list[1:])):
            raise ValueError("message sizes must be strictly increasing")
        if min(times_list) <= 0:
            raise ValueError("transfer times must be positive")
        self._slopes: list[float] = [
            (t1 - t0) / (s1 - s0)
            for (s0, s1), (t0, t1) in zip(
                zip(self._sizes_list, self._sizes_list[1:]),
                zip(self._times_list, self._times_list[1:]),
            )
        ]
        self._tail_slope = max(self._slopes[-1], 0.0) if self._slopes else 0.0
        self._memo: dict[float, float] = {}

    def __reduce__(self) -> tuple:
        # Only the measured points travel; slopes and memo are rebuilt
        # on the other side.
        return type(self), (self._sizes_list, self._times_list)

    # -- lookup ----------------------------------------------------------
    def time_for(self, nbytes: float) -> float:
        """Transfer time in seconds for a message of ``nbytes`` bytes.

        Zero-byte operations take zero time; sizes inside the measured
        range interpolate linearly; sizes beyond either end extrapolate at
        the boundary point's marginal bandwidth.  Results are memoized
        (bounded) because applications reuse a handful of message sizes.
        """
        cached = self._memo.get(nbytes)
        if cached is not None:
            return cached
        sizes, times = self._sizes_list, self._times_list
        if nbytes <= 0:
            t = 0.0
        elif nbytes <= sizes[0]:
            # Scale below the smallest measurement by its effective rate,
            # but never below a proportional floor of the smallest time.
            t = times[0] * nbytes / sizes[0]
        elif nbytes >= sizes[-1]:
            if len(sizes) == 1:
                t = times[-1] * nbytes / sizes[-1]
            else:
                # Marginal bandwidth of the last segment.
                t = times[-1] + self._tail_slope * (nbytes - sizes[-1])
        else:
            # Same arithmetic as np.interp: slope * (x - x_lo) + y_lo.
            i = bisect.bisect_right(sizes, nbytes) - 1
            t = self._slopes[i] * (nbytes - sizes[i]) + times[i]
        if len(self._memo) >= _MEMO_CAPACITY:
            self._memo.clear()
        self._memo[float(nbytes)] = t
        return t

    def bandwidth_for(self, nbytes: float) -> float:
        """Effective bandwidth (bytes/s) for a message of ``nbytes``."""
        t = self.time_for(nbytes)
        return nbytes / t if t > 0 else float("inf")

    # -- persistence ------------------------------------------------------
    def dumps(self) -> str:
        """Serialize to the on-disk text format."""
        buf = io.StringIO()
        buf.write(_HEADER + "\n")
        for size, t in zip(self._sizes_list, self._times_list):
            buf.write(f"{size:.17g}\t{t:.17g}\n")
        return buf.getvalue()

    def save(self, path: str | os.PathLike) -> None:
        """Write the table to ``path`` (the paper's disk-resident file)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "XferTable":
        """Parse the on-disk text format."""
        sizes: list[float] = []
        times: list[float] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed xfer-table line {lineno}: {line!r}")
            sizes.append(float(parts[0]))
            times.append(float(parts[1]))
        return cls(sizes, times)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "XferTable":
        """Read a table previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        latency: float,
        bandwidth: float,
        sizes: typing.Sequence[float] | None = None,
    ) -> "XferTable":
        """Analytic latency+bandwidth table (for tests and defaults).

        ``time(n) = latency + n / bandwidth`` sampled at ``sizes`` (default:
        powers of two from 1 B to 4 MiB).
        """
        if sizes is None:
            sizes = [float(2**k) for k in range(0, 23)]
        times = [latency + s / bandwidth for s in sizes]
        return cls(list(sizes), times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XferTable):
            return NotImplemented
        return (self._sizes_list == other._sizes_list
                and self._times_list == other._times_list)

    def __repr__(self) -> str:
        return (
            f"<XferTable {len(self._sizes_list)} points, "
            f"{self._sizes_list[0]:.0f}..{self._sizes_list[-1]:.0f} B>"
        )
