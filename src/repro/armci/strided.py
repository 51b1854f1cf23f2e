"""Strided RMA transfers (ARMCI_PutS / ARMCI_GetS).

ARMCI's distinguishing API is multi-dimensional strided transfer: a ghost
face of a 3-D array is a set of equally spaced segments, not one
contiguous block.  Two wire strategies exist, both modeled here:

* ``packed`` -- copy the segments into a contiguous bounce buffer (host
  memcpy cost), ship one message, unpack remotely (the remote unpack cost
  is borne by the NIC/host at delivery; we charge it to the wire-time
  side as a copy at completion).  One descriptor, one latency; wins for
  many small segments.
* ``direct`` -- one RDMA operation per segment; zero copies, but one
  descriptor post and one wire latency per segment; wins for a few large
  segments.

``auto`` picks by a crossover heuristic, as real ARMCI does.  The
instrumentation counts the whole strided transfer as one data-transfer
operation of the total payload size (segments of one ghost face move as
one logical message; control/packing is not user payload).
"""

from __future__ import annotations

import typing

from repro import _numpy
from repro.armci.handles import NbHandle

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.armci.api import ArmciEndpoint

#: Wire strategies.
PACKED = "packed"
DIRECT = "direct"
AUTO = "auto"

#: ``auto`` packs when segments are smaller than this (bytes).
PACK_THRESHOLD = 16 * 1024


class StridedSpec(typing.NamedTuple):
    """A strided region: ``count`` segments of ``seg_nbytes`` bytes,
    ``stride`` bytes apart, starting at ``offset`` (element units are
    bytes here; the data path uses element offsets computed from these)."""

    offset: int
    seg_nbytes: float
    stride: int
    count: int

    @property
    def total_nbytes(self) -> float:
        return self.seg_nbytes * self.count


def choose_strategy(spec: StridedSpec, strategy: str) -> str:
    """Resolve ``auto`` to packed/direct by segment size."""
    if strategy == AUTO:
        return PACKED if spec.seg_nbytes < PACK_THRESHOLD else DIRECT
    if strategy not in (PACKED, DIRECT):
        raise ValueError(f"unknown strided strategy {strategy!r}")
    return strategy


def nbput_strided(
    ep: "ArmciEndpoint",
    target: int,
    region: str,
    spec: StridedSpec,
    data: np.ndarray | None = None,
    strategy: str = AUTO,
) -> typing.Generator:
    """Non-blocking strided put; returns one :class:`NbHandle` covering
    all segments.  ``data`` (if given) holds ``count * seg_elems``
    elements, segment-major."""
    ep._check_target(target)
    resolved = choose_strategy(spec, strategy)
    total = spec.total_nbytes
    yield from ep.poll()
    handle = NbHandle("puts", target, total)
    snapshot = data.copy() if data is not None else None

    def place_segments() -> None:
        if snapshot is None:
            return
        dest = ep.region_of(target, region).array.reshape(-1)
        itemsize = dest.dtype.itemsize
        seg_elems = int(spec.seg_nbytes // itemsize)
        stride_elems = spec.stride // itemsize
        start = spec.offset // itemsize
        flat = snapshot.reshape(-1)
        for seg in range(spec.count):
            lo = start + seg * stride_elems
            dest[lo : lo + seg_elems] = flat[seg * seg_elems : (seg + 1) * seg_elems]

    if resolved == PACKED:
        # Pack into a contiguous buffer, one wire message.
        ep.spend(ep.params.copy_time(total))
        ep.spend(ep.params.post_cost)
        xid = ep.monitor.xfer_begin(total)
        ep.pending_local += 1

        def on_done() -> None:
            ep.pending_local -= 1
            ep.monitor.xfer_end(xid, total)
            place_segments()
            handle.complete()

        yield from ep.sync()
        ep.nic.post_rdma_write(ep.fabric.nic(target), total, context=on_done)
    else:
        # One RDMA write per segment; completion when the last one lands.
        xid = ep.monitor.xfer_begin(total)
        remaining = [spec.count]
        for _seg in range(spec.count):
            ep.spend(ep.params.post_cost)
            ep.pending_local += 1

            def on_seg_done() -> None:
                ep.pending_local -= 1
                remaining[0] -= 1
                if remaining[0] == 0:
                    ep.monitor.xfer_end(xid, total)
                    place_segments()
                    handle.complete()

            yield from ep.sync()
            ep.nic.post_rdma_write(
                ep.fabric.nic(target), spec.seg_nbytes, context=on_seg_done
            )
    ep._track(handle)
    return handle


def nbget_strided(
    ep: "ArmciEndpoint",
    target: int,
    region: str,
    spec: StridedSpec,
    want_data: bool = False,
    strategy: str = AUTO,
) -> typing.Generator:
    """Non-blocking strided get; the handle's ``data`` (if requested)
    receives the segments packed contiguously."""
    ep._check_target(target)
    resolved = choose_strategy(spec, strategy)
    total = spec.total_nbytes
    yield from ep.poll()
    handle = NbHandle("gets", target, total)

    def gather_segments() -> np.ndarray | None:
        if not want_data:
            return None
        np = _numpy()
        src = ep.region_of(target, region).array.reshape(-1)
        itemsize = src.dtype.itemsize
        seg_elems = int(spec.seg_nbytes // itemsize)
        stride_elems = spec.stride // itemsize
        start = spec.offset // itemsize
        parts = [
            src[start + seg * stride_elems : start + seg * stride_elems + seg_elems]
            for seg in range(spec.count)
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=src.dtype)

    if resolved == PACKED:
        # Target-side pack is modeled as a remote copy folded into one
        # read of the packed buffer (server-assisted pack).
        ep.spend(ep.params.post_cost)
        xid = ep.monitor.xfer_begin(total)
        ep.pending_local += 1

        def on_done() -> None:
            ep.pending_local -= 1
            ep.monitor.xfer_end(xid, total)
            handle.complete(gather_segments())

        yield from ep.sync()
        ep.nic.post_rdma_read(ep.fabric.nic(target), total, context=on_done)
    else:
        xid = ep.monitor.xfer_begin(total)
        remaining = [spec.count]
        for _seg in range(spec.count):
            ep.spend(ep.params.post_cost)
            ep.pending_local += 1

            def on_seg_done() -> None:
                ep.pending_local -= 1
                remaining[0] -= 1
                if remaining[0] == 0:
                    ep.monitor.xfer_end(xid, total)
                    handle.complete(gather_segments())

            yield from ep.sync()
            ep.nic.post_rdma_read(
                ep.fabric.nic(target), spec.seg_nbytes, context=on_seg_done
            )
    ep._track(handle)
    return handle
