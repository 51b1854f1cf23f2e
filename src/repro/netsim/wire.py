"""Batched binary frames for cross-shard channel traffic.

The sharded engine's coordinator exchanges :class:`~repro.netsim.channel.
ChannelMsg` lists with its out-of-process workers over framed stream
sockets (:mod:`repro.netsim.transport`).  Pickling each message
individually (ten fields, a nested packet NamedTuple, a verdict tuple)
dominates the transfer cost once thousands of ranks push
thousands of messages per synchronization round.  This module coalesces
one round's message list into a single compact :class:`Frame`:

* the hot class -- eager ``DELIVER`` messages carrying an
  :class:`~repro.mpisim.packets.EagerPacket` -- is packed as struct'd
  float/int *columns* (one C-level ``struct.pack`` call per column), with
  the payload ``data`` field dedup-interned into a small value table
  (bounce-buffer keys repeat heavily, so the table stays tiny);
* everything else (rendezvous control, RDMA placement/ACK/read traffic,
  fault-verdict oddities) rides a plain ``rest`` tuple that the
  transport's own pickle handles -- correct for any payload, merely not accelerated.

Decoding rebuilds every message *bit-exactly*: float columns are raw
64-bit copies, ints are range-checked into fixed-width columns (an
out-of-range or unexpectedly-typed field demotes that message to
``rest``), and the original list order is preserved via a one-byte-per-
message interleave map.  ``unpack_frame(pack_frame(msgs)) == msgs`` is a
hard invariant, hypothesis-tested field by field in
``tests/test_sim_parallel.py`` -- the sharded engine's bit-identity
guarantee rests on it.
"""

from __future__ import annotations

import struct
import typing

from repro.netsim import channel as _ch

__all__ = ["Frame", "frame_nbytes", "pack_frame", "unpack_frame"]

#: Fixed-width numeric columns of one hot message, in pack order:
#: when, key, src_node, src_port, dst_node, dst_port, nbytes,
#: pkt.seq, pkt.src, pkt.tag, pkt.nbytes, pkt.ctx,
#: extra[0] (tx_end), flags (bit0=duplicate, bit1=reorder), data index.
_COLUMNS = (
    ("when", "d"), ("key", "q"),
    ("src_node", "i"), ("src_port", "H"),
    ("dst_node", "i"), ("dst_port", "H"),
    ("nbytes", "d"),
    ("pkt_seq", "q"), ("pkt_src", "i"), ("pkt_tag", "i"),
    ("pkt_nbytes", "d"), ("pkt_ctx", "i"),
    ("tx_end", "d"), ("flags", "B"), ("data_idx", "I"),
)
_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_UINT16_MAX = (1 << 16) - 1

_EagerPacket: "type | None" = None


def _eager_packet_cls() -> type:
    """The hot payload class (imported lazily: mpisim imports netsim)."""
    global _EagerPacket
    if _EagerPacket is None:
        from repro.mpisim.packets import EagerPacket

        _EagerPacket = EagerPacket
    return _EagerPacket


class Frame(typing.NamedTuple):
    """One round's cross-shard messages, columnar where it pays.

    ``cols`` concatenates the struct-packed columns of the ``n`` hot
    messages; ``vals`` is the deduplicated payload-``data`` table the
    ``data_idx`` column points into; ``rest`` holds the messages the
    columnar path declined, and ``order`` (one byte per message,
    0=columnar 1=rest, ``None`` when ``rest`` is empty) restores the
    original interleaving.
    """

    n: int
    cols: bytes
    vals: tuple
    rest: tuple
    order: "bytes | None"


def pack_frame(msgs: "list[_ch.ChannelMsg]") -> Frame:
    """Encode one message list into a :class:`Frame` (order-preserving)."""
    eager = _eager_packet_cls()
    deliver = _ch.DELIVER
    whens: list[float] = []
    keys: list[int] = []
    src_nodes: list[int] = []
    src_ports: list[int] = []
    dst_nodes: list[int] = []
    dst_ports: list[int] = []
    nbytes_col: list[float] = []
    pkt_seqs: list[int] = []
    pkt_srcs: list[int] = []
    pkt_tags: list[int] = []
    pkt_nbytes: list[float] = []
    pkt_ctxs: list[int] = []
    tx_ends: list[float] = []
    flags_col: list[int] = []
    data_idxs: list[int] = []
    vals: list[object] = []
    val_idx: dict[object, int] = {}
    rest: list[_ch.ChannelMsg] = []
    order = bytearray(len(msgs))
    for pos, msg in enumerate(msgs):
        when, key, kind, src_node, src_port, dst_node, dst_port, \
            nbytes, pkt, extra = msg
        # The hot-class guard is deliberately strict about *types*, not
        # just values: struct would happily coerce an int into a double
        # column (or a bool into an int one) and the decoded message
        # would compare unequal to the original.
        if (
            kind == deliver
            and pkt.__class__ is eager
            and type(extra) is tuple and len(extra) == 3
            and type(extra[0]) is float
            and type(extra[1]) is bool and type(extra[2]) is bool
            and type(when) is float and type(nbytes) is float
            and type(pkt[3]) is float
            and type(key) is int
            and type(src_node) is int and type(src_port) is int
            and type(dst_node) is int and type(dst_port) is int
            and type(pkt[0]) is int and type(pkt[1]) is int
            and type(pkt[2]) is int and type(pkt[5]) is int
            and _INT64_MIN <= key <= _INT64_MAX
            and _INT64_MIN <= pkt[0] <= _INT64_MAX
            and 0 <= src_node <= _INT32_MAX
            and 0 <= dst_node <= _INT32_MAX
            and 0 <= src_port <= _UINT16_MAX
            and 0 <= dst_port <= _UINT16_MAX
            and _INT32_MIN <= pkt[1] <= _INT32_MAX
            and _INT32_MIN <= pkt[2] <= _INT32_MAX
            and _INT32_MIN <= pkt[5] <= _INT32_MAX
        ):
            data = pkt[4]
            try:
                idx = val_idx.setdefault(data, len(vals))
            except TypeError:  # unhashable data object
                rest.append(msg)
                order[pos] = 1
                continue
            if idx == len(vals):
                vals.append(data)
            whens.append(when)
            keys.append(key)
            src_nodes.append(src_node)
            src_ports.append(src_port)
            dst_nodes.append(dst_node)
            dst_ports.append(dst_port)
            nbytes_col.append(nbytes)
            pkt_seqs.append(pkt[0])
            pkt_srcs.append(pkt[1])
            pkt_tags.append(pkt[2])
            pkt_nbytes.append(pkt[3])
            pkt_ctxs.append(pkt[5])
            tx_ends.append(extra[0])
            flags_col.append((1 if extra[1] else 0) | (2 if extra[2] else 0))
            data_idxs.append(idx)
        else:
            rest.append(msg)
            order[pos] = 1
    n = len(whens)
    cols = b"".join((
        struct.pack(f"<{n}d", *whens),
        struct.pack(f"<{n}q", *keys),
        struct.pack(f"<{n}i", *src_nodes),
        struct.pack(f"<{n}H", *src_ports),
        struct.pack(f"<{n}i", *dst_nodes),
        struct.pack(f"<{n}H", *dst_ports),
        struct.pack(f"<{n}d", *nbytes_col),
        struct.pack(f"<{n}q", *pkt_seqs),
        struct.pack(f"<{n}i", *pkt_srcs),
        struct.pack(f"<{n}i", *pkt_tags),
        struct.pack(f"<{n}d", *pkt_nbytes),
        struct.pack(f"<{n}i", *pkt_ctxs),
        struct.pack(f"<{n}d", *tx_ends),
        struct.pack(f"<{n}B", *flags_col),
        struct.pack(f"<{n}I", *data_idxs),
    )) if n else b""
    return Frame(
        n=n, cols=cols, vals=tuple(vals), rest=tuple(rest),
        order=bytes(order) if rest else None,
    )


def frame_nbytes(frame: Frame) -> int:
    """Approximate payload footprint of one frame, in bytes.

    Counts the struct'd columns, the interleave map, and the lengths of
    sized payload values; ``rest`` messages and unsized values are
    charged a nominal 8 bytes each (their true size depends on the
    pickler).  The socket shard backend uses this to split measured
    socket traffic into simulation payload vs framing/pickle/heartbeat
    overhead -- an accounting aid, not part of the codec invariant.
    """
    total = len(frame.cols)
    if frame.order is not None:
        total += len(frame.order)
    for val in frame.vals:
        try:
            total += len(val)  # type: ignore[arg-type]
        except TypeError:
            total += 8
    total += 8 * len(frame.rest)
    return total


def unpack_frame(frame: Frame) -> "list[_ch.ChannelMsg]":
    """Decode a :class:`Frame` back into its original message list."""
    n = frame.n
    if not n:
        return list(frame.rest)
    eager = _eager_packet_cls()
    deliver = _ch.DELIVER
    cols = frame.cols
    vals = frame.vals
    off = 0
    unpacked = []
    for _name, fmt in _COLUMNS:
        size = struct.calcsize(f"<{n}{fmt}")
        unpacked.append(struct.unpack_from(f"<{n}{fmt}", cols, off))
        off += size
    (whens, keys, src_nodes, src_ports, dst_nodes, dst_ports, nbytes_col,
     pkt_seqs, pkt_srcs, pkt_tags, pkt_nbytes, pkt_ctxs, tx_ends,
     flags_col, data_idxs) = unpacked
    # Reassembly runs entirely through C-level map/zip pipelines: two
    # tuple constructions per message is the floor, everything around
    # them stays out of the bytecode loop.
    pkts = map(eager._make, zip(
        pkt_seqs, pkt_srcs, pkt_tags, pkt_nbytes,
        map(vals.__getitem__, data_idxs), pkt_ctxs,
    ))
    extras = zip(tx_ends,
                 map((False, True, False, True).__getitem__, flags_col),
                 map((False, False, True, True).__getitem__, flags_col))
    make = _ch.ChannelMsg._make
    kinds = (deliver,) * n
    hot = list(map(make, zip(
        whens, keys, kinds, src_nodes, src_ports, dst_nodes, dst_ports,
        nbytes_col, pkts, extras,
    )))
    if frame.order is None:
        return hot
    hot_it = iter(hot)
    rest_it = iter(frame.rest)
    return [
        next(rest_it) if flag else next(hot_it)
        for flag in frame.order
    ]
