"""Per-pair traffic matrix diagnostics.

Built from the fabric's ground-truth transfer log (so it needs
``run_app(..., record_transfers=True)``).  Complements the per-process
overlap reports with the communication topology: who talks to whom, how
much, and in what sizes -- the first thing to check when a benchmark's
characterization looks wrong.
"""

from __future__ import annotations

import typing

from repro import _numpy

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.fabric import Fabric


def traffic_matrix(
    fabric: "Fabric", include_control: bool = False
) -> np.ndarray:
    """``matrix[src, dst]`` = user-payload bytes moved src -> dst.

    Control packets (<= control_packet_size) are excluded unless asked for.
    Needs numpy (``pip install 'repro[numpy]'``).
    """
    if fabric.transfer_log is None:
        raise ValueError("fabric was not created with record_transfers=True")
    n = fabric.num_nodes
    matrix = _numpy().zeros((n, n))
    threshold = fabric.params.control_packet_size
    for rec in fabric.transfer_log:
        if not include_control and rec.nbytes <= threshold:
            continue
        matrix[rec.src, rec.dst] += rec.nbytes
    return matrix


def render_traffic_matrix(matrix: np.ndarray, title: str = "") -> str:
    """Text heat-table of a (small) traffic matrix, in KiB."""
    n = matrix.shape[0]
    lines = []
    if title:
        lines.append(title)
    header = "src\\dst " + " ".join(f"{d:>9}" for d in range(n))
    lines.append(header)
    for src in range(n):
        cells = " ".join(
            f"{matrix[src, dst] / 1024:>9.1f}" if matrix[src, dst] else f"{'-':>9}"
            for dst in range(n)
        )
        lines.append(f"{src:>7} {cells}")
    lines.append(f"(KiB; total {matrix.sum() / 1024:.1f} KiB)")
    return "\n".join(lines)
