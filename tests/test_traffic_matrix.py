"""Tests for per-pair traffic diagnostics."""

import pytest

from repro.analysis.traffic import render_traffic_matrix, traffic_matrix
from repro.mpisim.config import openmpi_like
from repro.runtime import run_app


def _ring_app(ctx):
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for _ in range(3):
        rreq = yield from ctx.comm.irecv(left, 1)
        sreq = yield from ctx.comm.isend(right, 1, 10_000)
        yield from ctx.comm.waitall([sreq, rreq])


def test_matrix_matches_ring_topology():
    result = run_app(_ring_app, 4, config=openmpi_like(), record_transfers=True)
    matrix = traffic_matrix(result.fabric)
    for src in range(4):
        for dst in range(4):
            if dst == (src + 1) % 4:
                assert matrix[src, dst] > 3 * 10_000  # payload + headers
            else:
                assert matrix[src, dst] == 0.0


def test_control_packets_excluded_by_default():
    def app(ctx):
        # Rendezvous: RTS/FIN control packets fly alongside the payload.
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 1, 500_000)
        else:
            yield from ctx.comm.recv(0, 1)

    from repro.mpisim.config import mvapich2_like

    result = run_app(app, 2, config=mvapich2_like(), record_transfers=True)
    payload_only = traffic_matrix(result.fabric)
    with_control = traffic_matrix(result.fabric, include_control=True)
    assert with_control.sum() > payload_only.sum()
    assert payload_only[0, 1] == pytest.approx(500_000)  # the rget read
    assert payload_only[1, 0] == 0.0


def test_requires_recording():
    result = run_app(_ring_app, 2, config=openmpi_like())
    with pytest.raises(ValueError, match="record_transfers"):
        traffic_matrix(result.fabric)


def test_render_matrix():
    result = run_app(_ring_app, 3, config=openmpi_like(), record_transfers=True)
    text = render_traffic_matrix(traffic_matrix(result.fabric), title="ring")
    assert "ring" in text
    assert "src\\dst" in text
    assert "total" in text
    assert "-" in text  # empty cells rendered as dashes
