"""Remaining coverage: trace replay of begin-only streams, nas CLI rank
option, ascii plot in the micro tool, and engine misc."""

from repro.core import EventKind, TraceSink, XferTable, replay_overlap
from repro.nas.base import CpuModel
from repro.sim import Engine
from repro.tools import nas as nas_cli

FAST = CpuModel(flop_rate=100e9)


def test_trace_replay_with_begin_only_tail():
    from repro.core.events import TimedEvent

    table = XferTable.from_model(1e-6, 1e9)
    events = [
        TimedEvent(EventKind.CALL_ENTER, 0.0, 0, 0),
        TimedEvent(EventKind.XFER_BEGIN, 1e-6, 7, 5000),
        TimedEvent(EventKind.CALL_EXIT, 2e-6, 0, 0),
        # no END: resolved at finalize as case 3
    ]
    proc = replay_overlap(events, table, end_time=1e-3)
    assert proc.total.case_counts[3] == 1
    assert proc.total.max_overlap_time == table.time_for(5000)


def test_trace_sink_len_and_estimate_empty():
    sink = TraceSink()
    assert len(sink) == 0
    assert sink.nbytes_estimate == 0
    assert TraceSink.loads(sink.dumps()) == []


def test_nas_cli_rank_option(capsys):
    rc = nas_cli.main([
        "--benchmark", "cg", "--klass", "S", "--np", "4", "--niter", "1",
        "--rank", "2",
    ])
    assert rc == 0
    assert "overlap report: rank 2" in capsys.readouterr().out


def test_nas_cli_mvapich2_override(capsys):
    rc = nas_cli.main([
        "--benchmark", "bt", "--klass", "S", "--np", "4", "--niter", "1",
        "--library", "mvapich2",
    ])
    assert rc == 0


def test_engine_event_factory():
    eng = Engine()
    ev = eng.event()
    assert not ev.triggered
    ev.succeed("x")
    eng.run()
    assert ev.value == "x"


def test_ep_app_is_in_char_table():
    from repro.experiments.nas_char import characterize

    point = characterize("is", "S", 4, niter=1, cpu=FAST)
    assert point.benchmark == "is"
    point = characterize("ep", "S", 4, cpu=FAST)
    assert point.report.total.transfer_count > 0
