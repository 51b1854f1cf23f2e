"""Unit tests for the discrete-event engine (clock, heap, run loop)."""

import pytest

from repro.sim import Engine, Event, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(2.5)
    eng.run()
    assert eng.now == 2.5


def test_run_until_time_stops_early():
    eng = Engine()
    eng.timeout(10.0)
    eng.run(until=4.0)
    assert eng.now == 4.0


def test_run_until_time_processes_events_at_or_before_deadline():
    eng = Engine()
    hits = []
    t = eng.timeout(3.0)
    t.callbacks.append(lambda ev: hits.append(eng.now))
    eng.run(until=3.0)
    assert hits == [3.0]


def test_run_with_no_events_and_deadline_sets_clock():
    eng = Engine()
    eng.run(until=7.0)
    assert eng.now == 7.0


def test_run_until_past_time_raises():
    eng = Engine()
    eng.timeout(5.0)
    eng.run()
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def test_fifo_tie_break_for_equal_times():
    eng = Engine()
    order = []
    for label in "abc":
        t = eng.timeout(1.0)
        t.callbacks.append(lambda ev, label=label: order.append(label))
    eng.run()
    assert order == ["a", "b", "c"]


def test_events_process_in_time_order():
    eng = Engine()
    order = []
    for delay in (3.0, 1.0, 2.0):
        t = eng.timeout(delay)
        t.callbacks.append(lambda ev, d=delay: order.append(d))
    eng.run()
    assert order == [1.0, 2.0, 3.0]


def test_run_until_event_returns_its_value():
    eng = Engine()
    ev = eng.event()
    t = eng.timeout(1.0)
    t.callbacks.append(lambda _: ev.succeed("payload"))
    assert eng.run(until=ev) == "payload"
    assert eng.now == 1.0


def test_run_until_event_that_never_fires_reports_deadlock():
    eng = Engine()
    ev = eng.event()
    eng.timeout(1.0)
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run(until=ev)


def test_unhandled_failed_event_propagates_from_run():
    eng = Engine()
    ev = eng.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_processed_count_increments():
    eng = Engine()
    eng.timeout(1.0)
    eng.timeout(2.0)
    eng.run()
    assert eng.processed_count == 2


def test_peek_reports_next_event_time():
    eng = Engine()
    assert Engine().peek == float("inf")
    eng.timeout(4.0)
    eng.timeout(2.0)
    assert eng.peek == 2.0


def test_nested_scheduling_from_callback():
    eng = Engine()
    times = []
    outer = eng.timeout(1.0)

    def chain(_):
        times.append(eng.now)
        inner = eng.timeout(1.0)
        inner.callbacks.append(lambda ev: times.append(eng.now))

    outer.callbacks.append(chain)
    eng.run()
    assert times == [1.0, 2.0]


def test_event_cannot_be_triggered_twice():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_event_value_unavailable_until_triggered():
    ev = Engine().event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Engine().timeout(-1.0)


def test_event_repr_shows_state():
    eng = Engine()
    ev = eng.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "ok" in repr(ev)
    ev2 = Event(eng)
    ev2._defused = True
    ev2.fail(RuntimeError())
    assert "failed" in repr(ev2)
