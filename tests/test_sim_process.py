"""Unit tests for generator-coroutine processes and condition events."""

import pytest

from repro.sim import AllOf, AnyOf, Engine, Interrupt, SimulationError


def test_process_runs_and_returns_value():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        return 42

    proc = eng.process(worker())
    assert eng.run(until=proc) == 42
    assert eng.now == 3.0


def test_process_is_alive_until_done():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)

    proc = eng.process(worker())
    assert proc.is_alive
    eng.run()
    assert not proc.is_alive


def test_two_processes_interleave_deterministically():
    eng = Engine()
    trace = []

    def worker(name, delay):
        for _ in range(3):
            yield eng.timeout(delay)
            trace.append((name, eng.now))

    eng.process(worker("a", 1.0))
    eng.process(worker("b", 1.5))
    eng.run()
    # At t=3.0 both wake; b's timeout was scheduled earlier (t=1.5) so it
    # drains first under FIFO tie-breaking.
    assert trace == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),
        ("a", 3.0),
        ("b", 4.5),
    ]


def test_process_waits_on_plain_event():
    eng = Engine()
    gate = eng.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((eng.now, value))

    eng.process(waiter())

    def opener():
        yield eng.timeout(5.0)
        gate.succeed("open")

    eng.process(opener())
    eng.run()
    assert seen == [(5.0, "open")]


def test_process_waits_on_another_process():
    eng = Engine()

    def child():
        yield eng.timeout(2.0)
        return "child-result"

    def parent():
        result = yield eng.process(child())
        return result

    assert eng.run(until=eng.process(parent())) == "child-result"


def test_yield_on_already_processed_event_continues_immediately():
    eng = Engine()
    done = eng.event()
    done.succeed("early")
    eng.run()  # process the event

    def worker():
        value = yield done
        return (eng.now, value)

    assert eng.run(until=eng.process(worker())) == (0.0, "early")


def test_failed_event_raises_inside_process():
    eng = Engine()
    bad = eng.event()

    def worker():
        try:
            yield bad
        except ValueError as exc:
            return f"caught {exc}"

    proc = eng.process(worker())
    bad.fail(ValueError("nope"))
    assert eng.run(until=proc) == "caught nope"


def test_uncaught_process_exception_propagates():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)
        raise KeyError("dead")

    eng.process(worker())
    with pytest.raises(KeyError):
        eng.run()


def test_yielding_non_event_raises_in_process():
    """The error is thrown in at the bad yield; what the generator yields
    after catching it is what it waits on -- it is not resumed at once
    with the previous event's value."""
    eng = Engine()

    def worker():
        try:
            yield 123
        except SimulationError:
            value = yield eng.timeout(1.0, value="slept")
            return ("rejected", eng.now, value)

    assert eng.run(until=eng.process(worker())) == ("rejected", 1.0, "slept")


def test_passing_function_instead_of_generator_is_an_error():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)

    with pytest.raises(TypeError):
        eng.process(worker)  # note: no call


def test_interrupt_wakes_process_early():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))

    proc = eng.process(sleeper())

    def alarm():
        yield eng.timeout(3.0)
        proc.interrupt(cause="wake up")

    eng.process(alarm())
    eng.run()
    assert log == [("interrupted", 3.0, "wake up")]


def test_interrupt_finished_process_is_error():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)

    proc = eng.process(quick())
    eng.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_anyof_fires_on_first_event():
    eng = Engine()
    t1 = eng.timeout(1.0, value="fast")
    t2 = eng.timeout(5.0, value="slow")

    def worker():
        result = yield AnyOf(eng, [t1, t2])
        return (eng.now, dict(result))

    when, result = eng.run(until=eng.process(worker()))
    assert when == 1.0
    assert result == {t1: "fast"}


def test_allof_waits_for_every_event():
    eng = Engine()
    t1 = eng.timeout(1.0, value="a")
    t2 = eng.timeout(5.0, value="b")

    def worker():
        result = yield AllOf(eng, [t1, t2])
        return (eng.now, dict(result))

    when, result = eng.run(until=eng.process(worker()))
    assert when == 5.0
    assert result == {t1: "a", t2: "b"}


def test_empty_allof_fires_immediately():
    eng = Engine()

    def worker():
        yield AllOf(eng, [])
        return eng.now

    assert eng.run(until=eng.process(worker())) == 0.0


def test_condition_with_already_triggered_event():
    eng = Engine()
    t1 = eng.timeout(0.0, value="x")
    eng.run()

    def worker():
        result = yield AnyOf(eng, [t1])
        return dict(result)

    assert eng.run(until=eng.process(worker())) == {t1: "x"}


def test_condition_failure_propagates():
    eng = Engine()
    good = eng.timeout(10.0)
    bad = eng.event()

    def worker():
        try:
            yield AllOf(eng, [good, bad])
        except RuntimeError:
            return "failed"

    proc = eng.process(worker())
    bad.fail(RuntimeError("x"))
    assert eng.run(until=proc) == "failed"


def test_condition_rejects_cross_engine_events():
    eng1, eng2 = Engine(), Engine()
    with pytest.raises(SimulationError):
        AnyOf(eng1, [eng2.timeout(1.0)])


def test_cross_engine_yield_fails_process():
    eng1, eng2 = Engine(), Engine()

    def worker():
        yield eng2.timeout(1.0)

    eng1.process(worker())
    with pytest.raises(SimulationError):
        eng1.run()


def test_determinism_full_replay():
    def build_and_run():
        eng = Engine()
        trace = []

        def worker(name, delays):
            for d in delays:
                yield eng.timeout(d)
                trace.append((name, eng.now))

        eng.process(worker("x", [0.5, 0.5, 1.0]))
        eng.process(worker("y", [1.0, 0.25]))
        eng.process(worker("z", [2.0]))
        eng.run()
        return trace

    assert build_and_run() == build_and_run()
