"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim import Engine, SimulationError


def test_process_runs_and_returns_value():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)
        yield eng.timeout(2.0)
        return 42

    proc = eng.process(worker())
    eng.run()
    assert proc.value == 42
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

    proc = eng.process(parent())
    eng.run()
    assert proc.value == "child-result"


def test_yield_on_already_processed_event_continues_immediately():
    eng = Engine()
    done = eng.event()
    done.succeed("early")
    eng.run()  # process the event

    def worker():
        value = yield done
        return (eng.now, value)

    proc = eng.process(worker())
    eng.run()
    assert proc.value == (0.0, "early")


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
    eng.run()
    assert proc.value == "caught nope"


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

    proc = eng.process(worker())
    eng.run()
    assert proc.value == ("rejected", 1.0, "slept")


def test_process_value_is_unavailable_while_alive():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)
        return "done"

    proc = eng.process(worker())
    eng.run(until=0.5)
    with pytest.raises(SimulationError, match="not yet available"):
        proc.value
    eng.run()
    assert proc.value == "done"


def test_a_waiting_process_catches_the_failure_of_the_one_it_waits_on():
    eng = Engine()

    def child():
        yield eng.timeout(1.0)
        raise KeyError("lost")

    def parent():
        try:
            yield eng.process(child())
        except KeyError as exc:
            return ("caught", eng.now, exc.args[0])

    proc = eng.process(parent())
    eng.run()  # handled by the waiter: nothing propagates out of run()
    assert proc.value == ("caught", 1.0, "lost")


@pytest.mark.parametrize("arrives,expected", [
    (0.25, ("arrived", 0.25)), (None, ("gave up", 1.0))])
def test_a_guard_timeout_bounds_a_polling_wait(arrives, expected):
    """A rank that must not wait forever polls under a guard timeout and
    cancels the guard when the work finishes."""
    eng = Engine()
    arrived = []
    expired = []

    def waiter():
        guard = eng.timeout(1.0)
        guard.callbacks.append(expired.append)
        while not arrived and not expired:
            yield eng.timeout(0.125)
        if arrived:
            assert guard.cancel()
            return ("arrived", eng.now)
        return ("gave up", eng.now)

    if arrives is not None:
        eng.timeout(arrives).callbacks.append(arrived.append)
    proc = eng.process(waiter())
    eng.run()
    assert proc.value == expected
    assert eng.cancelled_count == (arrives is not None)
    assert eng.pending_count == 0


def test_passing_function_instead_of_generator_is_an_error():
    eng = Engine()

    def worker():
        yield eng.timeout(1.0)

    with pytest.raises(TypeError):
        eng.process(worker)  # note: no call


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
