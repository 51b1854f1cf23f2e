"""Pending-store behaviour: FIFO ties at scale, lazy timeout cancellation,
``advance_to`` and Burst unit tests.

(The file is named for the calendar queue these tests once also covered;
the store is now one binary heap.)  Lazy cancellation must keep the
pending store bounded under cancel-heavy workloads.  Bursts must
tail-extend, refuse out-of-order times, and yield/reinsert when a
competing event holds a smaller key.
"""

import pytest

from repro.sim import Engine


def test_calendar_preserves_fifo_ties():
    eng = Engine()
    order: list[int] = []
    for i in range(4196):
        t = eng.timeout(5e-6)  # every event at the same instant
        t.callbacks.append(lambda ev, i=i: order.append(i))
    eng.run()
    assert order == list(range(4196))


# -- lazy cancellation / compaction -------------------------------------------

def test_cancelled_timeouts_keep_heap_bounded():
    """Cancel-heavy workload: the store must not grow with total cancels.

    This is the guard-timeout pattern: every operation arms a long guard
    and cancels it on completion.  With eager deletion the heap would hold
    one dead entry per cancel until its distant deadline; lazy deletion
    plus compaction keeps the high-water mark near the live population.
    """
    eng = Engine()
    n = 20_000

    def driver():
        for _ in range(n):
            guard = eng.timeout(1e3)  # distant guard, always cancelled
            yield eng.timeout(1e-7)   # the real (short) operation
            assert guard.cancel()

    eng.process(driver())
    eng.run()
    assert eng.cancelled_count == n
    # Live population is ~2 per iteration; compaction must keep the store
    # within a small constant factor of that, not O(n).
    assert eng.heap_high_water < 256
    assert eng.pending_count == 0


def test_cancel_is_idempotent_and_fired_timeouts_refuse():
    eng = Engine()
    t = eng.timeout(1.0)
    assert t.cancel()
    assert not t.cancel()  # second cancel: already dead
    fired = eng.timeout(1e-9)
    fired.callbacks.append(lambda ev: None)
    eng.run()
    assert not fired.cancel()  # already fired
    assert eng.cancelled_count == 1


# -- lazy synchronisation (Engine.advance_to) ---------------------------------

def _sync(eng, when):
    """The caller's idiom, as a helper for generator bodies."""
    t = eng.advance_to(when)
    return () if t is None else (t,)


def test_advance_to_matches_timeout_schedule_bit_for_bit():
    """advance_to() and timeout() produce the identical event schedule.

    Two workers with co-prime periods generate interleavings and exact
    ``when`` ties; the advance_to-based run must resolve every one the
    same way (same timestamps, same FIFO order) as the pure-timeout run.
    """

    def program(eng, tick):
        trace = []

        def a():
            for _ in range(50):
                yield from tick(eng, 3e-7)
                trace.append(("a", eng.now))

        def b():
            for _ in range(30):
                yield eng.timeout(5e-7)
                trace.append(("b", eng.now))

        eng.process(a())
        eng.process(b())
        eng.run()
        return trace, eng.processed_count

    with_timeout = program(Engine(), lambda eng, dt: (eng.timeout(dt),))
    with_advance = program(Engine(), lambda eng, dt: _sync(eng, eng.now + dt))
    assert with_advance == with_timeout


def test_advance_to_inline_only_when_provably_next():
    eng = Engine()
    # Empty store: inline advance, no Timeout allocated; it still consumes
    # one sequence number and one processed-count tick.
    assert eng.advance_to(1e-6) is None
    assert eng.now == 1e-6
    assert (eng._seq, eng.processed_count) == (1, 1)
    # A pending event before the target: must fall back to a real Timeout.
    eng.timeout(1.5e-6).callbacks.append(lambda _e: None)
    t = eng.advance_to(3e-6)
    assert t is not None
    # An entry at exactly the target is not "strictly later": no inline.
    assert eng.advance_to(2.5e-6) is not None
    eng.run()
    assert eng.now == 3e-6


def test_advance_to_at_or_behind_now_is_a_no_op():
    eng = Engine()
    eng.advance_to(2e-6)
    before = (eng.now, eng._seq, eng.processed_count, eng.pending_count)
    assert eng.advance_to(2e-6) is None
    assert eng.advance_to(1e-6) is None
    assert (eng.now, eng._seq, eng.processed_count, eng.pending_count) == before


def test_advance_to_posts_the_absolute_time_bit_exactly():
    # 0.1 + 0.2 != 0.3 in floats: the scheduled time must be the ``when``
    # the caller computed, not ``now + (when - now)``.
    eng = Engine()
    eng.timeout(0.05).callbacks.append(lambda _e: None)
    eng.run()
    when = 0.05
    for dt in (0.1, 0.2, 1e-9, 3e-7):
        when = when + dt
    eng.timeout(0.01).callbacks.append(lambda _e: None)  # forces a real post
    seen = []
    t = eng.advance_to(when)
    assert t is not None and t.delay == when - eng.now
    t.callbacks.append(lambda _e: seen.append(eng.now))
    eng.run()
    assert seen == [when]


def test_advance_to_respects_run_deadline():
    eng = Engine()
    log = []

    def p():
        while True:
            yield from _sync(eng, eng.now + 1e-6)
            log.append(eng.now)

    eng.process(p())
    eng.run(until=5.5e-6)
    assert eng.now == 5.5e-6
    assert log == [pytest.approx(i * 1e-6) for i in range(1, 6)]
    # Event-bounded runs disable inline advances outright.
    stop = eng.timeout(10e-6)
    counts = []

    def q():
        t = eng.advance_to(eng.now + 1e-6)
        counts.append(t is not None)
        yield t

    eng.process(q())
    eng.run(until=stop)
    assert counts == [True]


def test_advance_to_refuses_inside_a_multi_callback_dispatch():
    # While an event with several callbacks is being dispatched the
    # remaining callbacks still owe work at the current instant.
    eng = Engine()
    ev = eng.timeout(1e-6)
    seen = []
    ev.callbacks.append(lambda _e: seen.append(eng.advance_to(2e-6)))
    ev.callbacks.append(lambda _e: seen.append(eng.now))
    eng.run()
    assert seen[0] is not None  # a real Timeout, not an inline jump
    assert seen[1] == 1e-6


def test_advance_to_refuses_across_a_retiring_burst():
    # Sub-events of a burst being retired are not in the store; the floor
    # keeps an inline advance from jumping past the next one.
    eng = Engine()
    burst = eng.new_burst()
    first = burst.try_at(1e-6)
    second = burst.try_at(2e-6)
    order = []
    first.callbacks.append(lambda _e: order.append(("first", eng.advance_to(3e-6))))
    second.callbacks.append(lambda _e: order.append(("second", eng.now)))
    eng.run()
    assert order[0][0] == "first" and order[0][1] is not None
    assert order[1] == ("second", 2e-6)
    assert eng.now == 3e-6


# -- Burst unit behaviour ------------------------------------------------------

def test_burst_tail_extends_and_refuses_out_of_order():
    eng = Engine()
    burst = eng.new_burst()
    a = burst.try_at(2e-6)
    b = burst.try_at(2e-6)  # equal time: allowed (FIFO tie-break)
    c = burst.try_at(3e-6)
    assert a is not None and b is not None and c is not None
    assert burst.try_at(1e-6) is None  # precedes the tail: refused
    assert burst.pending == 3
    burst.close()
    assert burst.try_at(5e-6) is None  # closed: refused
    order: list[str] = []
    for name, ev in (("a", a), ("b", b), ("c", c)):
        ev.callbacks.append(lambda _e, name=name: order.append(name))
    eng.run()
    assert order == ["a", "b", "c"]
    assert burst.pending == 0
    assert eng.now == 3e-6


def test_burst_yields_to_competing_smaller_key():
    # A plain event lands between two burst sub-events: the burst must
    # yield, let it run at the right instant, and reinsert its remainder.
    eng = Engine()
    burst = eng.new_burst()
    first = burst.try_at(1e-6)
    second = burst.try_at(5e-6)
    order: list[str] = []
    first.callbacks.append(lambda _e: order.append("sub1"))
    second.callbacks.append(lambda _e: order.append("sub2"))
    mid = eng.timeout(3e-6)
    mid.callbacks.append(lambda _e: order.append("mid"))
    eng.run()
    assert order == ["sub1", "mid", "sub2"]
    assert eng.burst_reinserts >= 1


def test_burst_interleaved_with_step():
    eng = Engine()
    burst = eng.new_burst()
    evs = [burst.try_at(i * 1e-6) for i in range(1, 6)]
    seen: list[float] = []
    for ev in evs:
        ev.callbacks.append(lambda _e: seen.append(eng.now))
    while eng.pending_count:
        eng.step()
    assert seen == [i * 1e-6 for i in range(1, 6)]
