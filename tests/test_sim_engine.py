"""Unit tests for the discrete-event engine: clock, run loop, FIFO ties at
scale, lazy timeout cancellation, ``advance_to`` and clock-sync entries.

Lazy cancellation must keep the pending store bounded under cancel-heavy
workloads.  A process's clock sync is one reusable store entry that every
dispatch loop resumes the way a ``Timeout`` would be.  An event that draws
several keys (``post_at(..., keys=n)``) must order every later entry as
the individually posted events would.
"""

import contextlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim import Engine, Event, SimulationError
from repro.sim.events import Timeout
from repro.sim.process import ClockSync
from tests.oracles import heap_only


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


def test_a_cancelled_timeout_never_runs_its_callbacks_or_counts():
    eng = Engine()
    log = []
    dead = eng.timeout(1.0)
    dead.callbacks.append(lambda ev: log.append("dead"))
    live = eng.timeout(2.0)
    live.callbacks.append(lambda ev: log.append("live"))
    assert dead.cancel()
    eng.run()
    assert log == ["live"] and eng.now == 2.0
    assert eng.processed_count == 1 and eng.pending_count == 0
    assert eng._dead_pending == 0


def test_compaction_waits_for_64_dead_entries_that_are_a_majority():
    eng = Engine()
    live = [eng.timeout(1.0) for _ in range(70)]
    guards = [eng.timeout(2.0) for _ in range(64)]
    for guard in guards[:63]:
        assert guard.cancel()
    assert eng.pending_count == 134 and eng._dead_pending == 63
    assert guards[63].cancel()  # 64 dead, but 64 of 134 is no majority
    assert eng.pending_count == 134 and eng._dead_pending == 64
    assert live[0].cancel() and live[1].cancel()
    assert eng.pending_count == 134 and eng._dead_pending == 66
    assert live[2].cancel()  # 67 of 134: compacted to the 67 live
    assert eng.pending_count == 67 and eng._dead_pending == 0
    eng.run()
    assert eng.processed_count == 67 and eng.now == 1.0


def test_a_deadline_past_only_cancelled_entries_lands_exactly():
    eng = Engine()
    assert eng.timeout(3.0).cancel()
    eng.run(until=5.0)
    assert eng.now == 5.0 and eng.processed_count == 0
    assert eng.pending_count == 0 and eng._dead_pending == 0


def test_run_guarded_sees_a_store_of_cancelled_timeouts_as_drained():
    """A watchdog run must not spin (or report ``max_sim_time``) on a
    store whose only entry is a cancelled guard far in the future."""
    eng = Engine()
    guard = eng.timeout(100.0)
    eng.timeout(1e-6).callbacks.append(lambda _e: guard.cancel())
    assert eng.run_guarded(max_sim_time=1.0, stall_sim_time=0.5) is None
    assert eng.now < 1.0 and eng.processed_count == 1
    assert eng.pending_count == 1  # the dead guard is all that is left
    assert eng.run_guarded(max_sim_time=1.0) is None
    assert eng.live_peek() == float("inf") and eng.pending_count == 0


def test_live_peek_leaves_a_live_head_in_place():
    eng = Engine()
    assert eng.live_peek() == float("inf")
    eng.timeout(2.0)
    eng.timeout(1.0)
    assert eng.live_peek() == 1.0 == eng.peek
    assert eng.pending_count == 2


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


def test_advance_to_refuses_across_a_pending_nic_completion():
    # A train of posted completions is a train of store entries: an advance
    # from the first may not jump past the second.
    eng = Engine()
    first = eng.post_at(1e-6)
    second = eng.post_at(2e-6)
    order = []
    first.callbacks.append(lambda _e: order.append(("first", eng.advance_to(3e-6))))
    second.callbacks.append(lambda _e: order.append(("second", eng.now)))
    eng.run()
    assert order[0][0] == "first" and order[0][1] is not None
    assert order[1] == ("second", 2e-6)
    assert eng.now == 3e-6


# -- post_at (one store entry per NIC completion) ------------------------------

def test_post_at_dispatches_ties_in_post_order_and_refuses_the_past():
    eng = Engine()
    a = eng.post_at(2e-6)
    b = eng.post_at(2e-6)  # equal time: FIFO tie-break
    c = eng.post_at(3e-6)
    order: list[str] = []
    for name, ev in (("a", a), ("b", b), ("c", c)):
        ev.callbacks.append(lambda _e, name=name: order.append(name))
    assert eng.pending_count == 3
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3e-6
    with pytest.raises(SimulationError):
        eng.post_at(1e-6)


def test_post_at_keys_draws_that_many_sequence_numbers():
    # A two-key event takes the keys of two adjacent same-instant posts:
    # an entry posted after it, at the same instant, still runs after it,
    # and every later key is the one the two posts would have left.
    eng = Engine()
    order: list[str] = []
    eng.post_at(1e-6, keys=2).callbacks.append(lambda _e: order.append("pair"))
    assert eng._seq == 2
    eng.post_at(1e-6).callbacks.append(lambda _e: order.append("next"))
    assert eng._seq == 3
    eng.run()
    assert order == ["pair", "next"]
    assert eng.processed_count == 2


def test_a_timeout_between_two_posted_completions_runs_between_them():
    eng = Engine()
    order: list[str] = []
    eng.post_at(1e-6).callbacks.append(lambda _e: order.append("sub1"))
    eng.post_at(5e-6).callbacks.append(lambda _e: order.append("sub2"))
    eng.timeout(3e-6).callbacks.append(lambda _e: order.append("mid"))
    eng.run()
    assert order == ["sub1", "mid", "sub2"]


def test_posted_completions_stepped_one_instant_per_run_call():
    # Each run(until=peek) retires exactly the completion at the head.
    eng = Engine()
    seen: list[float] = []
    for i in range(1, 6):
        eng.post_at(i * 1e-6).callbacks.append(lambda _e: seen.append(eng.now))
    steps = 0
    while eng.pending_count:
        eng.run(until=eng.peek)
        steps += 1
        assert len(seen) == steps
    assert seen == [i * 1e-6 for i in range(1, 6)]


# -- clock-sync entries (what advance_to hands a running process) -------------

def _run_drain(eng):
    eng.run()


def _run_deadlines(eng):
    while eng.pending_count:
        eng.run(until=eng.now + 2.5e-7)


def _run_steps(eng):
    # One instant per call: the deadline is exactly the head's time.
    while eng.pending_count:
        eng.run(until=eng.peek)


@pytest.mark.parametrize("drive", [_run_drain, _run_deadlines, _run_steps])
def test_every_dispatch_loop_resumes_a_clock_sync_like_a_timeout(drive):
    """``run()`` and ``run(until=t)`` (deadlines between and exactly on
    event times): the same trace and event count as the same program on
    ``Timeout``s."""

    def program(sync):
        eng = Engine()
        trace = []

        def rank(name, dt, n):
            for _ in range(n):
                yield from sync(eng, eng.now + dt, trace)
                trace.append((name, eng.now))

        def timer():
            for _ in range(30):
                yield eng.timeout(5e-7)
                trace.append(("t", eng.now))

        eng.process(rank("a", 3e-7, 50))
        eng.process(rank("b", 2e-7, 60))  # ties with "a" every 6e-7
        eng.process(timer())
        drive(eng)
        return trace, eng.processed_count

    def with_entry(eng, when, trace):
        t = eng.advance_to(when)
        if t is None:
            return ()
        assert t.__class__ is ClockSync
        trace.append("entry")
        return (t,)

    def with_timeout(eng, when, _trace):
        return (eng.timeout(when - eng.now),)

    trace, count = program(with_entry)
    assert "entry" in trace  # not every advance was inline
    ref_trace, ref_count = program(with_timeout)
    assert [x for x in trace if x != "entry"] == ref_trace
    assert count == ref_count


def test_advance_to_outside_a_process_still_returns_a_timeout():
    eng = Engine()
    eng.timeout(1e-6)
    assert eng.advance_to(2e-6).__class__ is Timeout


def test_a_sync_armed_but_not_yielded_fires_like_an_unawaited_timeout():
    eng = Engine()
    log = []

    def p():
        first = eng.advance_to(3e-6)           # armed, not yielded yet
        second = eng.advance_to(2e-6)          # entry busy: a plain Timeout
        assert first.__class__ is ClockSync and second.__class__ is Timeout
        yield eng.timeout(5e-6)                # sleeps through both
        log.append(eng.now)
        yield first                            # already retired: no wait
        log.append(eng.now)

    eng.timeout(1e-6)  # keeps the advances from being inline
    eng.process(p())
    eng.run()
    assert log == [5e-6, 5e-6]


def test_live_peek_and_compact_drop_a_cancelled_timeout():
    """A cancelled guard at the head goes; the clock syncs behind it -- a
    lone entry and a group, whose classes also carry ``callbacks = None``
    -- stay and wake."""

    def armed():
        eng = Engine()
        log = []
        guard = eng.timeout(5e-6)

        def sleeper():
            yield eng.advance_to(9e-6)
            log.append(eng.now)

        for _ in range(3):
            eng.process(sleeper())
        eng.run(until=1e-6)
        assert guard.cancel()
        return eng, log

    eng, log = armed()
    assert eng.peek == 5e-6             # the dead head, until discarded
    assert eng.live_peek() == 9e-6
    assert eng.pending_count == 3 and eng._dead_pending == 0
    eng.run()
    assert log == [9e-6] * 3 and eng.live_peek() == float("inf")

    eng, log = armed()
    eng._compact()
    assert eng.pending_count == 3 and eng._dead_pending == 0
    assert eng.peek == 9e-6
    eng.run()
    assert log == [9e-6] * 3


_TICK = 2.0 ** -20  # dyadic, so every sum and difference of times is exact

_steps = st.lists(
    st.tuples(st.sampled_from(["sync", "timeout", "nic"]),
              st.integers(min_value=0, max_value=6)),
    min_size=1, max_size=12)


@given(
    st.lists(_steps, min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                       st.integers(min_value=0, max_value=3)),
             max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_dispatch_order_is_the_order_of_individually_posted_timeouts(
        programs, guards):
    """Syncs, timeouts, two-key NIC completions and cancelled guard
    timeouts interleaved, with ties everywhere: the run dispatches in the
    ``(when, seq)`` order the same program gives when every entry is an
    individually posted ``Timeout`` / ``post_at`` event on the heap."""

    def run(reference):
        with heap_only() if reference else contextlib.nullcontext():
            eng = Engine()
        log = []
        pairs = 0

        def at(when, label):
            """Like ``Nic._post_at`` with two keys (a merged RDMA-write
            completion); the reference posts the two events."""
            nonlocal pairs
            ev = eng.post_at(when, keys=1 if reference else 2)
            ev.callbacks.append(lambda _e: log.append((label, eng.now)))
            if reference:
                eng.post_at(when).callbacks.append(lambda _e: None)
                pairs += 1

        def worker(w, steps):
            for i, (kind, k) in enumerate(steps):
                dt = k * _TICK
                if kind == "nic":
                    at(eng.now + dt, (w, i, "nic"))
                    continue
                if kind == "timeout" or reference:
                    if kind == "timeout" or dt > 0.0:
                        yield eng.timeout(dt)
                else:
                    t = eng.advance_to(eng.now + dt)
                    if t is not None:
                        assert t.__class__ is ClockSync
                        yield t
                log.append((w, i, kind, eng.now))

        for w, steps in enumerate(programs):
            eng.process(worker(w, steps))

        def canceller():
            """Arms a guard nobody waits on, cancels it ``k`` ticks later:
            dead entries among the live ones (a guard due by then fires)."""
            for n, (k, span) in enumerate(guards):
                guard = eng.timeout((k + span) * _TICK)
                guard.callbacks.append(
                    lambda _e, n=n: log.append(("guard", n, eng.now)))
                yield eng.timeout(k * _TICK)
                log.append(("cancel", n, eng.now, guard.cancel()))

        eng.process(canceller())
        eng.run()
        return (log, eng.now, eng.processed_count - pairs,
                eng.cancelled_count, eng._seq)

    assert run(reference=False) == run(reference=True)
