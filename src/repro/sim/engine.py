"""The simulation engine: clock + pending-event store + run loop.

The simulated libraries make progress only by polling inside library
calls, so a process waits on one event at a time and is never woken by
anything but that event; a run drains the store or stops at a deadline.
Every pending entry is keyed ``(when, seq)``, a total order that makes
simulations pure functions of their inputs.  A cancelled timeout
(:meth:`repro.sim.events.Timeout.cancel`) is marked dead in O(1); the run
loop discards dead entries when popped, and the store is bulk-compacted
once dead entries dominate, so wait-heavy workloads that abandon guard
timeouts keep a bounded pending population.

The pending store is a binary heap of ``(when, seq, entry)`` tuples, a
few logical entries per rank (``heap_high_water``): one per pending NIC
completion, one per waiting rank.  A clock sync keyed at the previous
sync's instant (lockstep ranks) joins a :class:`_SyncGroup`, one heap
entry retired member by member.  Completions are mostly posted in key
order, so a :meth:`Engine.post_at` completion keyed after the last one
queued goes to the *lane*, a FIFO beside the heap, and the run loop
takes whichever head is smaller: no sift for those, however many are
pending.  Counts (``pending_count``, ``heap_high_water``) stay those of
one heap entry each.  A sync keeps the key it was armed with until its
dispatch disarms it, so the only dead entries are cancelled timeouts.
"""

from __future__ import annotations

import collections
import gc
import heapq
import time
import typing

from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.process import ClockSync, Process

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry

_INF = float("inf")


class _SyncGroup(collections.deque):
    """Pending clock syncs at one instant, scheduled as one store entry.

    Members are ``(seq, ClockSync)`` in key order, each entry carrying its
    member's ``seq``; the store entry is keyed by the oldest.
    """

    callbacks = None  # class-level: run-loop discriminant, never assigned
    __slots__ = ()


class RankClock:
    """One simulated process's CPU clock: how far its own code has run.

    CPU time nobody else can observe (a copy, a descriptor build, user
    computation) advances ``now`` directly, one cost at a time
    (``now = now + dt``: the same floats as advancing the engine cost by
    cost).  The owner catches the engine up with :meth:`Engine.advance_to`
    before it touches shared state and re-bases ``now`` to ``engine.now``
    when it wakes from a sleep, so ``now`` never reads behind the engine.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class ClockOwner:
    """A library endpoint that runs its rank on a :class:`RankClock`
    (mixed in; the endpoint sets ``engine`` and ``clock``)."""

    __slots__ = ()
    engine: "Engine"
    clock: RankClock

    def spend(self, seconds: float) -> None:
        """Charge CPU time no other rank or NIC can observe.  One cost per
        call, in program order, never pre-summed: every timestamp stays the
        float a chain of engine timeouts would have produced."""
        clock = self.clock
        clock.now = clock.now + seconds

    def sync(self) -> "tuple[object, ...]":
        """Catch the engine up with the rank clock: ``yield from ep.sync()``.

        Required immediately before anything shared is touched -- looking
        at ``nic.cq`` / ``nic.inbound``, posting to a NIC, arming a timer.
        Returns what to wait for: nothing when the engine is already there
        or could move inline, else the one entry ``advance_to`` scheduled.
        """
        t = self.engine.advance_to(self.clock.now)
        return () if t is None else (t,)


class Engine:
    """Deterministic discrete-event engine.

    Events posted at equal times are processed in posting order (FIFO tie
    break via a monotonically increasing sequence number), which makes every
    simulation a pure function of its inputs.
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds.
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        #: Cancelled timeouts still awaiting lazy removal from the store.
        self._dead_pending: int = 0
        #: Pending entries not in the heap: grouped syncs beyond one per
        #: queued group, and the lane's.
        self._off_heap: int = 0
        #: ``post_at`` entries posted in key order, and the last one's time.
        self._lane: "collections.deque[tuple]" = collections.deque()
        self._lane_tail: float = -_INF
        #: Instant of the last clock sync, and the group collecting there.
        self._sync_when: float = -_INF
        self._sync_group: "_SyncGroup | None" = None
        #: Number of events processed so far (useful for tests/diagnostics).
        self.processed_count: int = 0
        #: Simulation time when the last deadline-bounded run() stopped
        #: dispatching (before the clamp to the deadline itself).
        self.dispatch_tail: float = 0.0
        #: Largest pending-event population ever reached.
        self.heap_high_water: int = 0
        #: Total timeouts withdrawn via :meth:`Timeout.cancel`.
        self.cancelled_count: int = 0
        #: Key floor for :meth:`advance_to` while a sync group is
        #: mid-retirement: its instant (those members are not in the
        #: store, so the store minimum alone would over-approve inline
        #: advances).
        self._floor: float = _INF
        #: Depth of multi-callback dispatches in progress.  While an event
        #: with several callbacks is being dispatched, :meth:`advance_to` must
        #: not advance time inline -- the remaining callbacks still have to
        #: run at the current instant.
        self._multi_cb: int = 0
        #: The process whose generator is executing (None in engine
        #: context): :meth:`advance_to` arms that process's clock sync.
        self._running: "Process | None" = None
        #: Inline advances may not cross the active ``run(until=...)``
        #: deadline.
        self._until: float = _INF

    def attach_metrics(
        self,
        metrics: "MetricsRegistry",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Register engine health metrics (all sampled: no run-loop cost).

        The sim-time advance rate (simulated seconds per host second) is
        anchored at attach time, so scrape it from the registry that was
        attached before :meth:`run`.
        """
        host_t0 = time.perf_counter()
        metrics.sampled_counter(
            "repro_engine_events_processed", lambda: self.processed_count,
            "Simulation events popped and dispatched", labels)
        metrics.sampled_gauge(
            "repro_engine_heap_size", lambda: self.pending_count,
            "Pending simulation events", labels)
        metrics.sampled_gauge(
            "repro_engine_heap_hiwater", lambda: self.heap_high_water,
            "Largest pending-event population ever reached", labels)
        metrics.sampled_gauge(
            "repro_engine_sim_time_seconds", lambda: self.now,
            "Current simulation clock", labels)
        metrics.sampled_gauge(
            "repro_engine_sim_seconds_per_host_second",
            lambda: self.now / max(time.perf_counter() - host_t0, 1e-9),
            "Simulated-time advance rate since metrics were attached",
            labels)
        metrics.sampled_counter(
            "repro_engine_timeouts_cancelled", lambda: self.cancelled_count,
            "Timeouts withdrawn before firing", labels)

    # -- scheduling -------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of pending entries (grouped syncs, lane entries one each)."""
        return len(self._heap) + self._off_heap

    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Schedule a triggered event for processing ``delay`` from now.

        The push is written out here, in :meth:`post_at` and in
        :meth:`post_keyed` rather than shared: these are the hottest calls
        in the kernel, and the extra frame showed up in profiles.
        """
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (self.now + delay, seq, event))
        if len(heap) + self._off_heap > self.heap_high_water:
            self.heap_high_water = len(heap) + self._off_heap

    def post_at(self, when: float, value: object = None,
                keys: int = 1) -> Event:
        """Schedule a fresh already-triggered event at absolute time ``when``.

        The workhorse of analytically-timed layers (the NIC posts every
        completion here): unlike :meth:`timeout`, the completion time is
        passed absolutely, so the float stored in the schedule is exactly
        ``when`` with no ``now + (when - now)`` round-trip.  Attach
        callbacks to the returned event's ``callbacks`` list.

        ``keys`` > 1 makes the event stand for that many same-instant
        events with adjacent keys -- nothing can sort between those, so one
        dispatch is enough -- and draws all their sequence numbers, so every
        later key is the one individual posts would have given.  An entry
        not keyed before the lane's last queues in the lane; any other is
        pushed.
        """
        if when < self.now:
            raise SimulationError(
                f"post_at({when!r}) is in the past (now={self.now!r})"
            )
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._defused = False
        seq = self._seq
        self._seq = seq + keys
        heap = self._heap
        if when < self._lane_tail:
            heapq.heappush(heap, (when, seq, ev))
        else:
            self._lane.append((when, seq, ev))
            self._lane_tail = when
            self._off_heap += 1
        if len(heap) + self._off_heap > self.heap_high_water:
            self.heap_high_water = len(heap) + self._off_heap
        return ev

    def reserve_low_keys(self, bound: int) -> None:
        """Reserve sequence numbers below ``bound`` for external injection.

        The engine's own allocator jumps to ``bound``, so every internally
        posted event sorts *after* any entry inserted via
        :meth:`post_keyed` with a key below ``bound`` at the same time.
        The channel-delivery fabric uses this to give cross-NIC messages a
        partition-invariant total order (see :mod:`repro.netsim.channel`).
        """
        if self._seq > bound:
            raise SimulationError(
                "reserve_low_keys() must run before any event is posted"
            )
        self._seq = bound

    def post_keyed(self, when: float, key: int, value: object = None) -> Event:
        """Schedule an event at ``when`` with a caller-allocated tie-break.

        Like :meth:`post_at` but the caller supplies the sequence key
        instead of drawing from the engine's counter, so the position of
        the event among equal-time entries is a pure function of ``key`` --
        independent of how many events this engine happened to allocate
        before.  Keys must be unique; reserving a band with
        :meth:`reserve_low_keys` keeps them disjoint from internal ones.
        """
        if when < self.now:
            raise SimulationError(
                f"post_keyed({when!r}) is in the past (now={self.now!r})"
            )
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._defused = False
        heap = self._heap
        heapq.heappush(heap, (when, key, ev))
        if len(heap) + self._off_heap > self.heap_high_water:
            self.heap_high_water = len(heap) + self._off_heap
        return ev

    def _cancel(self, event: Event) -> bool:
        """Withdraw a pending timeout (see :meth:`Timeout.cancel`).

        Marks the event dead by clearing ``callbacks`` -- the run loop
        discards dead entries when popped -- and bulk-compacts the store
        once dead entries are a majority, bounding the pending population
        of cancel-heavy workloads.  Note :attr:`peek` may report the time
        of a dead entry until it is discarded.
        """
        if event.callbacks is None:
            return False  # already fired (or already cancelled)
        event.callbacks = None
        self.cancelled_count += 1
        dead = self._dead_pending = self._dead_pending + 1
        if dead >= 64 and dead * 2 >= self.pending_count:
            self._compact()
        return True

    def _dispatch_multi(self, callbacks: list, event: Event) -> None:
        """Dispatch an event with several callbacks.

        Split out of the run loop (which inlines the one-callback fast
        path) so the ``_multi_cb`` guard -- which keeps :meth:`advance_to`
        from moving time while sibling callbacks still owe work at the
        current instant -- costs nothing on the dominant case.
        """
        self._multi_cb += 1
        try:
            for cb in callbacks:
                cb(event)
        finally:
            self._multi_cb -= 1

    @staticmethod
    def _is_dead(entry: "tuple[float, int, typing.Any]") -> bool:
        """True for a cancelled timeout, whose entry is discarded when
        popped (clock syncs and groups have class-level
        ``callbacks = None`` and are never events)."""
        item = entry[2]
        return item.callbacks is None and isinstance(item, Event)

    def _compact(self) -> None:
        """Physically remove cancelled timeouts from the store."""
        live = [entry for entry in self._heap if not self._is_dead(entry)]
        heapq.heapify(live)
        self._heap[:] = live
        self._dead_pending = 0

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def advance_to(self, when: float) -> "ClockSync | Timeout | None":
        """Bring the engine to absolute time ``when`` for the running process
        (a rank whose :class:`RankClock` ran ahead, about to touch shared
        state)::

            t = engine.advance_to(clock.now)
            if t is not None:
                yield t

        ``when <= now`` is a no-op.  When an event at ``when`` would
        provably be the very next one dispatched (strictly earlier than
        every pending entry, no sibling callbacks of the current dispatch
        outstanding, the run deadline not crossed), ``now`` moves inline
        and ``None`` is returned; one sequence number and one
        processed-count tick are consumed as the elided event would have,
        so ordering, FIFO tie-breaks and event counts do not depend on
        whether the advance was inline.  Otherwise one store entry is
        scheduled at exactly ``when`` (no ``now + (when - now)`` round
        trip) and something to yield is returned: the calling process's
        reusable :class:`~repro.sim.process.ClockSync`, or -- called from
        outside a process, or with that entry still armed -- a
        :class:`Timeout`.  A sync keyed at the previous sync's instant
        joins that instant's :class:`_SyncGroup`.
        """
        now = self.now
        if when <= now:
            return None
        heap, lane = self._heap, self._lane
        # The store's head first: on lockstep ranks it is what says no.
        if (not heap or when < heap[0][0]) and self._multi_cb == 0 \
                and (not lane or when < lane[0][0]) \
                and when < self._floor and when <= self._until:
            self._seq += 1
            self.now = when
            self.processed_count += 1
            return None
        seq = self._seq
        self._seq = seq + 1
        proc = self._running
        entry: "ClockSync | Timeout"
        item: "object | None"
        if proc is not None and (entry := proc._sync).seq < 0:
            entry.seq = seq  # the most frequently scheduled entry of a run
            item = entry
            if when != self._sync_when:
                self._sync_when = when
                self._sync_group = None
            elif group := self._sync_group:
                group.append((seq, entry))
                self._off_heap += 1
                item = None
            else:
                item = self._sync_group = _SyncGroup(((seq, entry),))
        else:
            # Timeout.__init__ inlined.
            entry = Timeout.__new__(Timeout)
            entry.engine = self
            entry.callbacks = []
            entry._ok = True
            entry._value = None
            entry._defused = False
            entry.delay = when - now
            item = entry
        if item is not None:
            heapq.heappush(heap, (when, seq, item))
        if len(heap) + self._off_heap > self.heap_high_water:
            self.heap_high_water = len(heap) + self._off_heap
        return entry

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def process(self, generator: typing.Generator) -> "Process":
        """Spawn a :class:`Process` driving ``generator``."""
        return Process(self, generator)

    # -- run loop ---------------------------------------------------------
    @property
    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none.

        Lazy deletion caveat: a cancelled-but-not-yet-discarded timeout at
        the head makes this report a time at which nothing will fire.
        """
        heap, lane = self._heap, self._lane
        return min(heap[0][0] if heap else _INF, lane[0][0] if lane else _INF)

    def live_peek(self) -> float:
        """Time of the next *live* entry, or ``inf`` when drained.

        Unlike :attr:`peek`, discards cancelled timeouts off the head of
        the store first, so the reported time is one at which something
        will actually fire.
        Sharded workers (:mod:`repro.sim.parallel`) rely on this: a stale
        dead-head time would freeze the conservative fence below the
        shard's own window and stall the whole run.
        """
        heap = self._heap
        while heap and self._is_dead(heap[0]):
            heapq.heappop(heap)
            self._dead_pending -= 1
        return self.peek

    def _retire_group(self, when: float, group: _SyncGroup) -> None:
        """Wake a popped group's members in exact global order.

        Members share the group's instant, so only a store entry at that
        instant with a smaller sequence number comes first; at the first
        one the remainder goes back to the store keyed at its oldest
        member.  Members out of the store count in ``_off_heap`` and hold
        ``_floor`` at the instant, so the last one may still advance inline.
        """
        heap, lane = self._heap, self._lane
        processed = 0
        self._off_heap += 1  # out of the store: every member counts
        self._floor = when
        try:
            while group:
                seq, entry = group[0]
                if heap:
                    head = heap[0]
                    if head[0] <= when and (head[0] < when or head[1] < seq):
                        break
                if lane:
                    head = lane[0]
                    if head[0] <= when and (head[0] < when or head[1] < seq):
                        break
                group.popleft()
                self._off_heap -= 1
                if not group:
                    self._floor = _INF
                entry.seq = -1
                self.now = when
                entry.wake(entry)
                processed += 1
        finally:
            self._floor = _INF
            self.processed_count += processed
            if group:
                heapq.heappush(heap, (when, group[0][0], group))
                self._off_heap -= 1

    def run_guarded(
        self,
        max_sim_time: "float | None" = None,
        stall_sim_time: "float | None" = None,
        check_interval: "float | None" = None,
        progress: "typing.Callable[[], object] | None" = None,
    ) -> "str | None":
        """Run with giving-up guards; never hangs a wedged simulation.

        Steps the clock in ``check_interval`` chunks (default: a quarter of
        the tightest guard) via ``run(until=...)`` and between chunks
        checks two guards:

        * ``max_sim_time`` -- total simulated seconds this call may cover;
        * ``stall_sim_time`` -- give up when the *progress token* stays
          flat for that much simulated time.  ``progress`` supplies the
          token (any comparable value -- e.g. events stamped + packets
          delivered); without it the engine's ``processed_count`` is used,
          which detects dead clocks but not live-locks that churn events
          (retransmission storms), so callers that can should pass a
          token measuring useful work.

        Returns ``None`` when the store drained (normal completion),
        ``"max_sim_time"`` or ``"stalled"`` when a guard fired -- the
        caller decides what to do (dump diagnostics, harvest partial
        reports).  Timestamps of everything dispatched are bit-identical
        to a plain ``run()`` of the same schedule; the only difference is
        that ``now`` lands on the last chunk boundary instead of the final
        event time.
        """
        if max_sim_time is None and stall_sim_time is None:
            raise SimulationError("run_guarded needs max_sim_time or stall_sim_time")
        guards = [g for g in (max_sim_time, stall_sim_time) if g is not None]
        check = check_interval if check_interval is not None else min(guards) / 4.0
        if check <= 0.0:
            raise SimulationError(f"check interval must be positive, got {check!r}")
        deadline = self.now + max_sim_time if max_sim_time is not None else _INF
        token = progress() if progress is not None else self.processed_count
        anchor = self.now
        while True:
            if self.pending_count - self._dead_pending <= 0:
                return None  # drained before the chunk started
            self.run(until=min(self.now + check, deadline))
            if self.pending_count - self._dead_pending <= 0:
                return None
            if self.now >= deadline:
                return "max_sim_time"
            current = progress() if progress is not None else self.processed_count
            if current != token:
                token = current
                anchor = self.now
            elif stall_sim_time is not None and self.now - anchor >= stall_sim_time:
                return "stalled"

    def run(self, until: "float | None" = None) -> None:
        """Run until the store drains or a deadline passes.

        ``until`` may be ``None`` (drain) or a number (absolute simulation
        time; ``now`` ends exactly there).

        The event loop is inlined here rather than calling a per-event
        method: dispatching one event is a handful of operations, so
        per-event call/property overhead dominated the kernel profile.
        Each turn dispatches the smaller of the lane's head and the heap's
        (keys are unique, so that is the global minimum).
        """
        deadline = _INF
        if until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"until={deadline!r} is in the past (now={self.now!r})"
                )

        heap, lane = self._heap, self._lane
        heappop = heapq.heappop
        processed = 0
        # The loop allocates thousands of short-lived events per simulated
        # millisecond; almost all die by refcount, but the process/event
        # back-references form cycles, and generation-0 collections during
        # the loop cost >10% of wall clock.  Suspend cyclic GC for the
        # duration -- acyclic garbage is still freed immediately, and the
        # cyclic remainder is collected at normal thresholds once the run
        # returns.  (Restored in the ``finally`` even if a callback raised;
        # nested/reentrant runs keep it suspended until the outermost one
        # exits.)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # advance_to() must not move time past the deadline.
        prev_until = self._until
        self._until = deadline
        try:
            while True:
                if lane and (not heap or lane[0] < heap[0]):
                    if lane[0][0] > deadline:
                        break
                    when, seq, event = lane.popleft()
                    self._off_heap -= 1
                    callbacks = event.callbacks  # a completion: never dead
                elif heap:
                    if deadline != _INF and heap[0][0] > deadline:
                        break
                    when, seq, event = heappop(heap)
                    callbacks = event.callbacks
                    if callbacks is None:
                        cls = event.__class__
                        if cls is ClockSync:
                            # A rank's clock sync: most of a run's entries.
                            event.seq = -1
                            self.now = when
                            event.wake(event)
                            processed += 1
                        elif cls is _SyncGroup:
                            self._retire_group(when, event)
                        elif self._dead_pending:
                            self._dead_pending -= 1
                        continue
                else:
                    break
                event.callbacks = None
                self.now = when
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    self._dispatch_multi(callbacks, event)
                processed += 1
                if not event._ok and not event._defused:
                    raise typing.cast(BaseException, event._value)
        finally:
            if gc_was_enabled:
                gc.enable()
            self._until = prev_until
            self.processed_count += processed

        if deadline != _INF:
            # Remember where dispatching actually stopped before clamping
            # to the deadline: a window-bounded driver (repro.sim.parallel)
            # needs the true tail to finalize at the same instant a drain
            # run would have.
            self.dispatch_tail = self.now
            self.now = deadline
