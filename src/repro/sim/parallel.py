"""Sharded parallel-DES engine: conservative-lookahead rank partitioning.

One Python process retiring every event caps the rank counts the
framework can characterize.  This module splits a run across *shards*:
each shard is a worker process owning a set of ranks (contiguous blocks
of rank order unless the caller supplies a partition) with its own
:class:`~repro.sim.engine.Engine` and
:class:`~repro.netsim.fabric.Fabric`; cross-shard NIC effects travel as
explicit :class:`~repro.netsim.channel.ChannelMsg` records through the
coordinator (the ``ShardLink`` boundary replacing direct NIC-to-NIC
delivery).

Synchronization is conservative.  Let ``LA = lookahead(params)`` -- the
minimum wire delay any channel message can have between its generation
and its effect (per-message overhead plus jitter-reduced latency, or the
RDMA-read request latency, whichever is smaller).  If every shard has
executed up to ``T`` and the earliest pending event anywhere is
``T_min``, then no message generated from here on can take effect before
``T_min + LA`` -- so every shard may safely run to that *fence*.  One
protocol exposes this bound: global barrier rounds.  Each round computes
``T_min`` over all shards (and in-flight messages), grants every shard a
window ``[now, fence)``, collects generated messages, repeats.  Because
``T_min`` is the true next event time, idle gaps are skipped in one hop
(time windows never creep through empty regions); why there is no
asynchronous variant is measured in ``docs/performance.md``, "Why there
is one fence protocol".

One message class undercuts ``LA``: an RDMA-write placement ACK takes
effect only ``wire_time(nbytes)`` after the placement event that emits
it.  Every cross-shard ``PLACE`` therefore registers an *obligation* with
horizon ``place_when + wire_time(nbytes)`` -- a lower bound on the ACK's
effect time known when the write is posted -- and the writer's shard
fence never passes an outstanding horizon.  The obligation retires when
the ACK routes back (fault degradation/stalls only push arrivals later;
factors are validated >= 1).

Determinism: a sharded run is bit-identical to a single-process run with
``delivery="channel"`` on the same seed -- same event times, same report
bytes -- because (a) all cross-rank interaction flows through channel
messages whose ``(when, key)`` is a pure per-link function, (b) channel
keys sort below every engine-allocated key at equal times, (c)
same-time app-band events on different ranks touch disjoint state, and
(d) a shard's ranks are built and started by the same
:class:`~repro.runtime.launcher.RankSet` the single-process launcher
uses.  The differential harness
(:func:`repro.netsim.differential.run_sharded_pair`) is the referee.

Not supported with ``shards``: telemetry, metrics registries, watchdogs
(all assume one engine) and the ARMCI runtime (shared region directory).
"""

from __future__ import annotations

import array
import dataclasses
import heapq
import math
import multiprocessing
import os
import random
import socket
import sys
import threading
import time
import traceback
import typing

from repro.faults.transport import TransportFaultInjected
from repro.mpisim.config import MpiConfig
from repro.netsim import channel as _ch
from repro.netsim import transport as _tp
from repro.netsim import wire as _wire
from repro.netsim.fabric import Fabric
from repro.netsim.params import NetworkParams
from repro.runtime.launcher import (RankSet, RunResult, default_xfer_table,
                                    shards_refusal)
from repro.sim.engine import Engine

_INF = float("inf")


class ShardError(RuntimeError):
    """Sharded-run failure: worker crash, protocol violation, or stall."""


class ShardHostLost(ShardError):
    """An out-of-process shard worker died or went silent mid-run.

    Raised by the coordinator within ``host_timeout`` of the last frame
    from the lost worker (heartbeats count as frames) -- a forked local
    worker and a remote socket worker alike -- so the run terminates
    cleanly inside the configured deadline instead of hanging the fence.
    :func:`run_app_sharded` attaches ``diagnostic`` (a
    :class:`ShardLossDiagnostic` snapshot) and ``partial`` (a progress
    dict usable as a partial report) before the exception escapes.
    """

    def __init__(self, message: str, reason: str = "", shard: int = -1,
                 host: str = "") -> None:
        super().__init__(message)
        #: ``"connection-lost"`` (EOF/reset) or ``"heartbeat-timeout"``
        #: (silence past ``host_timeout``).
        self.reason = reason
        self.shard = shard
        self.host = host
        self.diagnostic: "ShardLossDiagnostic | None" = None
        self.partial: "dict | None" = None


@dataclasses.dataclass
class ShardLossDiagnostic:
    """Watchdog-style snapshot of coordinator state at host loss.

    The sharded sibling of :class:`repro.faults.WatchdogDiagnostic`:
    where that one freezes a wedged single engine, this freezes the
    coordinator's view of every shard -- who was lost and why, how far
    simulated time got, and per-shard progress/liveness counters -- so a
    lost host in a long multi-host run leaves evidence instead of a
    stack trace ending at a socket read.
    """

    reason: str
    shard: int
    host: str
    detail: str
    sim_time: float
    rounds: int
    messages: int
    outstanding_obligations: int
    #: Per-shard dicts: shard, host, next_event, fence, events, busy_s,
    #: heartbeats, frames_in, frames_out, lost.
    shards: list

    def partial_report(self) -> dict:
        """Progress facts salvaged from the run, JSON-ready."""
        return {
            "reason": self.reason,
            "lost_shard": self.shard,
            "lost_host": self.host,
            "sim_time": self.sim_time,
            "rounds": self.rounds,
            "messages": self.messages,
            "events": sum(s["events"] for s in self.shards),
            "shards": [dict(s) for s in self.shards],
        }

    def render_text(self) -> str:
        """Human-readable snapshot, one line per shard."""
        lines = [
            f"shard-loss: run stopped ({self.reason}) "
            f"at t={self.sim_time:.9f}",
            f"  lost shard {self.shard} on {self.host}: {self.detail}",
            f"  progress: {self.rounds} sync round(s), "
            f"{self.messages} cross-shard message(s), "
            f"{self.outstanding_obligations} obligation(s) outstanding",
        ]
        for s in self.shards:
            mark = "LOST" if s["lost"] else "ok"
            lines.append(
                f"  shard {s['shard']:>3} [{mark:>4}] host={s['host']} "
                f"next_event={s['next_event']:.9f} fence={s['fence']:.9f} "
                f"events={s['events']} hb={s['heartbeats']}"
            )
        return "\n".join(lines)


# -- partitioning ----------------------------------------------------------

def partition_ranks(nprocs: int, shards: int) -> list[list[int]]:
    """Split ``range(nprocs)`` into at most ``shards`` contiguous blocks.

    Near-equal blocks of rank order (sizes differ by at most one) -- the
    right cut for stencils and the NAS kernels, whose heaviest traffic is
    nearest-neighbor in rank order.  More shards than ranks collapses to
    one rank per shard.  Any other cut is an explicit ``partition=`` to
    :func:`run_app_sharded`.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    if shards < 1:
        raise ValueError("need at least one shard")
    shards = min(shards, nprocs)
    base, extra = divmod(nprocs, shards)
    out: list[list[int]] = []
    start = 0
    for s in range(shards):
        n = base + (1 if s < extra else 0)
        out.append(list(range(start, start + n)))
        start += n
    return out


def _validate_partition(partition: list[list[int]], nprocs: int,
                        shards: int) -> None:
    if len(partition) != shards:
        raise ValueError(
            f"partition has {len(partition)} shard(s) but shards={shards}")
    seen: set[int] = set()
    for ranks in partition:
        if not ranks:
            raise ValueError("empty shard in partition")
        for r in ranks:
            if not 0 <= r < nprocs or r in seen:
                raise ValueError(f"rank {r} missing, duplicated, or out of range")
            seen.add(r)
    if len(seen) != nprocs:
        raise ValueError("partition does not cover every rank")


# -- worker ----------------------------------------------------------------

@dataclasses.dataclass
class _ShardTask:
    """Everything one worker needs to build its slice of the job."""

    shard_id: int
    ranks: list[int]
    shard_of: list[int]
    app: typing.Callable
    nprocs: int
    config: "MpiConfig"
    params: NetworkParams
    xfer_table: object
    label: str
    app_args: tuple
    seed: int
    record_transfers: bool
    #: Optional :meth:`repro.tracing.Tracer.child_wire` dict: the worker
    #: adopts it so its spans join the coordinator's trace.
    trace_wire: "dict | None" = None


class _AdvanceReply(typing.NamedTuple):
    """One shard's answer to an ``advance`` grant."""

    next_event: float
    msgs: list
    events: int
    busy: float
    #: Time of this shard's last dispatched event so far (finalize anchor).
    tail: float


class _ShardResult(typing.NamedTuple):
    """Final per-shard payload after global termination."""

    shard_id: int
    ranks: list
    reports: dict
    returns: dict
    finish_times: dict
    compute_logs: dict
    transfer_log: "list | None"
    bytes_on_wire: float
    events: int
    busy: float
    msgs_across: int
    #: Span payload of the worker's tracer (None when tracing was off).
    trace: "dict | None" = None
    #: Largest pending-event population this shard's engine ever held.
    heap_high_water: int = 0


class ShardWorker:
    """One shard: engine + fabric + the rank stacks it owns.

    Driven by a coordinator through :meth:`advance` grants; never runs
    past a fence it was not granted.  Usable in-process (``backend=
    "inline"``) or behind :func:`serve_session` in another process.
    """

    def __init__(self, task: _ShardTask) -> None:
        self.task = task
        self.tracer = None
        self._ch_advance = self._ch_inject = None
        if task.trace_wire is not None:
            from repro.tracing.span import Tracer

            self.tracer = Tracer.adopt(task.trace_wire)
            self._ch_advance = self.tracer.channel("advance", "shard.advance")
            self._ch_inject = self.tracer.channel("inject", "shard.inject")
        self.engine = engine = Engine()
        if self.tracer is not None:
            engine.attach_tracer(self.tracer)
        self.fabric = fabric = Fabric(
            engine, task.params, task.nprocs, task.config.nics_per_node,
            seed=task.seed, record_transfers=task.record_transfers,
            owned_nodes=task.ranks, shard_of=task.shard_of,
            shard_id=task.shard_id,
        )
        self.busy = 0.0
        self.tail = 0.0
        self.ranks = RankSet(
            engine, fabric, task.ranks, task.nprocs, task.config,
            task.xfer_table, task.app, task.app_args,
        )

    def next_event(self) -> float:
        """Earliest *live* pending event time (``inf`` when drained)."""
        return self.engine.live_peek()

    def advance(self, fence: float, msgs: list) -> _AdvanceReply:
        """Inject ``msgs``, run strictly below ``fence``, report back."""
        t0 = time.process_time()
        engine = self.engine
        fabric = self.fabric
        tracer = self.tracer
        if msgs:
            sp_t0 = tracer.now() if tracer is not None else 0.0
            for msg in msgs:
                if msg.when < engine.now:  # pragma: no cover - invariant guard
                    raise ShardError(
                        f"conservative fence violated: message at "
                        f"t={msg.when} delivered behind the shard clock "
                        f"t={engine.now}"
                    )
                fabric.channel_inject(msg)
            if tracer is not None:
                ch = self._ch_inject
                ch.append(sp_t0)
                ch.append(tracer.now())
        until = math.nextafter(fence, -_INF)
        if until > engine.now:
            before = engine.processed_count
            sp_t0 = tracer.now() if tracer is not None else 0.0
            engine.run(until=until)
            if tracer is not None:
                ch = self._ch_advance
                ch.append(sp_t0)
                ch.append(tracer.now())
            if engine.processed_count > before:
                self.tail = engine.dispatch_tail
        self.busy += time.process_time() - t0
        return _AdvanceReply(
            next_event=self.next_event(),
            msgs=fabric.router.drain(),
            events=engine.processed_count,
            busy=self.busy,
            tail=self.tail,
        )

    def finish(self, final_time: float) -> _ShardResult:
        """Finalize monitors into reports; detect ranks that never ended.

        ``final_time`` is the global last-event time: a drain run's clock
        stops there, so monitors must read it at finalize for sharded
        reports to be bit-identical (each worker's own clock sits at its
        last fence, past its last event).
        """
        task = self.task
        ranks = self.ranks
        ranks.raise_if_stuck()
        self.engine.now = final_time
        router = self.fabric.router
        return _ShardResult(
            shard_id=task.shard_id,
            ranks=list(task.ranks),
            reports=ranks.finalize(task.label),
            returns=ranks.returns,
            finish_times=ranks.finish_times,
            compute_logs={r: ctx.compute_log
                          for r, ctx in ranks.contexts.items()},
            transfer_log=self.fabric.transfer_log,
            bytes_on_wire=self.fabric.total_bytes_on_wire(),
            events=self.engine.processed_count,
            busy=self.busy,
            msgs_across=getattr(router, "sent_across", 0),
            trace=(self.tracer.to_payload()
                   if self.tracer is not None else None),
            heap_high_water=self.engine.heap_high_water,
        )


# -- worker session --------------------------------------------------------

#: How long a fresh session may take to complete the handshake and (for
#: a dialled worker) receive its task before it is abandoned.
_SETUP_TIMEOUT = 60.0


def _heartbeat_loop(stream: _tp.FrameStream, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            stream.send(("hb",))
        except Exception:
            return


def serve_session(sock: socket.socket, fault_plan=None,
                  task: "_ShardTask | None" = None) -> None:
    """Worker side of one shard session: handshake, task, command loop.

    The only way a coordinator drives an out-of-process shard.  A forked
    worker (``backend="process"``) runs it on one end of a socketpair
    with the ``task`` it inherited (apps need not pickle); a
    :mod:`repro.sim.remote` worker (``backend="socket"``) runs it on an
    accepted TCP connection and receives the task as the first frame.

    The heartbeat thread starts *before* the shard is built -- liveness
    frames flow while rank stacks are constructed and while the engine
    runs long windows, so the coordinator's ``host_timeout`` measures
    actual silence, not honest work.  ``fault_plan`` (a
    :class:`repro.faults.TransportFaultPlan`) arms deterministic
    transport faults on the session's sends.
    """
    # The command loop below blocks in recv() with no deadline (a slow
    # coordinator is healthy); keepalive probes reap the session if the
    # coordinator host vanishes without a TCP reset, instead of leaking
    # this thread, the built rank stack, and the heartbeat thread.
    _tp.enable_keepalive(sock)
    injector = fault_plan.injector() if fault_plan is not None else None
    stream = _tp.FrameStream(sock, injector=injector)
    hb_stop = threading.Event()
    try:
        meta = _tp.server_handshake(
            stream,
            {"protocol": _tp.PROTOCOL_VERSION, "pid": os.getpid(),
             "python": sys.version.split()[0]},
            timeout=_SETUP_TIMEOUT,
        )
        if task is None:
            cmd = stream.recv(timeout=_SETUP_TIMEOUT)
            if cmd[0] != "task":
                raise _tp.TransportError(
                    f"protocol error: expected 'task', got {cmd[0]!r}")
            task = cmd[1]
        threading.Thread(
            target=_heartbeat_loop,
            args=(stream, float(meta.get("heartbeat_interval", 0.5)),
                  hb_stop),
            daemon=True,
        ).start()
        worker = ShardWorker(task)
        stream.send(("ready", worker.next_event()))
        while True:
            cmd = stream.recv()
            op = cmd[0]
            if op == "advance":
                reply = worker.advance(cmd[1], _wire.unpack_frame(cmd[2]))
                stream.send(("reply", reply._replace(
                    msgs=_wire.pack_frame(reply.msgs))))
            elif op == "finish":
                stream.send(("result", worker.finish(cmd[1])))
                return
            else:  # "abort"
                return
    except (_tp.ConnectionLost, TransportFaultInjected, _tp.HandshakeError):
        # The coordinator went away, rejected us, or we simulated dying:
        # from this side there is nobody left to report to.
        pass
    except BaseException:
        try:
            stream.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        hb_stop.set()
        stream.close()


def _forked_session(sock: socket.socket, peer: socket.socket,
                    task: _ShardTask) -> None:
    """Entry point of a ``backend="process"`` worker process."""
    # The coordinator's end came along in the fork; holding it open
    # would mask the EOF this session relies on to notice the
    # coordinator dying.
    peer.close()
    serve_session(sock, task=task)


# -- handles ---------------------------------------------------------------

class _InlineHandle:
    """Shard driven in the coordinator's own process (tests, debugging).

    Message lists pass by reference -- no codec, no transport -- which
    makes this backend the referee the out-of-process differentials
    compare against.
    """

    def __init__(self, task: _ShardTask) -> None:
        self.worker = ShardWorker(task)
        self._reply: _AdvanceReply | None = None

    def begin(self) -> float:
        return self.worker.next_event()

    def advance_async(self, fence: float, msgs: list) -> None:
        self._reply = self.worker.advance(fence, msgs)

    def collect(self) -> _AdvanceReply:
        reply = self._reply
        assert reply is not None
        self._reply = None
        return reply

    def finish(self, final_time: float) -> _ShardResult:
        return self.worker.finish(final_time)

    def close(self) -> None:
        pass


class _SessionHandle:
    """Shard in another process, driven over one framed session.

    The peer runs :func:`serve_session` -- in a child forked here over
    a socketpair, or on a ``repro.sim.remote`` worker over TCP
    (:meth:`open` does either).  Everything after the connected socket
    is obtained is shared: the versioned handshake, the columnar
    advance/reply frames, and liveness.

    Every wait is bounded by ``options.host_timeout`` measured from the
    *last frame of any kind* -- the worker's heartbeat thread keeps that
    clock moving while the shard computes, so a long engine window does
    not read as death, but a wedged or vanished worker does, within the
    deadline.  EOF maps to an immediate :class:`ShardHostLost`
    ("connection-lost"); silence maps to one with "heartbeat-timeout".
    """

    def __init__(self, task: _ShardTask, sock: socket.socket, where: str,
                 options: _tp.TransportOptions,
                 proc: "multiprocessing.process.BaseProcess | None" = None,
                 connect_attempts: int = 1) -> None:
        self.shard_id = task.shard_id
        self.where = where
        self.options = options
        self.proc = proc
        self.connect_attempts = connect_attempts
        self.heartbeats = 0
        #: Columnar payload bytes (both directions) -- the simulation's
        #: own traffic, vs the stream's total byte counters.
        self.payload_bytes = 0
        self.events = 0
        self.busy = 0.0
        #: Set once this handle has declared its shard lost.
        self.lost = False
        self.stream = _tp.FrameStream(sock)
        try:
            _tp.client_handshake(
                self.stream,
                {
                    "shard": task.shard_id,
                    "label": task.label,
                    "nprocs": task.nprocs,
                    "ranks": list(task.ranks),
                    "heartbeat_interval": options.heartbeat_interval,
                },
                options.handshake_timeout,
            )
            if proc is None:  # a forked child inherited its task
                self._send(("task", task))
        except BaseException:
            # A half-built handle never reaches the caller's cleanup.
            self.lost = True
            self.close()
            raise

    @classmethod
    def open(cls, task: _ShardTask, target: "tuple[str, int] | None",
             options: _tp.TransportOptions) -> "_SessionHandle":
        """Start ``task``'s session: dial the ``(host, port)`` of a
        running ``repro.sim.remote`` worker, or (``None``) fork a local
        worker process."""
        if target is None:
            methods = multiprocessing.get_all_start_methods()
            # Fork where available (no pickling of app/config), else spawn.
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            sock, child = socket.socketpair()
            proc = ctx.Process(target=_forked_session,
                               args=(child, sock, task), daemon=True)
            proc.start()
            child.close()
            return cls(task, sock, f"local:{proc.pid}", options, proc=proc)
        host, port = target
        # Seeded jitter: the retry schedule is reproducible per
        # (run seed, shard), like every other RNG stream in repro.faults.
        rng = random.Random((task.seed << 8) ^ (task.shard_id + 1))
        sock, attempts = _tp.connect_with_retry(host, port, options, rng)
        return cls(task, sock, f"{host}:{port}", options,
                   connect_attempts=attempts)

    def _lost(self, reason: str, detail: str) -> ShardHostLost:
        self.lost = True
        return ShardHostLost(
            f"shard {self.shard_id} worker {self.where} lost ({reason}): "
            f"{detail}",
            reason=reason, shard=self.shard_id, host=self.where,
        )

    def _send(self, msg) -> None:
        try:
            self.stream.send(msg)
        except _tp.ConnectionLost as exc:
            raise self._lost("connection-lost", str(exc)) from exc

    def _poll(self, tag: str,
              timeout: float = 0.0) -> "tuple[bool, typing.Any]":
        """Consume the frames that arrive within ``timeout`` (0: already
        have).

        ``(True, payload)`` once a ``tag`` frame is in, ``(False, None)``
        when the socket runs dry first -- a readable socket may hold
        only heartbeats or half a reply.
        """
        stream = self.stream
        try:
            if timeout:
                stream.wait(timeout)
            while True:
                ok, msg = stream.try_recv()
                if not ok:
                    return False, None
                op = msg[0]
                if op == "hb":
                    self.heartbeats += 1
                elif op == "error":
                    raise ShardError(f"shard worker failed:\n{msg[1]}")
                elif op != tag:
                    raise ShardError(
                        f"protocol error: expected {tag!r}, got {op!r}")
                else:
                    return True, msg[1]
        except _tp.ConnectionLost as exc:
            raise self._lost("connection-lost", str(exc)) from exc

    def _expect(self, tag: str):
        # Drain before judging liveness: heartbeats queue up unread while
        # the coordinator waits on *another* shard, and must not read as
        # silence here.
        ok, payload = self._poll(tag)
        while not ok:
            self.check_alive()
            ok, payload = self._poll(tag, self.options.heartbeat_interval)
        return payload

    def check_alive(self) -> None:
        silent = time.monotonic() - self.stream.last_recv
        if silent > self.options.host_timeout:
            raise self._lost(
                "heartbeat-timeout",
                f"no frame for {silent:.1f}s "
                f"(host_timeout={self.options.host_timeout:.1f}s)")

    def begin(self) -> float:
        return self._expect("ready")

    def advance_async(self, fence: float, msgs: list) -> None:
        frame = _wire.pack_frame(msgs)
        self.payload_bytes += _wire.frame_nbytes(frame)
        self._send(("advance", fence, frame))

    def collect(self) -> _AdvanceReply:
        reply = self._expect("reply")
        self.payload_bytes += _wire.frame_nbytes(reply.msgs)
        self.events = reply.events
        self.busy = reply.busy
        return reply._replace(msgs=_wire.unpack_frame(reply.msgs))

    def finish(self, final_time: float) -> _ShardResult:
        self._send(("finish", final_time))
        return self._expect("result")

    def transport_stats(self) -> dict:
        stream = self.stream
        return {
            "host": self.where,
            "connect_attempts": self.connect_attempts,
            "heartbeats": self.heartbeats,
            "frames_out": stream.frames_out,
            "frames_in": stream.frames_in,
            "bytes_out": stream.bytes_out,
            "bytes_in": stream.bytes_in,
            "payload_bytes": self.payload_bytes,
        }

    def close(self) -> None:
        if not self.lost:
            try:
                self.stream.send(("abort",))
            except Exception:
                pass
        self.stream.close()
        proc = self.proc
        if proc is None:
            return
        if not self.lost:
            proc.join(timeout=5)
        if proc.is_alive():
            # SIGKILL, not terminate(): a stopped child never sees
            # SIGTERM, and a lost one has no grace period coming.
            proc.kill()
        proc.join()


# -- coordinator -----------------------------------------------------------

class _Coordinator:
    """Conservative-fence bookkeeping of the barrier-round protocol.

    Every per-round quantity is maintained *incrementally* so one
    synchronization round costs O(shards), never O(shards²) and never a
    rescan of boxed messages or outstanding obligations:

    * the three per-shard bound vectors -- next pending event time,
      earliest undelivered inbox message, earliest outstanding
      placement-ACK horizon -- live side by side in ``_bounds``, one
      contiguous double array of length ``3 * shards`` (layout
      ``[next_event | inbox_min | ob_floor]``), updated in O(1) by
      :meth:`route` / :meth:`absorb` / :meth:`grant`;
    * the obligation floor is lowered in O(1) when a placement registers
      and refreshed from a per-creditor lazy-deletion min-heap only when
      an ACK retires (each obligation is pushed and popped exactly once
      over its lifetime, so the amortized cost is O(log m) -- not the
      O(shards * m) full scan the per-shard fence cap used to pay).

    The contiguous layout is load-bearing, not a style choice: a fence
    recompute runs once per round, right after a context switch or a
    burst of engine work evicted the coordinator from cache, so its cost
    is dominated by how many distinct objects it touches.  Reading a few
    cache lines of raw doubles keeps the cold call close to the hot one;
    lists of boxed floats measured ~3x slower in exactly this position.
    """

    def __init__(self, handles: list, shard_of: list[int],
                 params: NetworkParams, la: float) -> None:
        self.handles = handles
        self.shard_of = shard_of
        self.params = params
        self.la = la
        n = len(handles)
        self.nshards = n
        #: Bound vectors, contiguous: ``[0:n)`` next pending event per
        #: shard, ``[n:2n)`` earliest undelivered inbox message (inf when
        #: empty), ``[2n:3n)`` earliest outstanding obligation horizon
        #: (inf when none).
        self._bounds = array.array(
            "d", [h.begin() for h in handles] + [_INF] * (2 * n)
        )
        self.inbox: list[list] = [[] for _ in range(n)]
        self.fences = [0.0] * n
        #: Outstanding placement-ACK obligations:
        #: (writer_node, writer_port, token) -> (creditor_shard, horizon).
        self.obligations: dict[tuple, tuple[int, float]] = {}
        #: Per-creditor (horizon, key) min-heaps over ``obligations``,
        #: lazily pruned: retired entries stay until they surface at the
        #: head (tokens are never reused, so key membership in
        #: ``obligations`` is the liveness test).
        self._ob_heaps: list[list[tuple[float, tuple]]] = [
            [] for _ in range(n)
        ]
        self.rounds = 0
        self.messages = 0
        #: Global last-event time seen so far (the finalize anchor).
        self.tail = 0.0

    @property
    def next_event(self) -> "array.array":
        """Per-shard next pending event times (a live ``_bounds`` slice)."""
        return self._bounds[:self.nshards]

    def route(self, msg) -> None:
        self.messages += 1
        shard = self.shard_of[msg.dst_node]
        self.inbox[shard].append(msg)
        bounds = self._bounds
        n = self.nshards
        if msg.when < bounds[n + shard]:
            bounds[n + shard] = msg.when
        kind = msg.kind
        if kind == _ch.PLACE:
            key = (msg.src_node, msg.src_port, msg.extra[1])
            horizon = msg.when + self.params.wire_time(msg.nbytes)
            creditor = self.shard_of[msg.src_node]
            self.obligations[key] = (creditor, horizon)
            heapq.heappush(self._ob_heaps[creditor], (horizon, key))
            if horizon < bounds[2 * n + creditor]:
                bounds[2 * n + creditor] = horizon
        elif kind == _ch.ACK:
            key = (msg.dst_node, msg.dst_port, msg.extra)
            entry = self.obligations.pop(key, None)
            if entry is None:
                raise ShardError(f"unmatched placement ACK {key!r}")
            self._refresh_ob_floor(entry[0])

    def _refresh_ob_floor(self, shard: int) -> None:
        """Recompute the obligation floor after an obligation retired.

        Lazy deletion: heap entries whose key was ACKed are discarded as
        they surface.  Each obligation is pushed and popped exactly once
        over its lifetime, so the amortized cost is O(log m).
        """
        heap = self._ob_heaps[shard]
        alive = self.obligations
        floor = _INF
        while heap:
            horizon, key = heap[0]
            if key in alive:
                floor = horizon
                break
            heapq.heappop(heap)
        self._bounds[2 * self.nshards + shard] = floor

    def horizon_min(self) -> float:
        """Global floor: no shard may pass this until work drains.

        O(shards) over the maintained bound array -- the next-event and
        inbox-minimum halves are exactly the candidates the old
        every-boxed-message rescan produced.
        """
        return min(self._bounds[:2 * self.nshards])

    def fences_now(self) -> list[float]:
        """Per-shard CMB fences from the current conservative bounds.

        Static bound ``s[j]``: the earliest *known* work for shard ``j``
        -- its next pending event, undelivered inbox messages, and
        in-flight placement-ACK horizons (the one message class whose
        effect time is not yet in any queue).  A shard with ``s[j] = inf``
        is not done, though: its ranks may be blocked in a receive, to be
        woken by a message another shard has yet to generate.  Following
        those chains gives the fixpoint

            b[j] = min(s[j], min_{k != j} b[k] + LA)

        which closes to ``min(s[j], (min_{k != j} s[k]) + LA)`` because
        every extra hop only adds lookahead.  The fence for shard ``i`` is
        then ``min_{j != i} b[j] + LA`` -- a lagging shard holds everyone
        else to its own bound plus one hop, so released backlogs can never
        generate effects behind a receiver's fence -- capped by ``i``'s
        own outstanding ACK horizons (an in-flight ACK may take effect as
        little as ``wire_time`` after its placement, undercutting the
        lookahead).

        Each "min over everyone else" is answered from the two smallest
        values of the underlying vector (the min over ``k != j`` is the
        global minimum unless ``j`` holds it, in which case it is the
        runner-up), so one call is a constant number of O(shards) passes
        -- identical floats to the nested-scan formulation in
        ``tests/oracles.py``, which the tests compare against at every call.
        """
        n = self.nshards
        n2 = 2 * n
        la = self.la
        bounds = self._bounds
        # Pass 1: per-shard static bound s[j] from the maintained bound
        # array, tracking the two smallest s on the way.
        s = [0.0] * n
        s1 = s2 = _INF
        i1 = -1
        for j in range(n):
            v = bounds[j]
            x = bounds[n + j]
            if x < v:
                v = x
            x = bounds[n2 + j]
            if x < v:
                v = x
            s[j] = v
            if v < s1:
                s2 = s1
                s1 = v
                i1 = j
            elif v < s2:
                s2 = v
        # Pass 2: close the fixpoint, tracking the two smallest b.
        b1 = b2 = _INF
        bi1 = -1
        b = s  # overwritten in place; s[j] is read before b[j] is stored
        for j in range(n):
            o = (s2 if j == i1 else s1) + la
            v = s[j]
            if o < v:
                v = o
            b[j] = v
            if v < b1:
                b2 = b1
                b1 = v
                bi1 = j
            elif v < b2:
                b2 = v
        # Pass 3: everyone-else bound plus lookahead, capped by own
        # outstanding obligation horizons.
        return [
            min((b2 if i == bi1 else b1) + la, bounds[n2 + i])
            for i in range(n)
        ]

    def absorb(self, shard: int, reply: _AdvanceReply) -> None:
        self._bounds[shard] = reply.next_event
        if reply.tail > self.tail:
            self.tail = reply.tail
        for msg in reply.msgs:
            self.route(msg)

    def grant(self, shard: int, fence: float) -> None:
        msgs = self.inbox[shard]
        self.inbox[shard] = []
        # Keep the conservative bound valid while the shard is busy: its
        # earliest activity is no earlier than its known next event or
        # anything just delivered to it (the maintained inbox minimum --
        # no per-message rescan of the delivered batch).
        bounds = self._bounds
        im = self.nshards + shard
        if bounds[im] < bounds[shard]:
            bounds[shard] = bounds[im]
        bounds[im] = _INF
        self.fences[shard] = fence
        self.handles[shard].advance_async(fence, msgs)

    def done(self) -> bool:
        return (
            self.horizon_min() == _INF and not self.obligations
        )


def _coordinate(co: _Coordinator, tracer=None) -> None:
    """Global barrier rounds: grant every eligible shard, collect all.

    With a ``tracer``, each round records three spans: ``coord.fence``
    (the O(shards) bound recomputation), ``coord.dispatch`` (issuing
    grants -- with the inline backend this *is* shard execution, so the
    explain CLI treats it like wait time), and ``coord.wait`` (blocking
    on shard replies).
    """
    n = len(co.handles)
    if tracer is not None:
        # One tracer.now() per phase boundary (the end of one phase is
        # the start of the next) feeding preopened float-pair channels:
        # per-round tracing stays allocation-free so the <5% overhead
        # budget holds even at thousands of rounds per second.
        ch_fence = tracer.channel("fences", "coord.fence")
        ch_disp = tracer.channel("dispatch", "coord.dispatch")
        ch_wait = tracer.channel("collect", "coord.wait")
    while not co.done():
        if co.horizon_min() == _INF:
            raise ShardError(
                "sync wedged: obligations outstanding with no pending events"
            )
        ta = tracer.now() if tracer is not None else 0.0
        safe = co.fences_now()
        tb = tracer.now() if tracer is not None else 0.0
        selected = []
        for i in range(n):
            fence = safe[i]
            if co.inbox[i] or fence > co.fences[i]:
                selected.append(i)
                co.grant(i, max(fence, co.fences[i]))
        if not selected:
            raise ShardError("sync stalled: no shard can advance")
        tc = tracer.now() if tracer is not None else 0.0
        for i in selected:
            co.absorb(i, co.handles[i].collect())
        if tracer is not None:
            td = tracer.now()
            ch_fence.append(ta)
            ch_fence.append(tb)
            ch_disp.append(tb)
            ch_disp.append(tc)
            ch_wait.append(tc)
            ch_wait.append(td)
        co.rounds += 1


# -- launcher --------------------------------------------------------------

class ShardedFabricView:
    """What remains of "the fabric" after workers exit: global facts.

    Per-NIC state (port clocks, queues) lived and died in the shard
    workers; sums and the merged ground-truth transfer log survive.
    """

    def __init__(self, params: NetworkParams, num_nodes: int,
                 nics_per_node: int, transfer_log: "list | None",
                 bytes_on_wire: float) -> None:
        self.params = params
        self.num_nodes = num_nodes
        self.nics_per_node = nics_per_node
        #: Merged transfer records, sorted by interval (the per-shard
        #: append orders are not comparable across workers).
        self.transfer_log = transfer_log
        self.injector = None
        self._bytes = bytes_on_wire

    def total_bytes_on_wire(self) -> float:
        return self._bytes

    def nic(self, node: int, port: int = 0):
        raise ShardError(
            "per-NIC state is not available after a sharded run "
            "(it lived in the shard workers)"
        )

    nics_of = nic

    def __repr__(self) -> str:
        return (
            f"<ShardedFabricView {self.num_nodes} nodes x "
            f"{self.nics_per_node} NICs>"
        )


def _diagnose_host_loss(exc: ShardHostLost,
                        co: _Coordinator) -> ShardLossDiagnostic:
    """Freeze the coordinator's view of every shard at the loss point.

    Only :class:`_SessionHandle` shards can be lost, so every handle
    here is one.
    """
    fences = co.fences
    shards = []
    for i, h in enumerate(co.handles):
        stats = h.transport_stats()
        shards.append({
            "shard": i,
            "host": stats["host"],
            "next_event": co._bounds[i],
            "fence": fences[i],
            "events": h.events,
            "busy_s": h.busy,
            "heartbeats": stats["heartbeats"],
            "frames_in": stats["frames_in"],
            "frames_out": stats["frames_out"],
            "lost": i == exc.shard,
        })
    return ShardLossDiagnostic(
        reason=exc.reason or "host-loss",
        shard=exc.shard,
        host=exc.host,
        detail=str(exc),
        sim_time=co.tail,
        rounds=co.rounds,
        messages=co.messages,
        outstanding_obligations=len(co.obligations),
        shards=shards,
    )


def run_app_sharded(
    app: typing.Callable,
    nprocs: int,
    shards: int,
    config: "MpiConfig | None" = None,
    params: "NetworkParams | None" = None,
    xfer_table: object = None,
    label: str = "",
    app_args: tuple = (),
    seed: int = 0,
    record_transfers: bool = False,
    telemetry: object = None,
    metrics: object = None,
    watchdog: object = None,
    backend: str = "process",
    partition: "list[list[int]] | None" = None,
    tracer: "typing.Any | None" = None,
    hosts: "typing.Sequence | None" = None,
    transport: "typing.Any | None" = None,
) -> "RunResult":
    """Run ``app`` on ``nprocs`` ranks split across ``shards`` workers.

    The sharded twin of :func:`repro.runtime.launcher.run_app` (which
    forwards here when called with ``shards=N``).  ``params.delivery`` is
    forced to ``"channel"``; results are bit-identical to a single-process
    channel run of the same seed.  ``backend="inline"`` keeps every shard
    in this process, passing message lists by reference (deterministic,
    fast to spawn, no codec -- the default for tests and the referee the
    other backends are compared against).  ``"process"`` forks one worker
    per shard; ``"socket"`` drives workers started elsewhere with
    ``python -m repro.sim.remote --listen`` (possibly on other hosts),
    ``hosts`` listing their ``"host:port"`` addresses, assigned to shards
    round-robin.  ``partition`` (one rank list per shard, ``shards`` of
    them, covering every rank once) replaces the contiguous
    :func:`partition_ranks` cut.  See the module docstring for the fence
    protocol.

    Both out-of-process backends speak one framed session
    (:func:`serve_session`): each round's cross-shard messages travel as
    one columnar wire frame (:mod:`repro.netsim.wire`), workers emit
    heartbeats, and ``transport`` (a
    :class:`repro.netsim.transport.TransportOptions`) sets the
    heartbeat/host-timeout policy (plus connect retry for ``"socket"``).
    A worker that dies or goes silent -- a SIGKILLed or SIGSTOPped fork
    child as much as a vanished host -- raises :class:`ShardHostLost`
    (with a :class:`ShardLossDiagnostic` and a partial report attached)
    within ``host_timeout`` instead of hanging.

    ``tracer`` (optional :class:`~repro.tracing.Tracer`) records
    coordinator phase spans (fence recompute, dispatch, reply wait,
    finalize) and per-shard ``shard.advance`` / ``shard.inject`` spans;
    shard workers join the trace through their task and their payloads
    are absorbed, so the merged Perfetto timeline shows one pid per
    shard.  Reports stay bit-identical with tracing off.
    """
    if nprocs < 1:
        raise ValueError("need at least one rank")
    refusal = shards_refusal(config, telemetry=telemetry, metrics=metrics,
                             watchdog=watchdog)
    if refusal is not None:
        raise ValueError(refusal)
    if backend not in ("process", "inline", "socket"):
        raise ValueError(
            f"backend must be 'process', 'inline', or 'socket', "
            f"got {backend!r}"
        )
    if backend == "socket" and not hosts:
        raise ValueError(
            "backend='socket' needs hosts=['host:port', ...] of running "
            "repro.sim.remote workers"
        )
    config = config or MpiConfig()
    base = params or NetworkParams()
    params = dataclasses.replace(base, delivery="channel")
    la = _ch.lookahead(params)
    if la <= 0.0:
        raise ValueError(
            "sharded simulation needs positive lookahead: set nonzero "
            "per_message_overhead+latency and rdma_read_request_latency"
        )
    if partition is None:
        partition = partition_ranks(nprocs, shards)
    else:
        # Ascending inside a shard: rank creation order must match the
        # single-process run.
        partition = [sorted(ranks) for ranks in partition]
        _validate_partition(partition, nprocs, shards)
    nshards = len(partition)
    shard_of = [0] * nprocs
    for s, ranks in enumerate(partition):
        for r in ranks:
            shard_of[r] = s
    table = xfer_table or default_xfer_table(params)
    sp_run = (tracer.begin("sharded run", "coord.run", shards=nshards,
                           backend=backend)
              if tracer is not None else None)
    tasks = [
        _ShardTask(
            shard_id=s, ranks=ranks, shard_of=shard_of, app=app,
            nprocs=nprocs, config=config, params=params, xfer_table=table,
            label=label, app_args=app_args, seed=seed,
            record_transfers=record_transfers,
            trace_wire=(tracer.child_wire(f"shard {s}")
                        if tracer is not None else None),
        )
        for s, ranks in enumerate(partition)
    ]

    handles: list = []
    results: list[_ShardResult] = []
    t0 = time.perf_counter()
    try:
        if backend == "inline":
            handles = [_InlineHandle(task) for task in tasks]
        else:
            opts = transport or _tp.TransportOptions()
            # One target per shard: a worker address, or None to fork.
            targets: list = [None]
            if backend == "socket":
                targets = [
                    _tp.parse_hostport(h) if isinstance(h, str)
                    else (str(h[0]), int(h[1]))
                    for h in hosts  # type: ignore[union-attr]
                ]
            for i, task in enumerate(tasks):
                target = targets[i % len(targets)]
                try:
                    handles.append(_SessionHandle.open(task, target, opts))
                except _tp.TransportError as exc:
                    where = "%s:%d" % target if target else "fork"
                    raise ShardError(
                        f"shard {i} worker {where}: {exc}") from exc
        co = _Coordinator(handles, shard_of, params, la)
        try:
            _coordinate(co, tracer)
            sp_fin = (tracer.begin("finalize shards", "coord.finish")
                      if tracer is not None else None)
            results = [h.finish(co.tail) for h in handles]
        except ShardHostLost as exc:
            exc.diagnostic = _diagnose_host_loss(exc, co)
            exc.partial = exc.diagnostic.partial_report()
            raise
        if tracer is not None:
            for res in results:
                tracer.absorb(res.trace)
        if sp_fin is not None:
            sp_fin.end()
    finally:
        for h in handles:
            h.close()
    host_elapsed = time.perf_counter() - t0
    if sp_run is not None:
        sp_run.annotate(rounds=co.rounds, messages=co.messages).end()

    reports: list = [None] * nprocs
    returns: list = [None] * nprocs
    finish_times = [0.0] * nprocs
    compute_logs: list = [[] for _ in range(nprocs)]
    transfer_log: "list | None" = [] if record_transfers else None
    tstats = ([h.transport_stats() for h in handles]
              if backend != "inline" else None)
    shard_stats = []
    for res in results:
        for rank in res.ranks:
            reports[rank] = res.reports[rank]
            returns[rank] = res.returns[rank]
            finish_times[rank] = res.finish_times[rank]
            compute_logs[rank] = res.compute_logs[rank]
        if transfer_log is not None and res.transfer_log is not None:
            transfer_log.extend(res.transfer_log)
        entry = {
            "shard": res.shard_id,
            "ranks": res.ranks,
            "events": res.events,
            "busy_s": res.busy,
            "msgs_across": res.msgs_across,
            "heap_high_water": res.heap_high_water,
        }
        if tstats is not None:
            ts = tstats[res.shard_id]
            for key in ("host", "heartbeats", "frames_out", "frames_in"):
                entry[key] = ts[key]
            # Liveness + framing/pickle cost on top of the simulation's
            # own columnar payload -- the transport's overhead share.
            entry["transport_overhead_bytes"] = (
                ts["bytes_out"] + ts["bytes_in"] - ts["payload_bytes"]
            )
        shard_stats.append(entry)
    if transfer_log is not None:
        transfer_log.sort(key=lambda t: (t.start, t.end, t.src, t.dst,
                                         t.kind, t.nbytes))
    view = ShardedFabricView(
        params, nprocs, config.nics_per_node, transfer_log,
        sum(res.bytes_on_wire for res in results),
    )
    result = RunResult(
        reports=reports,
        returns=returns,
        rank_finish_times=finish_times,
        elapsed=max(finish_times),
        config=config,
        fabric=view,  # type: ignore[arg-type]
    )
    result.compute_logs = compute_logs
    result.shard_stats = shard_stats
    result.sync_stats = {
        "backend": backend,
        "shards": nshards,
        "lookahead": la,
        "rounds": co.rounds,
        "messages": co.messages,
        "host_elapsed_s": host_elapsed,
        "events": sum(res.events for res in results),
        "busy_s": [res.busy for res in results],
    }
    if tstats is not None:
        result.sync_stats["transport"] = {
            "hosts": [t["host"] for t in tstats],
            "connect_attempts": [t["connect_attempts"] for t in tstats],
            **{key: sum(t[key] for t in tstats)
               for key in ("heartbeats", "frames_out", "frames_in",
                           "bytes_out", "bytes_in", "payload_bytes")},
        }
    return result
