"""Library configuration and the Open MPI / MVAPICH2 presets.

The paper evaluates three communication stacks.  The two MPI stacks differ
in protocol choice and thresholds, not in machinery, so a single
:class:`MpiConfig` captures both:

* ``openmpi_like()`` -- Sec. 3.5: eager for short messages; for long
  messages either the default **pipelined RDMA** scheme ("a long message is
  fragmented ... the sender pipelines the remaining fragments" after an
  acknowledgment) or, with ``mpi_leave_pinned`` set, **direct RDMA** with a
  most-recently-used registration cache;
* ``mvapich2_like()`` -- "MVAPICH2 implements put and get routines ...
  Rendezvous transfer is zero-copy, with the sending user's buffer being
  pinned on-the-fly and the receiver doing an RDMA Read on this buffer."
"""

from __future__ import annotations

import dataclasses

from repro.core.measures import DEFAULT_BIN_EDGES
from repro.faults.plan import ResilienceParams

#: Rendezvous protocol selector values.
RNDV_PIPELINED = "pipelined"
RNDV_RGET = "rget"
RNDV_RPUT = "rput"

_VALID_RNDV = (RNDV_PIPELINED, RNDV_RGET, RNDV_RPUT)


@dataclasses.dataclass(frozen=True)
class MpiConfig:
    """Tunable knobs of the simulated MPI library."""

    #: Human-readable identity, recorded in reports.
    name: str = "mpi"
    #: Messages of at most this many bytes go eagerly.
    eager_limit: int = 64 * 1024
    #: Eager wire mechanism: "send" (send channel, Open MPI style) or
    #: "rdma_write" (write into pre-registered receive buffers with a
    #: notification, MVAPICH2 style).
    eager_mode: str = "send"
    #: Long-message protocol: pipelined / rget / rput.
    rndv_mode: str = RNDV_PIPELINED
    #: Fragment size for the pipelined scheme.
    frag_size: int = 128 * 1024
    #: Registration caching (Open MPI's ``mpi_leave_pinned``): buffers stay
    #: pinned and re-registration is free on cache hits.
    leave_pinned: bool = False
    #: Registration-cache entry budget when ``leave_pinned`` is on.
    regcache_entries: int = 128
    #: Rails used to stripe pipelined fragments.
    nics_per_node: int = 1
    #: Whether the library build carries the instrumentation.
    instrument: bool = True
    #: CPU cost of stamping one instrumentation event (Fig. 20 model).
    overhead_per_event: float = 25e-9
    #: Alltoall schedule: "pairwise" (large-message) or "bruck"
    #: (log-round, small-message).
    alltoall_algorithm: str = "pairwise"
    #: Circular event queue capacity.
    queue_capacity: int = 4096
    #: Message-size-range edges for the per-size breakdown.
    bin_edges: tuple[float, ...] = DEFAULT_BIN_EDGES
    #: Ack/retransmission tuning for the reliable send channel.  ``None``
    #: (the default) disables the transport sublayer entirely -- required
    #: for bit-identical fault-free runs, and the right choice whenever
    #: ``NetworkParams.faults`` injects no packet faults.
    resilience: ResilienceParams | None = None

    def __post_init__(self) -> None:
        if self.eager_limit < 0:
            raise ValueError("eager_limit must be non-negative")
        if self.frag_size <= 0:
            raise ValueError("frag_size must be positive")
        if self.rndv_mode not in _VALID_RNDV:
            raise ValueError(
                f"rndv_mode must be one of {_VALID_RNDV}, got {self.rndv_mode!r}"
            )
        if self.eager_mode not in ("send", "rdma_write"):
            raise ValueError(
                f"eager_mode must be 'send' or 'rdma_write', got {self.eager_mode!r}"
            )
        if self.alltoall_algorithm not in ("pairwise", "bruck"):
            raise ValueError(
                "alltoall_algorithm must be 'pairwise' or 'bruck', got "
                f"{self.alltoall_algorithm!r}"
            )
        if self.nics_per_node < 1:
            raise ValueError("nics_per_node must be >= 1")
        if self.overhead_per_event < 0:
            raise ValueError("overhead_per_event must be non-negative")


def openmpi_like(leave_pinned: bool = False, **overrides: object) -> MpiConfig:
    """Open MPI 1.0.1-style configuration.

    ``leave_pinned=False`` selects the default pipelined-RDMA rendezvous;
    ``leave_pinned=True`` selects direct RDMA with registration caching
    (the paper's ``mpi_leave_pinned`` run-time parameter).
    """
    base = dict(
        name="openmpi-leavepinned" if leave_pinned else "openmpi",
        eager_limit=64 * 1024,
        rndv_mode=RNDV_RGET if leave_pinned else RNDV_PIPELINED,
        frag_size=128 * 1024,
        leave_pinned=leave_pinned,
    )
    base.update(overrides)
    return MpiConfig(**base)  # type: ignore[arg-type]


def mvapich2_like(**overrides: object) -> MpiConfig:
    """MVAPICH2 0.6.5-style configuration: RDMA-write eager, zero-copy
    RDMA-read rendezvous with on-the-fly pinning plus registration cache."""
    base = dict(
        name="mvapich2",
        eager_limit=12 * 1024,  # VBUF-based eager threshold of the 0.6.x era
        eager_mode="rdma_write",  # eager goes into pre-registered buffers
        rndv_mode=RNDV_RGET,
        leave_pinned=True,
    )
    base.update(overrides)
    return MpiConfig(**base)  # type: ignore[arg-type]


#: Library names the CLIs and the service accept.
LIBRARY_NAMES = ("openmpi", "mvapich2", "rput")


def library_config(library: str, leave_pinned: bool = False) -> MpiConfig:
    """The preset a front end's ``--library`` / ``"library"`` value names.

    ``leave_pinned`` applies to ``openmpi`` only (its direct-RDMA
    rendezvous); ``rput`` is the bare RDMA-write rendezvous the paper's
    stacks do not use, kept for protocol comparisons.
    """
    if library == "openmpi":
        return openmpi_like(leave_pinned=leave_pinned)
    if library == "mvapich2":
        return mvapich2_like()
    if library == "rput":
        return MpiConfig(name="rput", rndv_mode="rput")
    raise ValueError(
        f"unknown library {library!r}; choose from {list(LIBRARY_NAMES)}")
