"""PERUSE-style event subscription.

The paper's events are "in the spirit of the PERUSE standard" (Sec. 2.1),
which exists "primarily for the purposes of facilitating the development
of performance monitoring": external tools subscribe to library-internal
events.  This module adds that facility to the monitor -- callbacks fire
synchronously as events are stamped, so other performance tools (or
tests) can observe the stream without touching the overlap pipeline.

Subscribers must be cheap: in the real system a slow callback perturbs
the application; here it would only slow the simulation, but the contract
is the same.
"""

from __future__ import annotations

import time
import typing

from repro.core.events import EventKind, TimedEvent

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry


class PeruseSubscription:
    """Handle returned by :meth:`PeruseHub.subscribe`; detachable."""

    __slots__ = ("hub", "kind", "callback", "active")

    def __init__(
        self,
        hub: "PeruseHub",
        kind: EventKind | None,
        callback: typing.Callable[[TimedEvent], None],
    ) -> None:
        self.hub = hub
        self.kind = kind
        self.callback = callback
        self.active = True

    def cancel(self) -> None:
        """Stop receiving events (idempotent)."""
        if self.active:
            self.active = False
            self.hub._remove(self)


class PeruseHub:
    """Dispatches stamped events to subscribers.

    A subscriber attaches to one :class:`EventKind` or to all events
    (``kind=None``).  Dispatch order is subscription order.
    """

    def __init__(self) -> None:
        self._by_kind: dict[int, list[PeruseSubscription]] = {}
        self._all: list[PeruseSubscription] = []
        #: True while any subscription is live.  A plain attribute kept
        #: current by subscribe/cancel: the monitor reads it once per stamp.
        self.has_subscribers = False
        #: Events delivered to at least one subscriber (diagnostics).
        self.dispatched = 0
        self._dispatch_hist = None

    def attach_metrics(
        self,
        metrics: "MetricsRegistry",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Register dispatch count and per-dispatch cost metrics.

        The cost histogram adds two clock reads per *delivered* event,
        which only happens when a subscriber is live -- idle hubs stay on
        the zero-cost path.
        """
        metrics.sampled_counter(
            "repro_peruse_dispatched", lambda: self.dispatched,
            "Events delivered to PERUSE subscribers", labels)
        metrics.sampled_gauge(
            "repro_peruse_subscribers",
            lambda: len(self._all) + sum(len(v) for v in self._by_kind.values()),
            "Live PERUSE subscriptions", labels)
        self._dispatch_hist = metrics.histogram(
            "repro_peruse_dispatch_seconds",
            "Host seconds spent delivering one event to subscribers", labels)

    def subscribe(
        self,
        callback: typing.Callable[[TimedEvent], None],
        kind: EventKind | None = None,
    ) -> PeruseSubscription:
        """Register ``callback`` for events of ``kind`` (or all events)."""
        sub = PeruseSubscription(self, kind, callback)
        if kind is None:
            self._all.append(sub)
        else:
            self._by_kind.setdefault(int(kind), []).append(sub)
        self.has_subscribers = True
        return sub

    def _remove(self, sub: PeruseSubscription) -> None:
        if sub.kind is None:
            self._all.remove(sub)
        else:
            kind = int(sub.kind)
            self._by_kind[kind].remove(sub)
            if not self._by_kind[kind]:
                # An empty bucket would keep the hub looking subscribed.
                del self._by_kind[kind]
        self.has_subscribers = bool(self._all or self._by_kind)

    def dispatch(self, event: TimedEvent) -> None:
        """Deliver one event to every matching subscriber."""
        # This runs once per stamped event while any subscriber is live.
        subs_kind = self._by_kind.get(event.kind, ())
        subs_all = self._all
        if not subs_kind and not subs_all:
            return
        self.dispatched += 1
        hist = self._dispatch_hist
        t0 = time.perf_counter() if hist is not None else 0.0
        for sub in subs_kind:
            sub.callback(event)
        for sub in subs_all:
            sub.callback(event)
        if hist is not None:
            hist.observe(time.perf_counter() - t0)
