"""The pluggable transport abstraction all CLASH traffic flows through.

A :class:`Transport` owns the mapping from endpoint names to message handlers
and knows how to resolve :class:`~repro.net.envelope.DhtAddress` destinations
through the DHT.  The protocol layer
(:class:`~repro.core.protocol.ClashSystem`) never calls a server directly —
it wraps every exchange in an :class:`~repro.net.envelope.Envelope` and hands
it to the transport, which makes latency models, event-driven delivery and
batching a matter of configuration rather than new protocol code paths.

The implementations are declared once, in :data:`repro.net.registry.TRANSPORTS`.
They differ in *ordering*, *clock* and *carrier* only:

* :class:`~repro.net.inline.InlineTransport` — zero-overhead synchronous
  dispatch, preserving the original direct-call semantics bit for bit.
* :class:`~repro.net.batching.BatchingTransport` — coalesces same-destination
  envelopes (and DHT route resolutions) per load-check period;
  :class:`~repro.net.socket_transport.SocketTransport` is the same plane with
  every envelope also framed and shipped to a per-shard worker process.
* :class:`~repro.net.event.EventTransport` and
  :class:`~repro.net.asyncio_transport.AsyncTransport` — the two
  :class:`TimedTransport` kinds: deliveries are priced by a latency model and
  happen on a virtual clock (the simulator's shared engine, or a private
  seeded-shuffle calendar that :class:`~repro.net.replay.ReplayTransport`
  forces onto a recorded tape).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable

from repro.net.envelope import Delivery, DhtAddress, Envelope
from repro.net.latency import LatencyModel, ZeroLatency

__all__ = [
    "DELIVERY_LOG_LIMIT",
    "DeliveryFailed",
    "Handler",
    "RouteResolver",
    "TimedTransport",
    "Transport",
    "TransportError",
]

DELIVERY_LOG_LIMIT = 65536
"""Default ring-buffer capacity of :attr:`Transport.delivery_log`.  Recording
is opt-in and, once enabled, bounded: a paper-scale run with the log left on
keeps the most recent entries instead of accumulating one tuple per delivery
for the whole run."""

Handler = Callable[[Envelope], object]
"""An endpoint's message handler: receives an envelope, returns the reply
payload (or ``None`` for one-way messages)."""

RouteResolver = Callable[[object], object]
"""Resolves an identifier key to a DHT lookup result with ``owner`` and
``hops`` attributes (:class:`~repro.dht.ring.LookupResult`)."""


class TransportError(RuntimeError):
    """Raised when an envelope cannot be delivered (unknown endpoint, no
    resolver for a DHT-addressed destination, ...)."""


class DeliveryFailed(TransportError):
    """A request/reply exchange was cancelled because its destination failed
    while the request was in flight.

    Transports that model time can have a destination endpoint unbind (server
    failure) between scheduling a request and delivering it.  The exchange is
    cancelled — the lost request is counted in
    :attr:`Transport.dropped_messages` — and this typed error is raised so
    protocol-level callers can recover (retry against the re-stabilised DHT,
    skip the merge, re-root the orphaned group) instead of a generic
    :class:`TransportError` aborting the whole run.

    Attributes:
        destination: Name of the endpoint that failed mid-flight.
        envelope: The envelope whose delivery was cancelled.
    """

    def __init__(self, destination: str, envelope: Envelope) -> None:
        super().__init__(
            f"request to {destination!r} cancelled: the endpoint failed while "
            f"the {type(envelope.payload).__name__} exchange was in flight"
        )
        self.destination = destination
        self.envelope = envelope


class Transport(abc.ABC):
    """Carries envelopes between named endpoints.

    Lifecycle: the owner (normally :class:`~repro.core.protocol.ClashSystem`)
    binds one handler per server with :meth:`bind`, installs a DHT resolver
    with :meth:`set_resolver`, and then sends traffic with :meth:`request`
    (synchronous request/reply) and :meth:`post` (one-way, possibly deferred
    until :meth:`flush`).
    """

    #: Whether the protocol layer may elide re-posting a load report whose
    #: content the destination already holds (the report-diff exchange).
    #: Eliding a post is only stream-preserving on transports that neither
    #: price deliveries with a latency model nor draw per-delivery RNG — a
    #: skipped envelope would otherwise shift every later sample/draw.  The
    #: flag is stamped from :class:`~repro.net.registry.TransportSpec` by
    #: :func:`repro.net.build_transport`; directly-constructed transports
    #: keep the conservative class default (full delivery, always safe).
    supports_report_diff = False

    def __init__(self) -> None:
        self._handlers: dict[str, Handler] = {}
        self._endpoint_shards: dict[str, int] = {}
        self._resolver: RouteResolver | None = None
        self.envelopes_delivered = 0
        self.routes_resolved = 0
        #: One-way envelopes dropped because their destination endpoint was
        #: unbound (server failure) between send and delivery.  Synchronous
        #: transports never defer, so they never drop; the event and batching
        #: transports count their in-flight losses here symmetrically.
        self.dropped_messages = 0
        #: Ring buffer of ``(time, server, payload type name)`` entries, one
        #: per delivery, appended by the transports that model time while
        #: :attr:`log_deliveries` is on (see :meth:`enable_delivery_log`).
        self.delivery_log: deque[tuple[float, str, str]] = deque(
            maxlen=DELIVERY_LOG_LIMIT
        )
        #: Whether deliveries are recorded into :attr:`delivery_log`
        #: (off by default — recording is opt-in for the fuzzer and tests).
        self.log_deliveries = False
        #: True once :meth:`close` has run.  The simulator closes its
        #: transport deterministically at the end of every run; sweep tests
        #: assert this flag so a leaked worker process cannot
        #: ride on garbage-collection timing.
        self.closed = False

    # ------------------------------------------------------------------ #
    # Delivery recording
    # ------------------------------------------------------------------ #

    def enable_delivery_log(self, limit: int | None = DELIVERY_LOG_LIMIT) -> None:
        """Turn on delivery recording with a fresh ring buffer.

        Args:
            limit: Ring-buffer capacity — only the most recent ``limit``
                deliveries are kept.  ``None`` removes the bound (short
                diagnostic runs that need the complete schedule).
        """
        if limit is not None and limit <= 0:
            raise ValueError(f"delivery log limit must be positive, got {limit}")
        self.delivery_log = deque(maxlen=limit)
        self.log_deliveries = True

    def disable_delivery_log(self) -> None:
        """Stop recording and drop the buffered entries."""
        self.log_deliveries = False
        self.delivery_log = deque(maxlen=DELIVERY_LOG_LIMIT)

    # ------------------------------------------------------------------ #
    # Endpoint management
    # ------------------------------------------------------------------ #

    def bind(self, name: str, handler: Handler, shard: int | None = None) -> None:
        """Register (or replace) the handler for endpoint ``name``.

        ``shard`` optionally namespaces the endpoint under a ring shard
        (sharded deployments tag every server endpoint with its shard index).
        Delivery is unaffected — names stay globally unique — but the
        namespace lets callers enumerate one shard's endpoints
        (:meth:`endpoints`) and is the seam a socket-backed transport will
        use to route a whole shard to its worker process.
        """
        if not name:
            raise ValueError("endpoint name must be non-empty")
        self._handlers[name] = handler
        if shard is None:
            self._endpoint_shards.pop(name, None)
        else:
            self._endpoint_shards[name] = shard

    def unbind(self, name: str) -> None:
        """Remove an endpoint (e.g. after a server failure)."""
        self._handlers.pop(name, None)
        self._endpoint_shards.pop(name, None)
        self.invalidate_routes()

    def endpoints(self, shard: int | None = None) -> list[str]:
        """Names of every bound endpoint (optionally one shard's only)."""
        if shard is None:
            return list(self._handlers)
        return [
            name
            for name in self._handlers
            if self._endpoint_shards.get(name) == shard
        ]

    def endpoint_shard(self, name: str) -> int | None:
        """The shard namespace ``name`` was bound under (``None`` if untagged)."""
        return self._endpoint_shards.get(name)

    def is_bound(self, name: str) -> bool:
        """True while ``name`` has a handler (False once it fails/unbinds)."""
        return name in self._handlers

    def set_resolver(self, resolver: RouteResolver) -> None:
        """Install the DHT lookup used for :class:`DhtAddress` destinations."""
        self._resolver = resolver

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def resolve(self, virtual_key) -> tuple[str, int]:
        """Resolve a virtual key to ``(owner, hops)`` through the DHT.

        Exposed separately from delivery because the protocol sometimes needs
        the route before deciding what to send (a splitting server must know
        whether the right child maps back to itself).  Subclasses may cache
        resolutions; the base implementation always asks the resolver.
        """
        if self._resolver is None:
            raise TransportError("transport has no DHT resolver installed")
        lookup = self._resolver(virtual_key)
        self.routes_resolved += 1
        return lookup.owner, lookup.hops

    def _route(self, envelope: Envelope) -> tuple[str, int]:
        """The concrete endpoint and hop charge for an envelope."""
        destination = envelope.destination
        if isinstance(destination, DhtAddress):
            return self.resolve(destination.virtual_key)
        return destination, 0

    def _dispatch(self, name: str, envelope: Envelope) -> object:
        """Invoke the handler bound to ``name`` (the actual delivery)."""
        handler = self._handlers.get(name)
        if handler is None:
            raise TransportError(f"no endpoint bound for {name!r}")
        self.envelopes_delivered += 1
        return handler(envelope)

    def invalidate_routes(self) -> None:
        """Drop any cached DHT resolutions (ring membership changed)."""

    # ------------------------------------------------------------------ #
    # Latency surface (no-ops unless the transport models time)
    # ------------------------------------------------------------------ #

    def set_latency_model(self, latency) -> None:
        """Install a latency model; ignored by transports that don't model time."""

    def drain_latency_samples(self) -> list[float]:
        """Per-delivery latencies recorded since the last drain (empty unless
        the transport models time)."""
        return []

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def request(self, envelope: Envelope) -> Delivery:
        """Deliver an envelope and wait for the endpoint's reply."""

    @abc.abstractmethod
    def post(self, envelope: Envelope) -> Delivery:
        """Send a one-way envelope.

        Implementations may defer the actual handler invocation until
        :meth:`flush`; the returned :class:`Delivery` always carries the
        resolved endpoint and hop charge so the caller can account for the
        message immediately.
        """

    def flush(self) -> int:
        """Deliver every deferred envelope; returns how many were delivered.

        Called at least once per load-check period by the protocol layer.
        Transports with no deferred delivery return 0.
        """
        return 0

    def close(self) -> None:
        """Release any resources the transport holds (worker processes).

        Most transports hold none; the socket transport shuts down its worker
        processes here.  Safe to call more than once.  Subclasses must call
        ``super().close()`` so :attr:`closed` flips for every implementation."""
        self.closed = True


class TimedTransport(Transport):
    """What the virtual-time transports share: a latency model, the samples
    it produced, and the arrival step of a delivery.

    The calendars stay with the subclasses — the event transport's is the
    simulator's shared engine, the async transport's a private seeded-shuffle
    heap — so this class defines no ``request``/``post``/``flush`` of its own.

    Args:
        latency: Prices each delivery in seconds of virtual time (defaults to
            :class:`~repro.net.latency.ZeroLatency`, which preserves inline
            metric equivalence bit for bit).
    """

    def __init__(self, latency: LatencyModel | None = None) -> None:
        super().__init__()
        self._latency = latency if latency is not None else ZeroLatency()
        self._latency_samples: list[float] = []

    @property
    def latency_model(self) -> LatencyModel:
        """The current latency model."""
        return self._latency

    def set_latency_model(self, latency: LatencyModel) -> None:
        """Swap the latency model (scenario phases may override it)."""
        self._latency = latency

    def drain_latency_samples(self) -> list[float]:
        """Per-delivery (one-way) latencies recorded since the last drain.

        A request/reply exchange contributes two samples — the forward leg
        and the reply leg — so the mean is a per-message delivery latency,
        commensurate with the one-way samples posts record.  A request that
        died on the forward leg contributes that leg only.
        """
        samples = self._latency_samples
        self._latency_samples = []
        return samples

    def _arrived(self, now: float, server: str, envelope: Envelope) -> bool:
        """Record an envelope reaching ``server`` at ``now``; False if it is lost.

        An endpoint unbound after the send (the server failed with this
        envelope in flight) loses it like a real network would: the drop is
        counted and the caller forgets a one-way post or raises
        :class:`DeliveryFailed` to a waiting requester.  Only that case is a
        drop — a *handler* raising is a programming error and propagates.
        """
        if self.log_deliveries:
            self.delivery_log.append((now, server, type(envelope.payload).__name__))
        if server in self._handlers:
            return True
        self.dropped_messages += 1
        return False
