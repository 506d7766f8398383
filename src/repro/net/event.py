"""Event-driven delivery through the discrete-event simulation engine.

:class:`EventTransport` finally unifies the two execution models the seed
shipped with: the protocol layer sends envelopes, and every delivery becomes a
:class:`~repro.sim.engine.SimulationEngine` event fired at
``now + latency(source, destination, hops)``.  Request/reply exchanges pump
the engine until the reply lands, so the protocol code stays synchronous while
the simulation clock advances with the traffic — packet-level latency and
churn scenarios run on the *real* protocol rather than a parallel flow model.

Determinism: the engine orders simultaneous events by schedule sequence, and
all jitter comes from seeded :class:`~repro.util.rng.RandomStream` instances,
so two runs with the same seed deliver the same envelopes in the same order at
the same times.
"""

from __future__ import annotations

from repro.net.envelope import Delivery, Envelope
from repro.net.latency import LatencyModel
from repro.net.transport import DeliveryFailed, TimedTransport, TransportError
from repro.sim.engine import SimulationEngine

__all__ = ["EventTransport"]


class EventTransport(TimedTransport):
    """Routes every envelope through a simulation-engine event.

    Args:
        engine: The event kernel deliveries are scheduled on; a private engine
            is created when none is supplied (convenient for tests).
        latency: Prices each delivery in seconds of simulated time.
    """

    def __init__(
        self,
        engine: SimulationEngine | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        super().__init__(latency)
        self._engine = engine if engine is not None else SimulationEngine()
        self._in_flight = 0

    @property
    def engine(self) -> SimulationEngine:
        """The event kernel this transport schedules deliveries on."""
        return self._engine

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def request(self, envelope: Envelope) -> Delivery:
        """Deliver an envelope and run the engine until its reply arrives.

        The request travels for one latency sample, the handler fires as an
        engine event, and the reply travels back for another sample; the
        engine clock advances by the round trip.

        Raises :class:`~repro.net.transport.DeliveryFailed` when the
        destination endpoint unbinds (server failure) while the request is in
        flight: the exchange is cancelled and the lost request counted in
        :attr:`dropped_messages`, exactly as a one-way post would be.
        """
        server, hops = self._route(envelope)
        forward = self._latency.sample(envelope.source, server, hops)
        backward = self._latency.sample(server, envelope.source, 0)
        outcome: dict[str, object] = {}

        def deliver(now: float) -> None:
            if self._arrived(now, server, envelope):
                outcome["reply"] = self._dispatch(server, envelope)
            else:
                outcome["failed"] = True

        self._engine.schedule_in(forward, deliver, label=f"deliver->{server}")
        self._pump(lambda: bool(outcome))
        if "reply" not in outcome:
            # No reply leg: the request died on the forward leg.
            self._latency_samples.append(forward)
            raise DeliveryFailed(server, envelope)
        self._engine.run_until(self._engine.now + backward)
        self._latency_samples.append(forward)
        self._latency_samples.append(backward)
        return Delivery(
            server=server, hops=hops, reply=outcome["reply"], latency=forward + backward
        )

    def post(self, envelope: Envelope) -> Delivery:
        """Schedule a one-way delivery; it fires when the engine reaches it."""
        server, hops = self._route(envelope)
        delay = self._latency.sample(envelope.source, server, hops)
        self._in_flight += 1

        def deliver(now: float) -> None:
            try:
                if self._arrived(now, server, envelope):
                    self._dispatch(server, envelope)
            finally:
                self._in_flight -= 1

        self._engine.schedule_in(delay, deliver, label=f"post->{server}")
        self._latency_samples.append(delay)
        return Delivery(server=server, hops=hops, latency=delay)

    def flush(self) -> int:
        """Run the engine until every posted envelope has been delivered."""
        flushed = self._in_flight
        self._pump(lambda: self._in_flight == 0)
        return flushed

    def _pump(self, done) -> None:
        """Fire engine events in time order until ``done()`` becomes true."""
        guard = 0
        while not done():
            next_time = self._engine.peek_time()
            if next_time is None:
                raise TransportError(
                    "event transport stalled: waiting for a delivery but the "
                    "engine calendar is empty"
                )
            self._engine.run_until(next_time, max_events=1)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - safety net
                raise TransportError("event transport did not converge")
