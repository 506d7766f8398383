"""The async transport: a seeded-shuffle virtual-time calendar, drained
synchronously.

:class:`AsyncTransport` decouples *send* from *delivery*.  Every envelope
waits in a private calendar until its latency (priced by the same pluggable
models the event transport uses, :mod:`repro.net.latency`) has elapsed on a
virtual clock, and envelopes that become ready at the same instant are
delivered in a *seeded shuffle* order — reproducible run over run, and
adversarial enough to prove the protocol does not depend on delivery order.
:meth:`request` and :meth:`flush` drain the calendar in a plain loop on the
caller's stack: no handler ever suspends, so there is nothing for an event
loop to interleave.  (The module keeps its historical name — it once ran the
calendar on a private asyncio loop, one task per endpoint — because the
benchmark imports the class by this path.)

Determinism is a design requirement, not an accident.  The delivery order is
a pure function of the send sequence, the latency model and the tie-break
source:

* envelopes wait ordered by ``(ready_at, tie_break, sequence)``, where
  ``tie_break`` is drawn at send time from a seeded
  :class:`~repro.util.rng.RandomStream` (or a recorded
  :class:`~repro.net.replay.TieTape`);
* the calendar is drained one *batch* — every envelope sharing the earliest
  ``ready_at`` — at a time, and a batch is delivered **grouped by
  destination, destinations in order of their first envelope in the batch,
  FIFO within a destination**.  This is the order the per-endpoint inbox
  tasks of the asyncio implementation produced, kept because the goldens and
  every recorded tie tape depend on it;
* a batch is fixed when it leaves the calendar: whatever a handler posts
  meanwhile, even at zero latency, lands in a later batch.

Same seed ⇒ same delivery order, same clock readings, same metrics.
"""

from __future__ import annotations

import heapq
import itertools

from repro.net.envelope import Delivery, Envelope
from repro.net.latency import LatencyModel
from repro.net.transport import DeliveryFailed, TimedTransport, TransportError
from repro.util.rng import RandomStream

__all__ = ["AsyncTransport"]


class AsyncTransport(TimedTransport):
    """Deferred delivery from a private virtual-time calendar.

    Args:
        latency: Prices each delivery in seconds of virtual time (defaults to
            :class:`~repro.net.latency.ZeroLatency`, which preserves inline
            metric equivalence bit for bit).
        ready_rng: Seeded stream for the ready-order tie-break.  ``None``
            falls back to pure send-order (FIFO) tie-breaking, which is also
            deterministic — the seeded shuffle exists to *prove* order
            independence, not to provide it.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        ready_rng: RandomStream | None = None,
    ) -> None:
        super().__init__(latency)
        self._ready_rng = ready_rng
        self._clock = 0.0
        # Heap of (ready_at, tie_break, sequence, server, envelope); the
        # unique sequence number settles every comparison before the payload.
        self._calendar: list[tuple[float, float, int, str, Envelope]] = []
        self._sequence = itertools.count()
        self._delivering = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._clock

    @property
    def ready_source(self):
        """The source the ready-order tie-break is drawn from (may be ``None``)."""
        return self._ready_rng

    def set_ready_source(self, source) -> None:
        """Swap the tie-break source (anything with ``uniform(low, high)``).

        The fuzz harness wraps the live source in a
        :class:`~repro.net.replay.TieRecorder` before a recorded run, and a
        :class:`~repro.net.replay.TieTape` replays a recording.  Swapping
        mid-run splices the schedule at the current send, so install the
        source before any traffic flows.
        """
        self._ready_rng = source

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def request(self, envelope: Envelope) -> Delivery:
        """Deliver an envelope, draining the calendar until its reply is in.

        Everything ready no later than the request is delivered on the way.
        Raises :class:`~repro.net.transport.DeliveryFailed` when the
        destination unbinds (server failure) while the request is in flight;
        the cancelled exchange is counted in :attr:`dropped_messages`.  An
        error raised by the destination's handler is re-raised here.
        """
        server, hops = self._route(envelope)
        forward = self._latency.sample(envelope.source, server, hops)
        backward = self._latency.sample(server, envelope.source, 0)
        reply, failure = self._drain(self._schedule(server, envelope, forward))
        self._latency_samples.append(forward)
        if failure is not None:
            # No reply leg: the request died on the forward leg.
            raise failure
        self._clock += backward
        self._latency_samples.append(backward)
        return Delivery(server=server, hops=hops, reply=reply, latency=forward + backward)

    def post(self, envelope: Envelope) -> Delivery:
        """Queue a one-way delivery; it lands when the calendar is next drained."""
        server, hops = self._route(envelope)
        delay = self._latency.sample(envelope.source, server, hops)
        self._schedule(server, envelope, delay)
        self._latency_samples.append(delay)
        return Delivery(server=server, hops=hops, latency=delay)

    def flush(self) -> int:
        """Drain the calendar; returns how many envelopes were waiting in it."""
        flushed = len(self._calendar)
        self._drain(None)
        return flushed

    # ------------------------------------------------------------------ #
    # The virtual-time calendar
    # ------------------------------------------------------------------ #

    def _schedule(self, server: str, envelope: Envelope, delay: float) -> int:
        """Enter an envelope into the calendar; returns its sequence number."""
        tie_break = self._ready_rng.uniform(0.0, 1.0) if self._ready_rng else 0.0
        sequence = next(self._sequence)
        heapq.heappush(
            self._calendar, (self._clock + delay, tie_break, sequence, server, envelope)
        )
        return sequence

    def _drain(self, awaited: int | None) -> tuple[object, BaseException | None] | None:
        """Deliver batches until envelope ``awaited`` has landed (``None``:
        until the calendar is empty); returns its ``(reply, failure)``.

        A batch is always delivered whole.  The awaited envelope's failure —
        :class:`DeliveryFailed` or its handler's error — is returned to the
        requester; an error from any other handler has no waiting caller, so
        the first one is raised once its batch is through (handler errors
        are programming errors and must not be swallowed).
        """
        if self._delivering:
            raise TransportError(
                "re-entrant delivery: a handler called back into the "
                "transport's synchronous surface while a batch was being delivered"
            )
        calendar = self._calendar
        outcome: tuple[object, BaseException | None] | None = None
        stray: BaseException | None = None
        self._delivering = True
        try:
            while calendar and outcome is None and stray is None:
                now = calendar[0][0]
                if now > self._clock:
                    self._clock = now
                batch: dict[str, list[tuple[int, Envelope]]] = {}
                while calendar and calendar[0][0] == now:
                    _, _, sequence, server, envelope = heapq.heappop(calendar)
                    batch.setdefault(server, []).append((sequence, envelope))
                for server, arrivals in batch.items():
                    for sequence, envelope in arrivals:
                        reply = failure = None
                        try:
                            if self._arrived(self._clock, server, envelope):
                                reply = self._dispatch(server, envelope)
                            elif sequence == awaited:
                                failure = DeliveryFailed(server, envelope)
                        except Exception as error:
                            failure = error
                        if sequence == awaited:
                            outcome = (reply, failure)
                        elif failure is not None and stray is None:
                            stray = failure
        finally:
            self._delivering = False
        if stray is not None:
            raise stray
        return outcome
