"""The single source of truth for which transports exist.

Every surface that enumerates transports — the CLI ``--transport`` choices,
:class:`~repro.sim.simulator.SimulationParams` /
:class:`~repro.experiments.runner.ExperimentScale` validation,
:func:`repro.net.build_transport` construction and the test suite's
equivalence parametrization — derives from :data:`TRANSPORTS` instead of
maintaining its own list.  Adding a transport means adding one
:class:`TransportSpec` here; everything else follows.

Every registered transport makes the same base *equivalence contract*, which
the golden test harness (``tests/net/equivalence.py``) enforces: with a
zero-latency model, a flow simulation on it produces
:class:`~repro.sim.metrics.PeriodSample` streams bit-identical to
:class:`~repro.net.inline.InlineTransport`, on any shard count (every
transport honours the base class's per-shard endpoint namespace).  Each spec
records where a transport goes beyond or stops short of that:

* ``churn_equivalence`` — the contract also holds under period-boundary
  membership churn.  The event transport executes churn *mid-phase* on its
  engine clock (a deliberately different, more realistic schedule), so it
  opts out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.batching import BatchingTransport
from repro.net.inline import InlineTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.latency import LatencyModel
    from repro.net.transport import Transport
    from repro.sim.engine import SimulationEngine
    from repro.util.rng import RandomStream

__all__ = ["TransportSpec", "TRANSPORTS", "TRANSPORT_KINDS", "transport_spec"]


@dataclass(frozen=True)
class TransportSpec:
    """Everything the rest of the system needs to know about one transport.

    Attributes:
        kind: The user-facing name (the ``--transport`` value).
        summary: One-line description (CLI help, reports).
        factory: Builds a configured instance; receives the shared
            construction context as keyword arguments (``latency`` — a ready
            :class:`~repro.net.latency.LatencyModel` or ``None``, ``engine`` —
            a :class:`~repro.sim.engine.SimulationEngine` or ``None``,
            ``ready_rng`` — a seeded stream or ``None``) and ignores what it
            does not use.
        needs_engine: The simulator must create (and expose) a
            :class:`~repro.sim.engine.SimulationEngine` for this transport;
            scenario churn is scheduled as engine events instead of being
            drained at period boundaries.
        models_time: Deliveries are priced by a latency model and the
            transport keeps a clock (``link_latency`` & friends apply).
        churn_equivalence: Zero-latency runs reproduce inline
            ``PeriodSample`` streams bit for bit under membership churn too
            (without churn every transport does; golden harness enforces).
        report_diff: The protocol layer may skip re-posting load reports whose
            content the destination already holds (the report-diff exchange in
            :meth:`~repro.core.protocol.ClashSystem.exchange_load_reports`).
            Only sound on clock-less transports: a transport that prices each
            delivery with a latency model (``models_time``) or draws
            per-delivery RNG would see every later sample shift when an
            envelope is elided, breaking the equivalence contracts above.
            Message *accounting* is unaffected either way — skipped reports
            are still charged exactly as a delivery would have been.
    """

    kind: str
    summary: str
    factory: Callable[..., "Transport"]
    needs_engine: bool = False
    models_time: bool = False
    churn_equivalence: bool = True
    report_diff: bool = False


def _build_event(
    engine: "SimulationEngine | None" = None,
    latency: "LatencyModel | None" = None,
    **_ignored,
) -> "Transport":
    # Imported lazily: repro.net.event pulls in the simulation engine, whose
    # package imports the protocol layer, which imports repro.net.
    from repro.net.event import EventTransport

    return EventTransport(engine=engine, latency=latency)


def _build_async(
    latency: "LatencyModel | None" = None,
    ready_rng: "RandomStream | None" = None,
    **_ignored,
) -> "Transport":
    from repro.net.asyncio_transport import AsyncTransport

    return AsyncTransport(latency=latency, ready_rng=ready_rng)


def _build_replay(
    latency: "LatencyModel | None" = None,
    schedule=None,
    **_ignored,
) -> "Transport":
    from repro.net.replay import ReplayTransport

    return ReplayTransport(schedule=schedule, latency=latency)


def _build_socket(**_ignored) -> "Transport":
    # Imported lazily: the transport pulls in multiprocessing and the wire
    # codec, which only socket runs pay for.
    from repro.net.socket_transport import SocketTransport

    return SocketTransport()


TRANSPORTS: dict[str, TransportSpec] = {
    spec.kind: spec
    for spec in (
        TransportSpec(
            kind="inline",
            summary="synchronous in-process dispatch (the paper-faithful default)",
            factory=lambda **_ignored: InlineTransport(),
            report_diff=True,
        ),
        TransportSpec(
            kind="event",
            summary="discrete-event kernel delivery with simulated latency "
            "and mid-phase churn",
            factory=_build_event,
            needs_engine=True,
            models_time=True,
            # Mid-phase churn runs on the engine clock (after the period's
            # balance pass), a deliberately different schedule from the
            # period-boundary drain the clock-less transports share.
            churn_equivalence=False,
        ),
        TransportSpec(
            kind="batching",
            summary="per-period coalescing of same-destination traffic and "
            "DHT route resolutions",
            factory=lambda **_ignored: BatchingTransport(),
            report_diff=True,
        ),
        TransportSpec(
            kind="async",
            summary="virtual-time calendar with seeded ready-order, drained "
            "synchronously in per-destination batches",
            factory=_build_async,
            models_time=True,
        ),
        TransportSpec(
            kind="replay",
            summary="async delivery forced onto a recorded schedule tape "
            "(fuzz repro artifacts; FIFO with an empty tape)",
            factory=_build_replay,
            models_time=True,
        ),
        TransportSpec(
            kind="socket",
            summary="one worker process per shard, length-prefixed msgpack "
            "frames over inherited socketpairs",
            factory=_build_socket,
            # The batching plane on another carrier: churn drains at period
            # boundaries and routes coalesce per window with replayed hop
            # charges, so the churn contract holds bit for bit.
            report_diff=True,
        ),
    )
}

TRANSPORT_KINDS = tuple(TRANSPORTS)
"""The transport names accepted by the CLI / experiment runner."""


def transport_spec(kind: str) -> TransportSpec:
    """The registered spec for ``kind`` (raises ``ValueError`` if unknown)."""
    spec = TRANSPORTS.get(kind)
    if spec is None:
        raise ValueError(
            f"unknown transport kind {kind!r}; expected one of "
            f"{', '.join(TRANSPORT_KINDS)}"
        )
    return spec
