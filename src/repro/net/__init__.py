"""Pluggable transports carrying all CLASH inter-node traffic.

The protocol layer wraps every exchange in an
:class:`~repro.net.envelope.Envelope` and hands it to a
:class:`~repro.net.transport.Transport`; which transport is installed decides
whether delivery is synchronous (:class:`~repro.net.inline.InlineTransport`),
event-driven with simulated latency (:class:`~repro.net.event.EventTransport`),
batched per load-check period
(:class:`~repro.net.batching.BatchingTransport`), deferred through a
seeded-shuffle virtual-time calendar
(:class:`~repro.net.asyncio_transport.AsyncTransport`) or batched and carried
to per-shard worker processes over framed sockets
(:class:`~repro.net.socket_transport.SocketTransport`).

All transports are declared once in the :data:`TRANSPORTS` registry
(:mod:`repro.net.registry`); the CLI choices, simulator validation and test
parametrization derive from it, and :func:`build_transport` maps the
user-facing ``--transport`` switch to a configured instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.batching import BatchingTransport
from repro.net.envelope import Delivery, DhtAddress, Envelope
from repro.net.inline import InlineTransport
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    PerHopLatency,
    UniformLatency,
    ZeroLatency,
)
from repro.net.registry import TRANSPORT_KINDS, TRANSPORTS, TransportSpec, transport_spec
from repro.net.transport import DELIVERY_LOG_LIMIT, DeliveryFailed, Transport, TransportError
from repro.util.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.asyncio_transport import AsyncTransport
    from repro.net.event import EventTransport
    from repro.net.replay import ReplaySchedule, ReplayTransport
    from repro.net.socket_transport import SocketTransport
    from repro.sim.engine import SimulationEngine

__all__ = [
    "Delivery",
    "DhtAddress",
    "Envelope",
    "Transport",
    "TransportError",
    "DeliveryFailed",
    "InlineTransport",
    "EventTransport",
    "BatchingTransport",
    "AsyncTransport",
    "SocketTransport",
    "ReplayTransport",
    "ReplaySchedule",
    "ChurnEvent",
    "TieRecorder",
    "TieTape",
    "DELIVERY_LOG_LIMIT",
    "LatencyModel",
    "ZeroLatency",
    "ConstantLatency",
    "UniformLatency",
    "PerHopLatency",
    "TransportSpec",
    "TRANSPORTS",
    "TRANSPORT_KINDS",
    "transport_spec",
    "build_transport",
]


def __getattr__(name: str):
    # EventTransport pulls in the simulation engine, whose package imports the
    # protocol layer; loading it lazily keeps ``repro.net`` importable from
    # ``repro.core.protocol`` without a cycle.  The other non-default
    # transports are lazy too, so a run only imports the one it uses.
    if name == "EventTransport":
        from repro.net.event import EventTransport

        return EventTransport
    if name == "AsyncTransport":
        from repro.net.asyncio_transport import AsyncTransport

        return AsyncTransport
    if name == "SocketTransport":
        from repro.net.socket_transport import SocketTransport

        return SocketTransport
    if name in ("ReplayTransport", "ReplaySchedule", "ChurnEvent", "TieRecorder", "TieTape"):
        from repro.net import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _latency_model(
    link_latency: float,
    latency_jitter: float,
    per_hop_latency: float,
    rng: RandomStream | None,
) -> LatencyModel:
    """Map the CLI-level latency knobs to a model (time-modelling transports)."""
    if per_hop_latency > 0.0 and latency_jitter > 0.0:
        raise ValueError(
            "per_hop_latency and latency_jitter cannot be combined; "
            "pick one latency model"
        )
    if per_hop_latency > 0.0:
        return PerHopLatency(base=link_latency, per_hop=per_hop_latency)
    if latency_jitter > 0.0:
        if rng is None:
            raise ValueError("latency_jitter requires a seeded rng")
        low = max(0.0, link_latency - latency_jitter)
        return UniformLatency(low, link_latency + latency_jitter, rng)
    if link_latency > 0.0:
        return ConstantLatency(link_latency)
    return ZeroLatency()


def build_transport(
    kind: str,
    engine: "SimulationEngine | None" = None,
    link_latency: float = 0.0,
    latency_jitter: float = 0.0,
    per_hop_latency: float = 0.0,
    rng: RandomStream | None = None,
    ready_rng: RandomStream | None = None,
    schedule: "ReplaySchedule | None" = None,
) -> Transport:
    """Construct a transport from the CLI-level description.

    Args:
        kind: One of :data:`TRANSPORT_KINDS` (see :data:`TRANSPORTS`).
        engine: Event kernel for the ``event`` transport (a private one is
            created when omitted).
        link_latency: Base one-way delivery latency in seconds (transports
            that model time).
        latency_jitter: Half-width of uniform jitter around ``link_latency``;
            requires ``rng`` for reproducibility.
        per_hop_latency: Extra latency charged per Chord routing hop;
            combined with ``link_latency`` as the base.
        rng: Seeded stream used when ``latency_jitter`` is non-zero.
        ready_rng: Seeded stream for the ``async`` transport's ready-order
            tie-breaking (``None`` falls back to send-order).
        schedule: Recorded schedule forced by the ``replay`` transport
            (ignored by every other kind; ``None`` replays an empty tape,
            i.e. deterministic FIFO).
    """
    spec = transport_spec(kind)
    latency: LatencyModel | None = None
    if spec.models_time:
        latency = _latency_model(link_latency, latency_jitter, per_hop_latency, rng)
    transport = spec.factory(
        engine=engine, latency=latency, ready_rng=ready_rng, schedule=schedule
    )
    transport.supports_report_diff = spec.report_diff
    return transport
