"""Unit tests for the pluggable transport layer (repro.net)."""

from __future__ import annotations

import pytest

from repro.net import TRANSPORT_KINDS, TRANSPORTS, build_transport, transport_spec
from repro.net.asyncio_transport import AsyncTransport
from repro.net.batching import BatchingTransport
from repro.net.envelope import DhtAddress, Envelope
from repro.net.event import EventTransport
from repro.net.inline import InlineTransport
from repro.net.latency import (
    ConstantLatency,
    PerHopLatency,
    UniformLatency,
    ZeroLatency,
)
from repro.net.transport import DeliveryFailed, TransportError
from repro.sim.engine import SimulationEngine
from repro.util.rng import RandomStream


class _Recorder:
    """A handler that records payloads and echoes a canned reply."""

    def __init__(self, reply=None):
        self.received: list[Envelope] = []
        self.reply = reply

    def __call__(self, envelope: Envelope):
        self.received.append(envelope)
        return self.reply


class _FakeLookup:
    def __init__(self, owner: str, hops: int):
        self.owner = owner
        self.hops = hops


class _FakeKey:
    """Stands in for an IdentifierKey: value/width are all resolve() needs."""

    def __init__(self, value: int, width: int = 8):
        self.value = value
        self.width = width


class TestInlineTransport:
    def test_request_dispatches_synchronously(self):
        transport = InlineTransport()
        handler = _Recorder(reply="pong")
        transport.bind("srv", handler)
        delivery = transport.request(
            Envelope(source="cli", destination="srv", payload="ping")
        )
        assert delivery.reply == "pong"
        assert delivery.server == "srv"
        assert delivery.hops == 0
        assert handler.received[0].payload == "ping"

    def test_post_delivers_immediately_and_flush_is_noop(self):
        transport = InlineTransport()
        handler = _Recorder()
        transport.bind("srv", handler)
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        assert len(handler.received) == 1
        assert transport.flush() == 0

    def test_dht_destination_uses_resolver_and_reports_hops(self):
        transport = InlineTransport()
        handler = _Recorder(reply="ok")
        transport.bind("owner", handler)
        transport.set_resolver(lambda key: _FakeLookup("owner", 3))
        delivery = transport.request(
            Envelope(source="cli", destination=DhtAddress(_FakeKey(5)), payload="p")
        )
        assert delivery.server == "owner"
        assert delivery.hops == 3

    def test_unknown_endpoint_raises(self):
        transport = InlineTransport()
        with pytest.raises(TransportError):
            transport.request(Envelope(source="a", destination="ghost", payload=1))

    def test_dht_destination_without_resolver_raises(self):
        transport = InlineTransport()
        transport.bind("srv", _Recorder())
        with pytest.raises(TransportError):
            transport.request(
                Envelope(source="a", destination=DhtAddress(_FakeKey(1)), payload=1)
            )

    def test_unbind_removes_endpoint(self):
        transport = InlineTransport()
        transport.bind("srv", _Recorder())
        transport.unbind("srv")
        with pytest.raises(TransportError):
            transport.post(Envelope(source="a", destination="srv", payload=1))


class TestEventTransport:
    def test_request_advances_the_clock_by_the_round_trip(self):
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(0.25))
        transport.bind("srv", _Recorder(reply="pong"))
        delivery = transport.request(
            Envelope(source="cli", destination="srv", payload="ping")
        )
        assert delivery.reply == "pong"
        assert delivery.latency == pytest.approx(0.5)
        assert engine.now == pytest.approx(0.5)

    def test_posted_envelopes_fire_in_scheduled_order_at_flush(self):
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ZeroLatency())
        handler = _Recorder()
        transport.bind("srv", handler)
        for index in range(5):
            transport.post(Envelope(source="cli", destination="srv", payload=index))
        assert len(handler.received) == 0  # not delivered until the engine runs
        assert transport.flush() == 5
        assert [envelope.payload for envelope in handler.received] == [0, 1, 2, 3, 4]

    def test_delivery_order_is_deterministic_across_runs(self):
        """Two identically seeded runs deliver the same envelopes at the same
        times in the same order — the determinism EventTransport inherits from
        the engine's (time, sequence) ordering and seeded jitter."""

        def run() -> list[tuple[float, str, str]]:
            engine = SimulationEngine()
            transport = EventTransport(
                engine=engine,
                latency=UniformLatency(0.0, 1.0, RandomStream(77)),
            )
            transport.log_deliveries = True
            for name in ("a", "b", "c"):
                transport.bind(name, _Recorder(reply=name))
            for index in range(20):
                destination = ("a", "b", "c")[index % 3]
                transport.post(
                    Envelope(source="cli", destination=destination, payload=index)
                )
            transport.flush()
            transport.request(Envelope(source="cli", destination="a", payload="r"))
            return list(transport.delivery_log)

        first, second = run(), run()
        assert first == second
        assert len(first) == 21

    def test_jittered_posts_reorder_by_sampled_latency(self):
        engine = SimulationEngine()
        transport = EventTransport(
            engine=engine, latency=UniformLatency(0.0, 10.0, RandomStream(3))
        )
        handler = _Recorder()
        transport.bind("srv", handler)
        for index in range(10):
            transport.post(Envelope(source="cli", destination="srv", payload=index))
        transport.flush()
        delivered = [envelope.payload for envelope in handler.received]
        assert sorted(delivered) == list(range(10))
        assert delivered != list(range(10))  # jitter actually reordered them

    def test_latency_samples_drain(self):
        transport = EventTransport(latency=ConstantLatency(0.1))
        transport.bind("srv", _Recorder())
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        transport.flush()
        samples = transport.drain_latency_samples()
        assert samples == [pytest.approx(0.1)]
        assert transport.drain_latency_samples() == []

    def test_post_to_endpoint_unbound_after_scheduling_is_dropped(self):
        """Regression: a one-way delivery whose destination was unbound after
        scheduling (server failed with the message in flight) used to let
        TransportError escape run_until and abort the run."""
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(0.5))
        survivor = _Recorder()
        transport.bind("doomed", _Recorder())
        transport.bind("survivor", survivor)
        transport.post(Envelope(source="cli", destination="doomed", payload=1))
        transport.post(Envelope(source="cli", destination="survivor", payload=2))
        transport.unbind("doomed")
        flushed = transport.flush()  # must not raise
        assert flushed == 2  # both envelopes left the calendar
        assert transport.dropped_messages == 1
        assert [e.payload for e in survivor.received] == [2]

    def test_request_to_endpoint_unbound_mid_flight_raises_delivery_failed(self):
        """The PR 3 follow-up: a request whose destination fails while the
        request is travelling is cancelled with a *typed* error and counted,
        instead of a bare TransportError aborting the run."""
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(1.0))
        transport.bind("doomed", _Recorder(reply="never"))
        engine.schedule_at(0.5, lambda now: transport.unbind("doomed"))
        with pytest.raises(DeliveryFailed) as failure:
            transport.request(
                Envelope(source="cli", destination="doomed", payload="req")
            )
        assert failure.value.destination == "doomed"
        assert transport.dropped_messages == 1
        # Only the forward leg was travelled; no reply-leg sample exists.
        assert transport.drain_latency_samples() == [pytest.approx(1.0)]

    def test_per_hop_latency_prices_dht_routes(self):
        engine = SimulationEngine()
        transport = EventTransport(
            engine=engine, latency=PerHopLatency(base=0.01, per_hop=0.05)
        )
        transport.bind("owner", _Recorder(reply="ok"))
        transport.set_resolver(lambda key: _FakeLookup("owner", 4))
        delivery = transport.request(
            Envelope(source="cli", destination=DhtAddress(_FakeKey(9)), payload="p")
        )
        # forward: base + 4 hops; reply: direct (0 hops), base only.
        assert delivery.latency == pytest.approx(0.01 + 4 * 0.05 + 0.01)


class TestBatchingTransport:
    def test_posts_are_deferred_until_flush(self):
        transport = BatchingTransport()
        handler = _Recorder()
        transport.bind("srv", handler)
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        transport.post(Envelope(source="cli", destination="srv", payload=2))
        assert handler.received == []
        assert transport.pending == 2
        assert transport.flush() == 2
        assert [envelope.payload for envelope in handler.received] == [1, 2]
        assert transport.pending == 0
        assert transport.flush() == 0

    def test_flush_preserves_per_destination_order(self):
        transport = BatchingTransport()
        handlers = {name: _Recorder() for name in ("a", "b")}
        for name, handler in handlers.items():
            transport.bind(name, handler)
        for index in range(6):
            destination = "a" if index % 2 == 0 else "b"
            transport.post(
                Envelope(source="cli", destination=destination, payload=index)
            )
        transport.flush()
        assert [e.payload for e in handlers["a"].received] == [0, 2, 4]
        assert [e.payload for e in handlers["b"].received] == [1, 3, 5]

    def test_route_cache_replays_identical_hop_charges(self):
        transport = BatchingTransport()
        transport.bind("owner", _Recorder(reply="ok"))
        calls = []

        def resolver(key):
            calls.append(key.value)
            return _FakeLookup("owner", 7)

        transport.set_resolver(resolver)
        key = _FakeKey(42)
        first = transport.request(
            Envelope(source="c", destination=DhtAddress(key), payload="x")
        )
        second = transport.request(
            Envelope(source="c", destination=DhtAddress(key), payload="y")
        )
        assert first.hops == second.hops == 7
        assert calls == [42]  # one real DHT walk, one cache hit
        assert transport.route_cache_hits == 1

    def test_flush_opens_a_new_route_window(self):
        transport = BatchingTransport()
        transport.bind("owner", _Recorder())
        calls = []

        def resolver(key):
            calls.append(key.value)
            return _FakeLookup("owner", 1)

        transport.set_resolver(resolver)
        transport.request(
            Envelope(source="c", destination=DhtAddress(_FakeKey(1)), payload="x")
        )
        transport.flush()
        transport.request(
            Envelope(source="c", destination=DhtAddress(_FakeKey(1)), payload="x")
        )
        assert calls == [1, 1]  # re-resolved after the window closed

    def test_unbind_drops_cached_routes(self):
        transport = BatchingTransport()
        transport.bind("owner", _Recorder())
        transport.set_resolver(lambda key: _FakeLookup("owner", 2))
        transport.resolve(_FakeKey(9))
        transport.unbind("owner")
        assert transport._route_cache == {}

    def test_envelopes_for_failed_endpoints_are_dropped_at_flush(self):
        transport = BatchingTransport()
        transport.bind("srv", _Recorder())
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        transport.unbind("srv")
        assert transport.flush() == 0  # dropped, not raised
        assert transport.dropped_messages == 1

    def test_all_dropped_flush_is_not_counted_as_a_batch(self):
        """A flush where every queued envelope was dropped delivered nothing,
        so it must not inflate batches_flushed."""
        transport = BatchingTransport()
        transport.bind("srv", _Recorder())
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        transport.post(Envelope(source="cli", destination="srv", payload=2))
        transport.unbind("srv")
        assert transport.flush() == 0
        assert transport.batches_flushed == 0
        assert transport.dropped_messages == 2
        # A flush that delivers something still counts.
        transport.bind("srv", _Recorder())
        transport.post(Envelope(source="cli", destination="srv", payload=3))
        assert transport.flush() == 1
        assert transport.batches_flushed == 1

    def test_handler_unbinding_own_endpoint_mid_batch_drops_remainder(self):
        """Regression: the bound check must run per envelope, not once per
        destination.  A handler that unbinds its *own* endpoint while its
        batch is draining (failure-triggered re-root) used to let the next
        envelope reach ``_dispatch`` and abort the run with a bare
        ``TransportError``; the remainder must be dropped and counted."""
        transport = BatchingTransport()
        received = []

        def self_unbinding(envelope):
            received.append(envelope.payload)
            transport.unbind("srv")

        transport.bind("srv", self_unbinding)
        transport.bind("other", _Recorder())
        for payload in (1, 2, 3):
            transport.post(Envelope(source="cli", destination="srv", payload=payload))
        transport.post(Envelope(source="cli", destination="other", payload=4))
        assert transport.flush() == 2  # the first srv envelope + other's
        assert received == [1]
        assert transport.dropped_messages == 2

    def test_rebind_mid_batch_resumes_delivery(self):
        """The per-envelope recheck also means a handler that unbinds and
        then *rebinds* its endpoint (recovery) sees delivery resume."""
        transport = BatchingTransport()
        received = []

        def flapping(envelope):
            received.append(envelope.payload)
            transport.unbind("srv")
            transport.bind("srv", flapping)

        transport.bind("srv", flapping)
        for payload in (1, 2, 3):
            transport.post(Envelope(source="cli", destination="srv", payload=payload))
        assert transport.flush() == 3
        assert received == [1, 2, 3]
        assert transport.dropped_messages == 0


class TestBuildTransport:
    def test_kinds(self):
        assert isinstance(build_transport("inline"), InlineTransport)
        assert isinstance(build_transport("batching"), BatchingTransport)
        assert isinstance(build_transport("event"), EventTransport)
        built = build_transport("async")
        assert isinstance(built, AsyncTransport)
        built.close()

    def test_registry_is_the_single_source_of_truth(self):
        """Every enumeration derives from net.TRANSPORTS."""
        assert TRANSPORT_KINDS == tuple(TRANSPORTS)
        assert set(TRANSPORT_KINDS) == {
            "inline",
            "event",
            "batching",
            "async",
            "replay",
            "socket",
        }
        for kind, spec in TRANSPORTS.items():
            assert spec.kind == kind
            assert transport_spec(kind) is spec
            built = spec.factory(engine=None, latency=None, ready_rng=None)
            try:
                assert built.endpoints() == []
            finally:
                built.close()
        # The equivalence contracts the golden harness relies on.
        assert TRANSPORTS["async"].churn_equivalence
        assert not TRANSPORTS["event"].churn_equivalence
        assert TRANSPORTS["event"].needs_engine
        assert not TRANSPORTS["async"].needs_engine
        # The socket transport is clock-less like batching: the churn
        # contract holds too.
        assert TRANSPORTS["socket"].churn_equivalence
        assert not TRANSPORTS["socket"].models_time
        assert not TRANSPORTS["socket"].needs_engine

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_transport("carrier-pigeon")
        with pytest.raises(ValueError):
            transport_spec("carrier-pigeon")

    def test_event_latency_selection(self):
        constant = build_transport("event", link_latency=0.5)
        assert isinstance(constant.latency_model, ConstantLatency)
        per_hop = build_transport("event", link_latency=0.1, per_hop_latency=0.05)
        assert isinstance(per_hop.latency_model, PerHopLatency)
        jittered = build_transport(
            "event", link_latency=0.1, latency_jitter=0.05, rng=RandomStream(1)
        )
        assert isinstance(jittered.latency_model, UniformLatency)
        zero = build_transport("event")
        assert isinstance(zero.latency_model, ZeroLatency)

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            build_transport("event", link_latency=0.1, latency_jitter=0.05)

    def test_per_hop_and_jitter_cannot_be_combined(self):
        with pytest.raises(ValueError):
            build_transport(
                "event",
                per_hop_latency=0.01,
                latency_jitter=0.01,
                rng=RandomStream(1),
            )
