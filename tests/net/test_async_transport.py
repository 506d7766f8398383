"""Unit tests for the async transport (repro.net.asyncio_transport)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.asyncio_transport import AsyncTransport
from repro.net.envelope import DhtAddress, Envelope
from repro.net.latency import ConstantLatency, PerHopLatency, UniformLatency
from repro.net.transport import DeliveryFailed, TransportError
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
    def __init__(self, value: int, width: int = 8):
        self.value = value
        self.width = width


@pytest.fixture
def transport():
    instance = AsyncTransport()
    yield instance
    instance.close()


class TestAsyncDelivery:
    def test_request_returns_the_reply(self, transport):
        handler = _Recorder(reply="pong")
        transport.bind("srv", handler)
        delivery = transport.request(
            Envelope(source="cli", destination="srv", payload="ping")
        )
        assert delivery.reply == "pong"
        assert delivery.server == "srv"
        assert handler.received[0].payload == "ping"

    def test_posts_are_deferred_until_flush(self, transport):
        handler = _Recorder()
        transport.bind("srv", handler)
        for index in range(4):
            transport.post(Envelope(source="cli", destination="srv", payload=index))
        assert handler.received == []
        assert transport.flush() == 4
        assert [e.payload for e in handler.received] == [0, 1, 2, 3]
        assert transport.flush() == 0

    def test_per_endpoint_inboxes_preserve_per_destination_order(self, transport):
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

    def test_dht_destination_resolves_and_charges_hops(self, transport):
        transport.bind("owner", _Recorder(reply="ok"))
        transport.set_resolver(lambda key: _FakeLookup("owner", 3))
        delivery = transport.request(
            Envelope(source="cli", destination=DhtAddress(_FakeKey(5)), payload="p")
        )
        assert delivery.server == "owner"
        assert delivery.hops == 3

    def test_latency_model_prices_the_round_trip(self):
        transport = AsyncTransport(latency=ConstantLatency(0.25))
        try:
            transport.bind("srv", _Recorder(reply="pong"))
            delivery = transport.request(
                Envelope(source="cli", destination="srv", payload="ping")
            )
            assert delivery.latency == pytest.approx(0.5)
            assert transport.now == pytest.approx(0.5)
            samples = transport.drain_latency_samples()
            assert samples == [pytest.approx(0.25), pytest.approx(0.25)]
            assert transport.drain_latency_samples() == []
        finally:
            transport.close()

    def test_handler_error_on_a_post_surfaces_at_flush(self, transport):
        """The erroring post shares a batch with two healthy ones: all three
        are delivered, then the error is raised — once."""
        survivor = _Recorder()

        def broken(envelope: Envelope):
            raise RuntimeError("handler blew up")

        transport.bind("broken", broken)
        transport.bind("survivor", survivor)
        transport.post(Envelope(source="cli", destination="broken", payload=0))
        transport.post(Envelope(source="cli", destination="survivor", payload=1))
        transport.post(Envelope(source="cli", destination="survivor", payload=2))
        with pytest.raises(RuntimeError, match="handler blew up"):
            transport.flush()
        assert [e.payload for e in survivor.received] == [1, 2]
        assert transport.flush() == 0

    def test_request_handler_error_goes_to_the_requester(self, transport):
        def broken(envelope: Envelope):
            raise RuntimeError("handler blew up")

        transport.bind("srv", broken)
        with pytest.raises(RuntimeError, match="handler blew up"):
            transport.request(Envelope(source="cli", destination="srv", payload=1))
        assert transport.flush() == 0

    def test_waiting_from_inside_a_handler_fails_loudly(self, transport):
        """A handler that calls back into ``request`` would wait on a calendar
        nobody is draining; the transport refuses instead of stalling, and the
        refusal reaches the original requester as the handler's error."""
        transport.bind("other", _Recorder(reply="pong"))

        def reentrant(envelope: Envelope):
            return transport.request(
                Envelope(source="srv", destination="other", payload="nested")
            )

        transport.bind("srv", reentrant)
        with pytest.raises(TransportError, match="re-entrant"):
            transport.request(Envelope(source="cli", destination="srv", payload=1))
        # The transport is usable afterwards; the nested envelope is still due.
        assert transport.flush() == 1

    def test_close_is_idempotent(self):
        transport = AsyncTransport()
        transport.bind("srv", _Recorder())
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        transport.flush()
        assert not transport.closed
        transport.close()
        transport.close()
        assert transport.closed


class TestAsyncFailureSemantics:
    def test_post_to_endpoint_unbound_after_scheduling_is_dropped(self, transport):
        survivor = _Recorder()
        transport.bind("doomed", _Recorder())
        transport.bind("survivor", survivor)
        transport.post(Envelope(source="cli", destination="doomed", payload=1))
        transport.post(Envelope(source="cli", destination="survivor", payload=2))
        transport.unbind("doomed")
        assert transport.flush() == 2  # both envelopes left the calendar
        assert transport.dropped_messages == 1
        assert [e.payload for e in survivor.received] == [2]

    def test_request_to_endpoint_unbound_mid_flight_raises_delivery_failed(self):
        """The typed mid-flight cancellation: the destination fails while the
        request is travelling, the exchange is cancelled and counted."""
        doomed = _Recorder(reply="never")
        latency = PerHopLatency(base=1.0, per_hop=1.0)
        transport = AsyncTransport(latency=latency)
        try:
            transport.bind("doomed", doomed)
            transport.bind("killer", lambda envelope: transport.unbind("doomed"))
            # The request resolves through the DHT (3 hops: ready at t=4); the
            # directly-addressed post is ready at t=1 and its handler fails
            # the request's destination while the request is still travelling.
            transport.set_resolver(lambda key: _FakeLookup("doomed", 3))
            transport.post(Envelope(source="cli", destination="killer", payload="kill"))
            with pytest.raises(DeliveryFailed) as failure:
                transport.request(
                    Envelope(source="cli", destination=DhtAddress(_FakeKey(5)), payload="req")
                )
            assert failure.value.destination == "doomed"
            assert transport.dropped_messages == 1
            assert doomed.received == []
            assert transport.now == pytest.approx(4.0)  # no reply leg
            assert transport.drain_latency_samples() == [
                pytest.approx(1.0),  # the post
                pytest.approx(4.0),  # the request's forward leg only
            ]
        finally:
            transport.close()


class TestAsyncDeterminism:
    @staticmethod
    def _delivery_run(seed: int) -> list[tuple[float, str, str]]:
        """Post 24 simultaneously-ready envelopes to 4 endpoints + a request."""
        transport = AsyncTransport(
            latency=UniformLatency(0.0, 1.0, RandomStream(500 + seed % 2)),
            ready_rng=RandomStream(seed),
        )
        try:
            transport.log_deliveries = True
            names = ("a", "b", "c", "d")
            for name in names:
                transport.bind(name, _Recorder(reply=name))
            for index in range(24):
                transport.post(
                    Envelope(
                        source="cli",
                        destination=names[index % len(names)],
                        payload=index,
                    )
                )
            transport.flush()
            transport.request(Envelope(source="cli", destination="a", payload="r"))
            return list(transport.delivery_log)
        finally:
            transport.close()

    def test_same_seed_means_same_delivery_order_across_five_runs(self):
        """The determinism contract: seeded jitter + seeded ready-order
        tie-breaking makes the delivery schedule a pure function of the
        seed."""
        runs = [self._delivery_run(seed=42) for _ in range(5)]
        assert all(run == runs[0] for run in runs[1:])
        assert len(runs[0]) == 25

    def test_different_ready_seed_changes_simultaneous_order(self):
        """With zero latency every post is ready at the same instant; the
        seeded tie-break is then the only thing deciding the order, so two
        seeds must disagree somewhere (24 messages ⇒ astronomically unlikely
        to shuffle identically)."""

        def zero_latency_run(seed: int) -> list[tuple[float, str, str]]:
            transport = AsyncTransport(ready_rng=RandomStream(seed))
            try:
                transport.log_deliveries = True
                recorders = {name: _Recorder() for name in ("a", "b", "c", "d")}
                for name, recorder in recorders.items():
                    transport.bind(name, recorder)
                for index in range(24):
                    transport.post(
                        Envelope(
                            source="cli",
                            destination=("a", "b", "c", "d")[index % 4],
                            payload=index,
                        )
                    )
                transport.flush()
                # Simultaneous arrivals may be shuffled, but every endpoint
                # still receives exactly its own messages.
                for offset, recorder in enumerate(recorders.values()):
                    payloads = [e.payload for e in recorder.received]
                    assert sorted(payloads) == list(range(offset, 24, 4))
                return list(transport.delivery_log)
            finally:
                transport.close()

        assert zero_latency_run(1) != zero_latency_run(2)
        assert zero_latency_run(1) == zero_latency_run(1)


class TestNoEventLoop:
    def test_an_async_run_never_imports_asyncio(self, tmp_path):
        """The transport kept its name, not its event loop: a whole
        ``--transport async`` run finishes without asyncio being imported."""
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(['fig4', '--scale-factor', '100', '--phase-periods', '2',\n"
            "             '--transport', 'async', '--quiet', '--output-dir', sys.argv[1]])\n"
            "assert not code, code\n"
            "assert 'repro.net.asyncio_transport' in sys.modules\n"
            "assert 'asyncio' not in sys.modules, 'asyncio was imported'\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
