"""Unit tests for the multi-process socket transport (repro.net.socket_transport).

The golden equivalence batteries (test_equivalence.py,
test_sharded_equivalence.py) already hold socket runs bit-identical to
inline; these tests pin the transport's own mechanics — worker lifecycle and
teardown, the wire protocol's sequencing rules, batching semantics, and the
bound-state mirror the workers keep.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.messages import AcceptObject, AcceptObjectReply, ReplyStatus
from repro.keys.identifier import IdentifierKey
from repro.net import build_transport
from repro.net.envelope import DhtAddress, Envelope
from repro.net.transport import TransportError

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="socket transport needs a POSIX fork"
)


def _envelope(destination, payload=None) -> Envelope:
    payload = payload if payload is not None else AcceptObject(
        key=IdentifierKey(5, 24), estimated_depth=2, sender="cli"
    )
    return Envelope(source="cli", destination=destination, payload=payload)


class _Recorder:
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


@pytest.fixture
def transport():
    built = build_transport("socket")
    yield built
    built.close()


class TestBuiltOnBatching:
    def test_the_plane_is_inherited_not_copied(self):
        """One copy of the route cache, outbox and dispatch loop: the socket
        transport adds the carrier (``request``, ``flush``, the bound-state
        mirror, the lifecycle) and nothing else."""
        from repro.net.batching import BatchingTransport
        from repro.net.socket_transport import SocketTransport

        assert issubclass(SocketTransport, BatchingTransport)
        own = vars(SocketTransport)
        for inherited in ("post", "resolve", "pending", "invalidate_routes", "_route"):
            assert inherited not in own
            assert getattr(SocketTransport, inherited) is getattr(BatchingTransport, inherited)
        assert {"request", "flush"} <= own.keys()


class TestDelivery:
    def test_request_reply_round_trip(self, transport):
        reply = AcceptObjectReply(status=ReplyStatus.OK, server="srv", correct_depth=3)
        transport.bind("srv", _Recorder(reply=reply))
        delivery = transport.request(_envelope("srv"))
        assert delivery.reply == reply
        assert delivery.server == "srv"
        assert transport.envelopes_delivered == 1

    def test_request_to_unbound_endpoint_raises(self, transport):
        transport.bind("srv", _Recorder())
        transport.unbind("srv")
        with pytest.raises(TransportError):
            transport.request(_envelope("srv"))

    def test_posts_are_deferred_until_flush(self, transport):
        handler = _Recorder()
        transport.bind("srv", handler)
        transport.post(_envelope("srv"))
        transport.post(_envelope("srv"))
        assert handler.received == []
        assert transport.pending == 2
        assert transport.flush() == 2
        assert len(handler.received) == 2
        assert transport.pending == 0

    def test_flush_packs_batches_per_destination(self, transport):
        handlers = {name: _Recorder() for name in ("a", "b")}
        for shard, (name, handler) in enumerate(handlers.items()):
            transport.bind(name, handler, shard=shard)
        for index in range(6):
            transport.post(_envelope("a" if index % 2 == 0 else "b"))
        assert transport.flush() == 6
        stats = transport.socket_stats()
        # One BATCH frame per destination, decoded on the owner shard's core.
        assert stats[0]["batches_received"] == 1
        assert stats[0]["envelopes_decoded"] == 3
        assert stats[1]["batches_received"] == 1
        assert stats[1]["envelopes_decoded"] == 3

    def test_route_cache_replays_identical_hop_charges(self, transport):
        transport.bind("owner", _Recorder(reply="ok"))
        calls = []

        def resolver(key):
            calls.append(key.value)
            return _FakeLookup("owner", 7)

        transport.set_resolver(resolver)
        key = IdentifierKey(42, 24)
        first = transport.request(_envelope(DhtAddress(key)))
        second = transport.request(_envelope(DhtAddress(key)))
        assert first.hops == second.hops == 7
        assert calls == [42]
        assert transport.route_cache_hits == 1
        transport.flush()  # a flush closes the window
        transport.request(_envelope(DhtAddress(key)))
        assert calls == [42, 42]

    def test_handler_unbinding_own_endpoint_mid_batch_drops_remainder(self, transport):
        """Same contract as the (fixed) batching transport: a handler that
        unbinds its own endpoint mid-batch drops the remainder, counted."""
        received = []

        def self_unbinding(envelope):
            received.append(envelope)
            transport.unbind("srv")

        transport.bind("srv", self_unbinding)
        for _ in range(3):
            transport.post(_envelope("srv"))
        assert transport.flush() == 1
        assert len(received) == 1
        assert transport.dropped_messages == 2

    def test_envelopes_for_failed_endpoints_are_dropped_at_flush(self, transport):
        transport.bind("srv", _Recorder())
        transport.post(_envelope("srv"))
        transport.unbind("srv")
        assert transport.flush() == 0
        assert transport.dropped_messages == 1


class TestWorkerLifecycle:
    def test_one_worker_per_shard_spawned_lazily(self, transport):
        assert transport.worker_pids() == {}
        transport.bind("a", _Recorder(), shard=0)
        assert set(transport.worker_pids()) == {0}
        transport.bind("b", _Recorder(), shard=3)
        pids = transport.worker_pids()
        assert set(pids) == {0, 3}
        assert len(set(pids.values())) == 2  # distinct processes
        for pid in pids.values():
            assert pid != os.getpid()

    def test_workers_mirror_bound_state(self, transport):
        transport.bind("a", _Recorder(), shard=0)
        transport.bind("b", _Recorder(), shard=0)
        transport.unbind("b")
        stats = transport.socket_stats()
        assert stats[0]["binds"] == 2
        assert stats[0]["unbinds"] == 1

    def test_close_tears_down_every_worker_process(self):
        transport = build_transport("socket")
        transport.bind("a", _Recorder(), shard=0)
        transport.bind("b", _Recorder(), shard=1)
        transport.request(_envelope("a"))
        processes = [handle.process for handle in transport._workers.values()]
        assert all(process.is_alive() for process in processes)
        transport.close()
        assert transport.closed
        assert transport.worker_pids() == {}
        assert multiprocessing.active_children() == []
        # The BYE handshake delivered each worker's final counters.
        assert transport.final_worker_stats[0]["requests_served"] == 1

    def test_close_is_idempotent(self, transport):
        transport.bind("srv", _Recorder())
        transport.close()
        transport.close()
        assert transport.closed

    def test_closed_transport_refuses_new_workers(self, transport):
        transport.close()
        with pytest.raises(TransportError):
            transport.bind("srv", _Recorder(), shard=1)

    def test_flow_simulator_closes_the_transport(self):
        """The satellite lifecycle fix: FlowSimulator.run() must close its
        transport deterministically — no worker may outlive the run."""
        from repro.experiments.runner import ExperimentScale
        from repro.sim.simulator import FlowSimulator

        scale = ExperimentScale.scaled(factor=100, phase_periods=1)
        simulator = FlowSimulator(
            config=scale.config(),
            params=scale.params(transport="socket"),
            scenario=scale.scenario(),
        )
        assert not simulator.transport.closed
        simulator.run()
        assert simulator.transport.closed
        assert multiprocessing.active_children() == []


class TestWireProtocol:
    def test_sequence_numbers_are_per_connection_monotone(self, transport):
        transport.bind("a", _Recorder(reply="r"), shard=0)
        transport.bind("b", _Recorder(), shard=1)
        for _ in range(3):
            transport.request(_envelope("a"))
        transport.post(_envelope("b"))
        transport.flush()
        # Each connection counts its own frames: 3 REQs on shard 0's
        # connection, 1 BATCH on shard 1's.
        assert transport._workers[0].seq == 3
        assert transport._workers[1].seq == 1

    def test_worker_rejects_a_sequence_gap(self, transport):
        transport.bind("srv", _Recorder(reply="r"))
        transport.request(_envelope("srv"))
        handle = transport._workers[0]
        handle.seq += 5  # desynchronize the stream on purpose
        with pytest.raises(TransportError, match="expected seq"):
            transport.request(_envelope("srv"))

    def test_worker_rejects_a_replayed_sequence_number(self, transport):
        transport.bind("srv", _Recorder(reply="r"))
        transport.request(_envelope("srv"))
        handle = transport._workers[0]
        handle.seq -= 1  # replay the previous sequence number
        with pytest.raises(TransportError, match="expected seq"):
            transport.request(_envelope("srv"))

    def test_stats_round_trip_counts_wire_work(self, transport):
        transport.bind("srv", _Recorder(reply="r"))
        transport.request(_envelope("srv"))
        for _ in range(4):
            transport.post(_envelope("srv"))
        transport.flush()
        stats = transport.socket_stats()[0]
        assert stats["requests_served"] == 1
        assert stats["batches_received"] == 1
        assert stats["envelopes_decoded"] == 5
