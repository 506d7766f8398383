"""The async transport's delivery-order rule, pinned two ways.

``golden_async_order.json`` holds full delivery logs recorded on the last
commit whose :class:`~repro.net.asyncio_transport.AsyncTransport` still ran an
asyncio event loop (385c38d): there the order inside a batch of
simultaneously-ready envelopes fell out of asyncio's FIFO ready queue and one
drainer task per endpoint.  The synchronous drain that replaced the loop must
reproduce every log byte for byte.  The hypothesis property below states the
rule directly, so it stays checkable without the recording:

    envelopes become ready in ``(ready_at, tie_break, send order)`` order;
    each batch of equal ``ready_at`` is delivered grouped by destination,
    destinations in order of their first envelope in the batch, FIFO within a
    destination; whatever a handler posts lands in a later batch.

Re-record (only ever from a commit whose order is known good) with::

    PYTHONPATH=src python tests/net/test_async_order.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.asyncio_transport import AsyncTransport
from repro.net.envelope import Envelope
from repro.net.latency import ConstantLatency, UniformLatency, ZeroLatency
from repro.net.replay import TieTape
from repro.net.transport import DeliveryFailed
from repro.util.rng import RandomStream

GOLDEN_PATH = Path(__file__).with_name("golden_async_order.json")

SEEDS = (0, 1, 7, 42, 20040324)
LATENCIES = ("zero", "constant", "uniform")
ENDPOINT_MIXES = (1, 4)
POSTS = 24


class _CoarseUniform(UniformLatency):
    """Jitter rounded to two decimals: coarse enough that some envelopes tie
    on ``ready_at`` and share a batch, fine enough that most do not."""

    def sample(self, source: str, destination: str, hops: int) -> float:
        return round(super().sample(source, destination, hops), 2)


def _latency(kind: str, seed: int):
    if kind == "zero":
        return ZeroLatency()
    if kind == "constant":
        return ConstantLatency(0.25)
    return _CoarseUniform(0.0, 0.2, RandomStream(900 + seed))


def scenario_log(seed: int, latency: str, endpoints: int) -> list[list]:
    """One recorded run: posts, follow-up posts from a handler, a request,
    and an endpoint unbound with traffic in flight.  Public surface only, so
    the same function records on either side of the rewrite."""
    transport = AsyncTransport(
        latency=_latency(latency, seed), ready_rng=RandomStream(seed)
    )
    try:
        transport.enable_delivery_log(limit=None)
        names = [f"e{index}" for index in range(endpoints)] + ["doomed", "echo"]

        def chatty(envelope: Envelope):
            # Every third delivery posts a follow-up: it must land in a later
            # batch even when its latency is zero.
            if isinstance(envelope.payload, int) and envelope.payload % 3 == 0:
                transport.post(
                    Envelope(source=envelope.destination, destination="echo", payload="follow")
                )
            return envelope.payload

        for name in names:
            transport.bind(name, chatty)
        for index in range(POSTS):
            transport.post(
                Envelope(source="cli", destination=names[index % endpoints], payload=index)
            )
        transport.post(Envelope(source="cli", destination="doomed", payload="lost"))
        transport.unbind("doomed")
        transport.flush()
        for index in range(POSTS // 2):
            transport.post(
                Envelope(source="cli", destination=names[index % endpoints], payload=index)
            )
        reply = transport.request(Envelope(source="cli", destination="e0", payload="req"))
        assert reply.reply == "req"
        # A request racing the post whose handler unbinds its destination:
        # which of the two is ready first is the schedule's call.
        transport.bind("doomed", chatty)
        transport.bind("killer", lambda envelope: transport.unbind("doomed"))
        transport.post(Envelope(source="cli", destination="e0", payload=3))
        transport.post(Envelope(source="cli", destination="killer", payload="kill"))
        try:
            transport.request(Envelope(source="cli", destination="doomed", payload="req"))
            cancelled = False
        except DeliveryFailed:
            cancelled = True
        transport.flush()
        log = [[when, server, kind] for when, server, kind in transport.delivery_log]
        log.append(["cancelled", cancelled, "dropped", transport.dropped_messages])
        log.append(["now", transport.now])
        return log
    finally:
        transport.close()


def _scenario_id(seed: int, latency: str, endpoints: int) -> str:
    return f"seed{seed}-{latency}-{endpoints}ep"


SCENARIOS = [
    (seed, latency, endpoints)
    for seed in SEEDS
    for latency in LATENCIES
    for endpoints in ENDPOINT_MIXES
]


@pytest.fixture(scope="module")
def golden() -> dict[str, list]:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenDeliveryOrder:
    def test_the_recording_covers_every_scenario(self, golden):
        assert sorted(golden) == sorted(_scenario_id(*scenario) for scenario in SCENARIOS)

    @pytest.mark.parametrize(
        "seed, latency, endpoints", SCENARIOS, ids=[_scenario_id(*s) for s in SCENARIOS]
    )
    def test_drain_reproduces_the_recorded_log(self, golden, seed, latency, endpoints):
        recorded = golden[_scenario_id(seed, latency, endpoints)]
        produced = json.loads(json.dumps(scenario_log(seed, latency, endpoints)))
        assert produced == recorded

    def test_the_scenarios_exercise_shared_batches_and_shuffles(self, golden):
        """Guard the recording itself: it must contain batches spanning
        several destinations in non-sorted order, or it pins nothing."""
        log = golden[_scenario_id(42, "zero", 4)]
        first_batch = [server for _when, server, _kind in log[:POSTS]]
        runs = [server for server, _run in itertools.groupby(first_batch)]
        assert len(runs) == len(set(runs)) == 4  # grouped by destination ...
        assert runs != sorted(runs)  # ... in shuffle order, not name order


# ---------------------------------------------------------------------- #
# The rule, stated directly
# ---------------------------------------------------------------------- #


class _Delays:
    """A latency model replaying a fixed list of delays, in send order."""

    def __init__(self, delays: list[float]) -> None:
        self._delays = list(delays)

    def sample(self, source: str, destination: str, hops: int) -> float:
        return self._delays.pop(0)


def expected_order(sends: list[tuple[float, float, str]]) -> list[tuple[float, str, int]]:
    """The rule as a reference model: ``sends`` are ``(delay, tie, destination)``
    in send order; returns ``(time, destination, send index)`` in delivery order."""
    calendar = sorted(
        (delay, tie, index, destination)
        for index, (delay, tie, destination) in enumerate(sends)
    )
    delivered: list[tuple[float, str, int]] = []
    position = 0
    while position < len(calendar):
        now = calendar[position][0]
        batch: dict[str, list[int]] = {}
        while position < len(calendar) and calendar[position][0] == now:
            _ready, _tie, index, destination = calendar[position]
            batch.setdefault(destination, []).append(index)
            position += 1
        for destination, indexes in batch.items():
            delivered.extend((now, destination, index) for index in indexes)
    return delivered


_sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]),  # few distinct delays: batches are shared
        st.sampled_from([0.0, 0.25, 0.5, 0.75]),  # few distinct ties: send order decides
        st.sampled_from(["a", "b", "c", "d"]),
    ),
    min_size=1,
    max_size=40,
)


class TestBatchOrderRule:
    @settings(max_examples=200, deadline=None)
    @given(sends=_sends)
    def test_batches_group_by_destination_in_first_flight_order(self, sends):
        transport = AsyncTransport(
            latency=_Delays([delay for delay, _tie, _dest in sends]),
            ready_rng=TieTape({index: tie for index, (_delay, tie, _dest) in enumerate(sends)}),
        )
        delivered: list[tuple[float, str, int]] = []
        for name in "abcd":
            transport.bind(
                name,
                lambda envelope, name=name: delivered.append(
                    (transport.now, name, envelope.payload)
                ),
            )
        for index, (_delay, _tie, destination) in enumerate(sends):
            transport.post(Envelope(source="cli", destination=destination, payload=index))
        assert transport.flush() == len(sends)
        transport.close()
        assert delivered == expected_order(sends)

    def test_a_handlers_post_waits_for_the_next_batch(self):
        """Zero latency: the follow-up is ready at the current instant, yet
        the batch being delivered was fixed when it left the calendar."""
        transport = AsyncTransport()
        order: list[str] = []

        def first(envelope: Envelope):
            order.append(f"first:{envelope.payload}")
            transport.post(Envelope(source="first", destination="second", payload="late"))

        transport.bind("first", first)
        transport.bind("second", lambda envelope: order.append(f"second:{envelope.payload}"))
        transport.post(Envelope(source="cli", destination="first", payload=0))
        transport.post(Envelope(source="cli", destination="second", payload="early"))
        transport.post(Envelope(source="cli", destination="first", payload=1))
        assert transport.flush() == 3
        transport.close()
        assert order == ["first:0", "first:1", "second:early", "second:late", "second:late"]


def recording_text() -> str:
    """What a recording of every scenario writes to ``GOLDEN_PATH``
    (``tools/record_goldens.py`` requires the committed file to equal it)."""
    return (
        json.dumps(
            {_scenario_id(*scenario): scenario_log(*scenario) for scenario in SCENARIOS},
            indent=0,
        )
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover - recording entry point
    GOLDEN_PATH.write_text(recording_text())
    print(f"recorded {len(SCENARIOS)} scenarios to {GOLDEN_PATH}")
