"""Outside-in span tracing for the CLASH benchmark.

The program under test has no tracing of its own, so the benchmark records
spans from here: :class:`Tracer` wraps the *public* methods listed in
:func:`program_targets` at class level, one span per call, and restores
every attribute on exit.  A layer's self time is its spans' duration minus
the part their child spans cover, so the layers' self times add up to the
duration of the outermost spans (``FlowSimulator.run``, or each
``ClashClient.find_group`` in the lookup workload).

Install the tracer *before* the deployment is constructed:
``ClashSystem.__init__`` hands ``router.lookup`` to the transport as a bound
method, which captures whatever the class attribute is at that moment.

Tracing and timing never share a round; :func:`wrappers_installed` is the
check the harness asserts on before every timed round.
"""

from __future__ import annotations

import json
import pathlib
import time
from array import array
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "LayerTotals",
    "Span",
    "Target",
    "Tracer",
    "program_targets",
    "wrappers_installed",
]

_FIELDS = 6
"""Integers stored per span: id, parent id, op id, layer index, start, end."""

_MARK = "_perf_trace_layer"
"""Attribute carried by every installed wrapper (see wrappers_installed)."""


class Target(NamedTuple):
    """One method to wrap: ``owner.name`` is recorded under ``layer``."""

    owner: type
    name: str
    layer: str


class Span(NamedTuple):
    """One recorded call."""

    id: int
    parent_id: int  # -1 for an outermost span
    op_id: int  # the harness's operation counter when the call started
    layer: str
    start_ns: int
    end_ns: int


class LayerTotals(NamedTuple):
    """Aggregate of one layer's spans."""

    calls: int
    total_ns: int  # sum of span durations (children included)
    self_ns: int  # total_ns minus the time covered by child spans


def program_targets() -> list[Target]:
    """The public methods of the program that bound each layer, named after
    the module the layer lives in.

    Imported lazily so this module loads (and its toy-class tests run)
    without the program on ``sys.path``.
    """
    from repro.core.client import ClashClient
    from repro.core.protocol import ClashSystem
    from repro.core.server import ClashServer
    from repro.core.server_table import ServerTable
    from repro.dht.ring import ChordRing
    from repro.dht.router import ShardedRingRouter, SingleRingRouter
    from repro.net.asyncio_transport import AsyncTransport
    from repro.net.batching import BatchingTransport
    from repro.net.event import EventTransport
    from repro.net.inline import InlineTransport
    from repro.net.socket_transport import SocketTransport
    from repro.net.transport import Transport
    from repro.sim.loadmeasure import LoadMeasure
    from repro.sim.simulator import FlowSimulator

    targets = [
        Target(FlowSimulator, "run", "sim.simulator.run"),
        Target(LoadMeasure, "assign_rates", "sim.loadmeasure.assign_rates"),
        Target(LoadMeasure, "rate_by_prefix", "sim.loadmeasure.rate_by_prefix"),
        Target(ClashSystem, "run_load_check", "core.protocol.run_load_check"),
        Target(ClashSystem, "split_server", "core.protocol.split_server"),
        Target(ClashSystem, "consolidate_server", "core.protocol.consolidate_server"),
        Target(ClashSystem, "exchange_load_reports", "core.protocol.exchange_load_reports"),
        Target(ClashSystem, "handle_server_join", "core.protocol.membership"),
        Target(ClashSystem, "handle_server_failure", "core.protocol.membership"),
        Target(ClashSystem, "rebalance_partition", "core.protocol.rebalance_partition"),
        Target(ClashSystem, "route_accept_object", "core.protocol.route_accept_object"),
        Target(ClashServer, "handle_accept_object", "core.server.handlers"),
        Target(ClashServer, "accept_keygroup", "core.server.handlers"),
        Target(ClashServer, "release_group", "core.server.handlers"),
        Target(ClashServer, "receive_load_report", "core.server.handlers"),
        Target(ClashServer, "set_group_rate", "core.server.set_rates"),
        Target(ClashServer, "set_group_query_count", "core.server.set_rates"),
        Target(ServerTable, "longest_prefix_match", "core.server_table.prefix_match"),
        Target(ServerTable, "active_group_for", "core.server_table.prefix_match"),
        Target(ClashClient, "find_group", "core.client.find_group"),
        Target(ChordRing, "lookup_key", "dht.ring.lookup_key"),
        Target(ChordRing, "stabilise", "dht.ring.stabilise"),
    ]
    for router in (SingleRingRouter, ShardedRingRouter):
        for name in ("lookup", "owner_of_key", "stabilise"):
            targets.append(Target(router, name, f"dht.router.{name}"))
    # The message plane is whichever concrete transport the workload built;
    # a method a subclass inherits is wrapped once, on the class defining it.
    for transport in (
        Transport,
        InlineTransport,
        BatchingTransport,
        EventTransport,
        AsyncTransport,
        SocketTransport,
    ):
        for name in ("request", "post", "flush"):
            method = vars(transport).get(name)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                targets.append(Target(transport, name, f"net.{name}"))
    return targets


def wrappers_installed(targets: Iterable[Target]) -> list[str]:
    """``Owner.name`` of every target whose attribute is a trace wrapper."""
    return [
        f"{target.owner.__name__}.{target.name}"
        for target in targets
        if hasattr(vars(target.owner).get(target.name), _MARK)
    ]


class Tracer:
    """Context manager recording one in-memory span per wrapped call.

    The harness sets :attr:`op_id` to the index of the operation in flight
    (a load-check period, a lookup); every span started meanwhile carries it.
    """

    def __init__(self, targets: Iterable[Target], clock=time.perf_counter_ns) -> None:
        self._targets = list(targets)
        self._clock = clock  # replaceable so tests can make time exact
        self._layers: list[str] = []
        self._records = array("q")
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[type, str, object]] = []
        self.op_id = 0

    def __enter__(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("the tracer is already installed")
        already = wrappers_installed(self._targets)
        if already:
            raise RuntimeError(f"trace wrappers already installed on {already}")
        for owner, name, layer in self._targets:
            original = vars(owner)[name]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{owner.__name__}.{name} is not a plain method")
            if layer not in self._layers:
                self._layers.append(layer)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, self._layers.index(layer)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _wrap(self, function, layer_index: int):
        records = self._records
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent_id = stack[-1] if stack else -1
            op_id = self.op_id
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.extend((span_id, parent_id, op_id, layer_index, start, end))

        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function
        setattr(traced, _MARK, self._layers[layer_index])
        return traced

    # ------------------------------------------------------------------ #
    # Reading the recording
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._records) // _FIELDS

    def spans(self) -> Iterator[Span]:
        """Every finished span, in the order the calls returned."""
        records = self._records
        layers = self._layers
        for base in range(0, len(records), _FIELDS):
            span_id, parent_id, op_id, layer_index, start, end = records[base : base + _FIELDS]
            yield Span(span_id, parent_id, op_id, layers[layer_index], start, end)

    def _self_times(self, since_ns: int) -> Iterator[tuple[Span, int]]:
        """Each span started at or after ``since_ns`` with its self time
        (duration minus the duration of its direct children)."""
        covered: dict[int, int] = defaultdict(int)
        for span in self.spans():
            covered[span.parent_id] += span.end_ns - span.start_ns
        for span in self.spans():
            if span.start_ns >= since_ns:
                yield span, span.end_ns - span.start_ns - covered.get(span.id, 0)

    def layer_totals(self, since_ns: int = 0) -> dict[str, LayerTotals]:
        """Calls, total and self time per layer (layers never entered: absent).

        ``since_ns`` drops the spans started earlier, which is how the harness
        keeps a deployment's construction out of the timed body's shares.
        """
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for span, self_ns in self._self_times(since_ns):
            calls[span.layer] += 1
            total[span.layer] += span.end_ns - span.start_ns
            own[span.layer] += self_ns
        return {
            layer: LayerTotals(calls[layer], total[layer], own[layer]) for layer in calls
        }

    def op_self_times(self, since_ns: int = 0) -> dict[int, dict[str, int]]:
        """Self time per layer within each operation: ``{op_id: {layer: ns}}``."""
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span, self_ns in self._self_times(since_ns):
            per_op[span.op_id][span.layer] += self_ns
        return {op_id: dict(layers) for op_id, layers in per_op.items()}

    def write(self, path: pathlib.Path) -> None:
        """Write the spans: a JSON header line, then the raw int64 records.

        Read back with ``array('q').frombytes`` on everything after the first
        newline; ``fields`` in the header names the integers of one record.
        """
        header = {
            "fields": ["id", "parent_id", "op_id", "layer_index", "start_ns", "end_ns"],
            "layers": self._layers,
            "spans": len(self),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            self._records.tofile(handle)
