"""The seven benchmark workloads.

Every workload is a closed loop with one client in the harness's own
process; the only other processes are the socket transport's shard workers
(two, so they never outnumber the cores of the reference machine).  A
workload turns ``--seed`` into the program's inputs — an
:class:`~repro.experiments.runner.ExperimentScale`, keys, envelopes — and the
program only ever sees those.

One *round* builds a fresh deployment (timed as set-up), runs the timed body
(one operation at a time, each stamped), and then checks the outputs outside
the timed region.  An *operation* is one simulated load-check period, one
client lookup, or one delivered envelope.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import resource
import time
from dataclasses import dataclass, field

from perf.trace import Tracer
from repro.core.config import ClashConfig
from repro.core.messages import AcceptObject, LoadReport, MessageCategory
from repro.core.protocol import ClashSystem
from repro.experiments.runner import ExperimentScale
from repro.keys.identifier import RandomKeyGenerator
from repro.keys.keygroup import KeyGroup
from repro.net import Envelope, build_transport
from repro.net.framing import decode_frame, decode_value, encode_frame, encode_value
from repro.sim.simulator import FlowSimulator, SimulationResult
from repro.util.rng import RandomStream, SeedSequenceFactory
from repro.workload.distributions import workload_b, workload_c

__all__ = ["FULL", "MINI", "Round", "Sizes", "WORKLOADS", "Workload"]

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Sizes:
    """How much work one round, and one measurement's set-up sampling, does.

    ``FULL`` is what the benchmark measures; ``MINI`` exists for the warm-up
    pass and the smoke tests, which only need every code path to execute.
    """

    paper_scale: bool
    lookup_servers: int
    lookup_splits: int
    lookups: int
    envelopes: int  # per transport kind and per verb (request, post)
    #: Deployments are built until their set-up times add up to this (between
    #: 5 and 25 of them), so a set-up of a few milliseconds is not judged from
    #: five timer readings.
    setup_seconds: float

    def scale(self) -> ExperimentScale:
        if self.paper_scale:
            return ExperimentScale.paper()
        return ExperimentScale.scaled(factor=50, phase_periods=1)


FULL = Sizes(
    paper_scale=True,
    lookup_servers=1000,
    lookup_splits=4000,
    lookups=20_000,
    envelopes=50_000,
    setup_seconds=0.5,
)
MINI = Sizes(
    paper_scale=False,
    lookup_servers=128,
    lookup_splits=300,
    lookups=200,
    envelopes=500,
    setup_seconds=0.0,
)


@dataclass
class Round:
    """What one round measured and what its checks found."""

    setup_s: float = 0.0
    body_s: float = 0.0
    #: perf_counter_ns when the timed body began (spans before it are set-up).
    body_start_ns: int = 0
    operations: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    op_ns: list[int] = field(default_factory=list)
    #: Time the harness itself spent between operations, as a share of body_s
    #: (the simulator workloads' only harness work in the body is the stamps).
    harness_share: float = 0.0
    #: Hash of the round's outputs; equal digests mean equal outputs.
    digest: str = ""
    #: Simulated results and the program's own counters (all repeat exactly).
    counters: dict[str, float] = field(default_factory=dict)
    #: Host-time measurements that only some workloads take (per-kind µs, ...).
    timings: dict[str, float] = field(default_factory=dict)
    #: Overrides operations / body_s when a workload defines it otherwise.
    ops_per_s: float | None = None

    def fail(self, operations: int, problem: str) -> None:
        """Count ``operations`` as failed (never more than the round attempted)."""
        self.failed = min(self.operations, self.failed + operations)
        self.problems.append(problem)


class Workload:
    """One workload: how to build its deployment, run it and check it."""

    name: str
    why: str

    def reference(self, seed: int, sizes: Sizes) -> SimulationResult | None:
        """The untimed reference run a round on ``seed`` must reproduce, if any."""
        return None

    def setup_once(self, seed: int, sizes: Sizes) -> float:
        """Build the deployment, release it, and return the seconds it took."""
        raise NotImplementedError

    def extra_timings(self, seed: int, sizes: Sizes) -> dict[str, float]:
        """Host-time measurements of a layer taken outside the rounds."""
        return {}

    def run_round(
        self,
        seed: int,
        sizes: Sizes,
        tracer: Tracer | None,
        reference: SimulationResult | None,
    ) -> Round:
        """One round: build, run the timed body, check the outputs."""
        raise NotImplementedError


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _worker_cpu_s() -> float:
    """CPU seconds of every child process reaped so far (the shard workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------- #
# The five simulator workloads
# ---------------------------------------------------------------------- #


class SimulatorWorkload(Workload):
    """A full A -> B -> C scenario; one operation is one load-check period."""

    def __init__(
        self, name: str, why: str, phase_periods: int | None = None, **scale_overrides
    ) -> None:
        self.name = name
        self.why = why
        self._phase_periods = phase_periods
        self._overrides = scale_overrides

    def scale(self, seed: int, sizes: Sizes) -> ExperimentScale:
        scale = dataclasses.replace(sizes.scale(), seed=seed, **self._overrides)
        if self._phase_periods is not None and sizes.paper_scale:
            scale = dataclasses.replace(
                scale, phase_duration=self._phase_periods * scale.load_check_period
            )
        return scale

    def reference(self, seed: int, sizes: Sizes) -> SimulationResult | None:
        """The same scenario on the inline transport (same shards, same churn)."""
        scale = self.scale(seed, sizes)
        if scale.transport == "inline":
            return None
        return _simulator(dataclasses.replace(scale, transport="inline")).run()

    def setup_once(self, seed: int, sizes: Sizes) -> float:
        begin = _clock()
        simulator = _simulator(self.scale(seed, sizes))
        elapsed = (_clock() - begin) / 1e9
        simulator.transport.close()
        return elapsed

    def run_round(self, seed, sizes, tracer, reference) -> Round:
        scale = self.scale(seed, sizes)
        outcome = Round(
            operations=round(scale.scenario().total_duration / scale.load_check_period)
        )
        stamps: list[int] = []

        def stamp(_system, _sample) -> None:
            stamps.append(_clock())
            if tracer is not None:
                tracer.op_id = len(stamps)

        cpu_before = _worker_cpu_s()
        begin = _clock()
        try:
            simulator = _simulator(scale)
            simulator.set_oracles(sample=stamp)
            start = _clock()
            result = simulator.run()
        except Exception as error:  # the round's remaining periods never ran
            outcome.fail(outcome.operations - len(stamps), f"the round raised {error!r}")
            return outcome
        end = _clock()
        outcome.setup_s = (start - begin) / 1e9
        outcome.body_s = (end - start) / 1e9
        outcome.body_start_ns = start
        outcome.op_ns = [later - earlier for earlier, later in zip([start] + stamps, stamps)]
        self._check(outcome, simulator, result, reference)
        self._collect(outcome, simulator, result, _worker_cpu_s() - cpu_before)
        return outcome

    def _check(self, outcome: Round, simulator, result, reference) -> None:
        periods = len(result.metrics.samples)
        if periods != outcome.operations:
            outcome.fail(abs(outcome.operations - periods), f"ran {periods} periods")
        try:
            simulator.system.verify_invariants()
        except AssertionError as error:
            outcome.fail(outcome.operations, f"invariants violated: {error}")
        differences = result.diff(reference) if reference is not None else []
        if differences:
            outcome.fail(
                outcome.operations,
                f"{len(differences)} differences from the {reference.params.transport} "
                f"reference, first: {differences[0]}",
            )
        outcome.digest = _digest(
            result.total_splits,
            result.total_merges,
            result.final_active_groups,
            result.metrics.samples,
        )

    def _collect(self, outcome: Round, simulator, result, worker_cpu_s: float) -> None:
        samples = result.metrics.samples
        notes = result.notes
        reshapes = result.total_splits + result.total_merges
        probes = notes["load_check_probes"] + notes["consolidation_probes"]
        lookups = notes["memo_hits"] + notes["memo_misses"]
        outcome.counters = {
            **notes,
            "sim.metrics.peak_load_pct": max(s.max_load_percent for s in samples),
            "sim.metrics.msgs_per_server_s": sum(
                s.messages_per_server_per_second for s in samples
            )
            / len(samples),
            "groups_reassigned": sum(s.groups_reassigned for s in samples),
            "groups_migrated": sum(s.groups_migrated for s in samples),
            "net.dropped_messages": sum(s.dropped_messages for s in samples),
            "core.protocol.probe_yield": reshapes / probes if probes else 0.0,
            "dht.ring.memo_hit_ratio": notes["memo_hits"] / lookups if lookups else 0.0,
        }
        _collect_worker_stats(outcome, simulator.transport, worker_cpu_s)


def _collect_worker_stats(outcome: Round, transport, worker_cpu_s: float) -> None:
    """What a closed socket transport's shard workers counted (no-op otherwise)."""
    worker_stats = getattr(transport, "final_worker_stats", None)
    if not worker_stats:
        return
    outcome.counters["net.socket.worker_frames"] = sum(
        stats["frames_received"] for stats in worker_stats.values()
    )
    outcome.counters["net.socket.worker_envelopes"] = sum(
        stats["envelopes_decoded"] for stats in worker_stats.values()
    )
    outcome.timings["net.socket.worker_cpu_s"] = worker_cpu_s


def _simulator(scale: ExperimentScale) -> FlowSimulator:
    return FlowSimulator(
        config=scale.config(), params=scale.params(), scenario=scale.scenario()
    )


# ---------------------------------------------------------------------- #
# lookup_storm
# ---------------------------------------------------------------------- #


class LookupWorkload(Workload):
    """Client depth discovery against a deployment skewed by workload C."""

    name = "lookup_storm"
    why = (
        "routing-tier and server-table reads (prefix match, ring memo, depth search); "
        "the balance pass does no work, so a balance-pass change predicts no move"
    )

    _config = ClashConfig(server_capacity=400.0)

    def _build(self, seed: int, sizes: Sizes):
        """The ``benchmarks/bench_depth_search.py`` recipe at paper-scale size."""
        config = self._config
        streams = SeedSequenceFactory(seed)
        system = ClashSystem.create(
            config, server_count=sizes.lookup_servers, rng=streams.stream("ring")
        )
        splitter = RandomKeyGenerator(
            width=config.key_bits,
            base_bits=config.base_bits,
            rng=streams.stream("split-keys"),
            base_weights=workload_c().weights,
        )
        for _ in range(sizes.lookup_splits):
            group, owner = system.find_active_group(splitter.generate())
            if group.depth >= config.effective_max_depth:
                continue
            system.server(owner).set_group_rate(group, 2 * config.server_capacity)
            system.split_server(owner)
        return system, system.make_client("perf-client")

    def _keys(self, seed: int, sizes: Sizes) -> list:
        config = self._config
        return RandomKeyGenerator(
            width=config.key_bits,
            base_bits=config.base_bits,
            rng=SeedSequenceFactory(seed).stream("lookup-keys"),
            base_weights=workload_b().weights,
        ).generate_many(sizes.lookups)

    def setup_once(self, seed: int, sizes: Sizes) -> float:
        begin = _clock()
        self._build(seed, sizes)
        return (_clock() - begin) / 1e9

    def run_round(self, seed, sizes, tracer, reference) -> Round:
        outcome = Round(operations=sizes.lookups)
        keys = self._keys(seed, sizes)
        begin = _clock()
        system, client = self._build(seed, sizes)
        outcome.setup_s = (_clock() - begin) / 1e9
        results = []
        op_ns = outcome.op_ns
        find_group = client.find_group
        built = system.dht_stats()
        start = outcome.body_start_ns = _clock()
        try:
            for index, key in enumerate(keys):
                if tracer is not None:
                    tracer.op_id = index
                before = _clock()
                result = find_group(key, use_cache=False)
                op_ns.append(_clock() - before)
                results.append(result)
        except Exception as error:  # the round's remaining lookups never ran
            outcome.fail(len(keys) - len(results), f"lookup raised {error!r}")
        outcome.body_s = (_clock() - start) / 1e9
        outcome.harness_share = 1.0 - sum(op_ns) / 1e9 / outcome.body_s
        wrong = [
            (key, result)
            for key, result in zip(keys, results)
            if (result.group, result.server) != system.find_active_group(key)
        ]
        if wrong:
            key, result = wrong[0]
            outcome.fail(
                len(wrong),
                f"{len(wrong)} lookups disagree with find_active_group, first: "
                f"{key} -> {result.group} on {result.server}",
            )
        try:
            system.verify_invariants()
        except AssertionError as error:
            outcome.fail(outcome.operations, f"invariants violated: {error}")
        outcome.digest = _digest([(r.group, r.server, r.probes) for r in results])
        # The routing tier's counters run from construction; the body's share
        # is what the lookups added.
        stats = {name: value - built[name] for name, value in system.dht_stats().items()}
        lookups = stats["memo_hits"] + stats["memo_misses"]
        outcome.counters = {
            **stats,
            "core.client.probes_per_lookup": sum(r.probes for r in results) / max(1, len(results)),
            "dht.ring.memo_hit_ratio": stats["memo_hits"] / lookups if lookups else 0.0,
        }
        return outcome


# ---------------------------------------------------------------------- #
# plane_sweep
# ---------------------------------------------------------------------- #

PLANE_KINDS = ("inline", "batching", "event", "async", "socket")
_PLANE_ENDPOINTS = 64
_PLANE_SHARDS = 2
_PLANE_BATCH = 1000
"""Envelopes per timed batch; posts are flushed at every batch boundary."""


class PlaneWorkload(Workload):
    """Bare forwarding: every shipped transport kind, handlers empty."""

    name = "plane_sweep"
    why = (
        "bare forwarding of the smallest real envelopes through every shipped transport "
        "kind with empty handlers: the message plane is all of the time"
    )

    def _corpus(self, seed: int) -> tuple[list[Envelope], list[Envelope]]:
        """One batch of ACCEPT_OBJECT requests and one of LOAD_REPORT posts."""
        rng = RandomStream(seed)
        config = ClashConfig()
        keys = RandomKeyGenerator(
            width=config.key_bits, base_bits=config.base_bits, rng=rng
        ).generate_many(_PLANE_BATCH)
        requests, posts = [], []
        for key in keys:
            depth = rng.randint(config.initial_depth, config.key_bits)
            server = f"s{rng.randint(0, _PLANE_ENDPOINTS - 1)}"
            child = f"s{rng.randint(0, _PLANE_ENDPOINTS - 1)}"
            requests.append(
                Envelope(
                    source="perf-client",
                    destination=server,
                    payload=AcceptObject(key=key, estimated_depth=depth, sender="perf-client"),
                    category=MessageCategory.LOOKUP,
                )
            )
            posts.append(
                Envelope(
                    source=child,
                    destination=server,
                    payload=LoadReport(
                        group=KeyGroup.from_key(key, depth),
                        child_server=child,
                        load=rng.uniform(0.0, config.server_capacity),
                    ),
                    category=MessageCategory.MERGE,
                )
            )
        return requests, posts

    def _bound_transport(self, kind: str, handler):
        transport = build_transport(kind)
        for index in range(_PLANE_ENDPOINTS):
            transport.bind(f"s{index}", handler, shard=index % _PLANE_SHARDS)
        return transport

    def setup_once(self, seed: int, sizes: Sizes) -> float:
        elapsed = 0
        for kind in PLANE_KINDS:
            begin = _clock()
            transport = self._bound_transport(kind, lambda _envelope: None)
            elapsed += _clock() - begin
            transport.close()
        return elapsed / 1e9

    def run_round(self, seed, sizes, tracer, reference) -> Round:
        batch = min(_PLANE_BATCH, sizes.envelopes)
        batches = sizes.envelopes // batch
        corpora = {
            verb: corpus[:batch]
            for verb, corpus in zip(("request", "post"), self._corpus(seed))
        }
        per_kind = 2 * batches * batch
        outcome = Round(operations=per_kind * len(PLANE_KINDS), body_start_ns=_clock())
        rates = []
        for kind in PLANE_KINDS:
            handled = 0

            def handler(_envelope) -> None:
                nonlocal handled
                handled += 1

            cpu_before = _worker_cpu_s()
            begin = _clock()
            transport = self._bound_transport(kind, handler)
            outcome.setup_s += (_clock() - begin) / 1e9
            spent = 0
            try:
                for verb, corpus in corpora.items():
                    send = getattr(transport, verb)
                    verb_ns = 0
                    for index in range(batches):
                        if tracer is not None:
                            tracer.op_id = index
                        before = _clock()
                        for envelope in corpus:
                            send(envelope)
                        transport.flush()
                        elapsed = _clock() - before
                        verb_ns += elapsed
                        outcome.op_ns.append(elapsed // batch)
                        # Unread latency samples would otherwise pile up on the
                        # transports that model time.
                        transport.drain_latency_samples()
                    outcome.timings[f"net.{kind}.{verb}_us"] = verb_ns / 1e3 / (batches * batch)
                    spent += verb_ns
            except Exception as error:  # the kind's remaining envelopes never went
                outcome.fail(per_kind - handled, f"{kind} raised {error!r}")
                continue
            finally:
                transport.close()
            _collect_worker_stats(outcome, transport, _worker_cpu_s() - cpu_before)
            if handled != per_kind:
                outcome.fail(
                    abs(per_kind - handled),
                    f"{kind} invoked {handled} handlers for {per_kind} envelopes",
                )
            outcome.body_s += spent / 1e9
            rates.append(per_kind / (spent / 1e9))
            outcome.counters[f"net.{kind}.handled"] = handled
        if rates:
            # The kinds differ by two orders of magnitude; the geometric mean
            # weighs a 10 % change of any one of them the same.
            outcome.ops_per_s = math.exp(sum(map(math.log, rates)) / len(rates))
        outcome.digest = _digest(sorted(outcome.counters.items()))
        return outcome

    def extra_timings(self, seed: int, sizes: Sizes) -> dict[str, float]:
        """Direct codec cost over the sweep's envelopes (no socket involved)."""
        requests, posts = self._corpus(seed)
        corpus = requests + posts
        passes = max(1, sizes.envelopes // 5000)
        start = _clock()
        for _ in range(passes):
            frames = [encode_frame(encode_value(envelope)) for envelope in corpus]
        encoded = _clock()
        for _ in range(passes):
            decoded = [decode_value(decode_frame(frame[4:])) for frame in frames]
        end = _clock()
        if decoded != corpus:
            raise AssertionError("the framing round trip changed an envelope")
        count = passes * len(corpus)
        return {
            "net.framing.encode_us": (encoded - start) / 1e3 / count,
            "net.framing.decode_us": (end - encoded) / 1e3 / count,
            "net.framing.bytes_per_envelope": sum(map(len, frames)) / len(frames),
        }


_CHURN = {"join_rate": 0.005, "fail_rate": 0.005}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SimulatorWorkload(
            "paper_calm",
            "the paper's Section 6.1 run, inline, no churn: the balance pass dominates and "
            "no membership event happens, so membership and routing-write changes bypass it",
        ),
        SimulatorWorkload(
            "paper_churn",
            "the same run under Poisson joins and failures at 0.005/s: adds handoff, "
            "incremental stabilise and memo and report-diff invalidation to the balance pass",
            **_CHURN,
        ),
        # The two transport workloads run one simulated hour instead of six.  How
        # much a round has to do varies with the seed by far more than the host's
        # noise, so a run needs several seeds to be steady, and a six-hour round
        # on these transports leaves room for one or two.
        SimulatorWorkload(
            "async_churn",
            "the paper_churn deployment on the asyncio transport, 4 periods a phase: message "
            "plane with a virtual clock; load reports are exchanged in full, not as a diff",
            phase_periods=4,
            transport="async",
            **_CHURN,
        ),
        SimulatorWorkload(
            "socket_churn",
            "the paper_churn deployment over two shard worker processes, 4 periods a phase: "
            "framing and IPC dominate; the evidence for deciding the socket plane",
            phase_periods=4,
            transport="socket",
            shards=2,
            **_CHURN,
        ),
        SimulatorWorkload(
            "membership_storm",
            "20x the churn on four adaptively partitioned shards: routing-tier writes, "
            "the sharded router, partition rebalances and group migration",
            shards=4,
            partition="adaptive",
            join_rate=0.1,
            fail_rate=0.1,
        ),
        LookupWorkload(),
        PlaneWorkload(),
    )
}
