"""The flow-level CLASH simulator behind the paper-scale experiments.

The simulator advances in LOAD_CHECK_PERIOD steps (5 minutes in the paper).
Each period it:

1. looks up the active workload phase (A → B → C),
2. assigns every active key group its *expected* data rate and stored-query
   count under that workload (see :class:`~repro.sim.loadmeasure.LoadMeasure`),
3. lets the CLASH protocol react — overloaded servers split their hottest
   groups, under-loaded servers exchange load reports and consolidate cold
   sibling pairs — iterating load assignment and load checks until the
   configuration stabilises for the period,
4. charges the period's client traffic: every virtual-stream key change and
   every newly arriving query performs a real depth-discovery search (a sample
   of searches is executed through the actual client/server message exchange
   and the remainder is extrapolated from the sampled cost), and clients
   redirected by splits or merges re-resolve their keys,
5. records a :class:`~repro.sim.metrics.PeriodSample`.

The same class also runs the *fixed-depth* baseline (``DHT(x)``): the key
space is partitioned once at depth ``x`` and no splits or merges ever happen,
which is exactly the paper's non-adaptive comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.config import ClashConfig
from repro.core.messages import MessageCategory
from repro.core.protocol import ClashSystem
from repro.dht.partition import PARTITION_KINDS, LoadProportionalPartition, PartitionMap
from repro.net import TRANSPORT_KINDS, ConstantLatency, build_transport, transport_spec
from repro.net.replay import ChurnEvent, RebalanceEvent, ReplaySchedule
from repro.sim.engine import SimulationEngine
from repro.sim.loadmeasure import LoadMeasure
from repro.sim.metrics import (
    MetricsRecorder,
    PeriodSample,
    PhaseSummary,
    diff_sample_streams,
)
from repro.util.rng import SeedSequenceFactory
from repro.util.stats import mean
from repro.util.validation import check_positive, check_power_of_two, check_type
from repro.workload.distributions import WorkloadSpec
from repro.workload.queries import QueryPopulation
from repro.workload.scenario import PhasedScenario, ScenarioPhase
from repro.workload.sources import SourcePopulation

__all__ = ["SimulationParams", "SimulationResult", "FlowSimulator"]


@dataclass(frozen=True)
class SimulationParams:
    """Scale and workload parameters of one simulation run.

    The paper's full-scale configuration is 1000 servers, 100,000 data-source
    client nodes (plus 50,000 query clients in Figure 5's case B), Ld = 1000
    packets, Lq = 30 minutes and a 6-hour scenario; :meth:`paper_scale`
    returns exactly that.  The default values are a scaled-down configuration;
    to preserve the per-server load levels the server capacity must be scaled
    with it, which :func:`repro.experiments.runner.scaled_setup` does —
    see DESIGN.md §2 for the substitution rationale.

    Attributes:
        server_count: Number of peer servers in the overlay.
        source_count: Number of data sources.
        query_client_count: Number of persistent-query clients (0 for the
            "no query clients" case of Figure 5).
        mean_stream_length: Virtual stream length Ld in packets.
        mean_query_lifetime: Query lifetime Lq in seconds.
        seed: Master seed for all random streams.
        lookup_sample_size: Number of real (message-level) depth searches
            executed per period to estimate the per-lookup message cost.
        max_balance_iterations: Upper bound on assign-loads / load-check
            iterations per period — a backstop: the loop ends on the first
            check that neither splits nor merges, and a period that ends on
            the bound instead is counted in ``notes["balance_cap_hits"]``.
        max_splits_per_server_per_iteration: Splits one server may perform in
            a single load-check pass.
        transport: Which transport carries protocol messages — one of
            :data:`repro.net.TRANSPORT_KINDS`: ``"inline"`` (synchronous, the
            seed semantics), ``"event"`` (event-kernel delivery with
            simulated latency), ``"batching"`` (per-period coalescing),
            ``"async"`` (seeded-shuffle virtual-time calendar),
            ``"replay"`` (recorded delivery schedules) or ``"socket"``
            (one worker process per shard over msgpack frames).
        link_latency: Base one-way message latency in seconds (transports
            that model time — ``event`` and ``async``; scenario phases may
            override it).
        latency_jitter: Half-width of uniform per-message jitter around
            ``link_latency`` (time-modelling transports only).
        per_hop_latency: Extra latency per Chord routing hop (time-modelling
            transports only).
        shards: Number of independent Chord rings the key space is
            partitioned across (power of two; ``1`` = the paper's single
            global ring, bit-identical to the pre-sharding behaviour).
        force_full_stabilise: Force every ring onto the from-scratch
            stabilisation path instead of the incremental repair.  Routing
            outcomes are identical either way (the incremental repair is
            bit-exact); this is the reference mode the equivalence suite and
            the paper-scale benchmark compare against.
        force_full_load_scan: Force every balance pass onto the reference
            every-server scan (and full load-report exchange) instead of the
            dirty-driven work queues and report-diff delivery.  Metric
            streams are identical either way (the incremental pass is
            bit-exact); this is the reference mode the equivalence suite
            compares against.
        verify_invariants: Run :meth:`~repro.core.protocol.ClashSystem.\
verify_invariants` after every membership event and at every period
            boundary.  Off by default (it is pure overhead on a healthy run);
            the churn test suites and the schedule fuzzer turn it on.
        delivery_seed: Independent seed for the async transport's ready-order
            tie-breaking.  ``None`` derives the stream from ``seed`` as
            before (bit-identical to prior behaviour); setting it lets the
            fuzzer sweep delivery schedules without touching the workload.
        churn_seed: Independent seed for the Poisson join/failure arrival
            streams.  ``None`` derives them from ``seed`` as before; setting
            it lets the fuzzer sweep churn timings independently.
        partition: Which partition map governs the key-space → shard split —
            one of :data:`repro.dht.partition.PARTITION_KINDS`: ``"static"``
            (equal top-bits prefix ranges, the pre-refactor behaviour,
            bit-identical) or ``"adaptive"`` (boundaries recomputed from the
            workload's expected per-prefix load at each period boundary, with
            moved key groups migrated between shards online).  Requires
            ``shards > 1`` when adaptive.
    """

    server_count: int = 100
    source_count: int = 10_000
    query_client_count: int = 0
    mean_stream_length: float = 1000.0
    mean_query_lifetime: float = 1800.0
    seed: int = 20040324
    lookup_sample_size: int = 40
    max_balance_iterations: int = 30
    max_splits_per_server_per_iteration: int = 1
    transport: str = "inline"
    link_latency: float = 0.0
    latency_jitter: float = 0.0
    per_hop_latency: float = 0.0
    shards: int = 1
    force_full_stabilise: bool = False
    force_full_load_scan: bool = False
    verify_invariants: bool = False
    delivery_seed: int | None = None
    churn_seed: int | None = None
    partition: str = "static"

    def __post_init__(self) -> None:
        check_type("force_full_stabilise", self.force_full_stabilise, bool)
        check_type("force_full_load_scan", self.force_full_load_scan, bool)
        check_type("verify_invariants", self.verify_invariants, bool)
        for name in ("delivery_seed", "churn_seed"):
            value = getattr(self, name)
            if value is not None:
                check_type(name, value, int)
        check_type("server_count", self.server_count, int)
        check_type("source_count", self.source_count, int)
        check_type("query_client_count", self.query_client_count, int)
        check_positive("server_count", self.server_count)
        check_positive("source_count", self.source_count)
        if self.query_client_count < 0:
            raise ValueError(
                f"query_client_count must be non-negative, got {self.query_client_count}"
            )
        check_positive("mean_stream_length", self.mean_stream_length)
        check_positive("mean_query_lifetime", self.mean_query_lifetime)
        check_type("lookup_sample_size", self.lookup_sample_size, int)
        check_positive("lookup_sample_size", self.lookup_sample_size)
        check_positive("max_balance_iterations", self.max_balance_iterations)
        check_positive(
            "max_splits_per_server_per_iteration", self.max_splits_per_server_per_iteration
        )
        if self.transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"transport must be one of {', '.join(TRANSPORT_KINDS)}, "
                f"got {self.transport!r}"
            )
        for name in ("link_latency", "latency_jitter", "per_hop_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
            if getattr(self, name) > 0 and not transport_spec(self.transport).models_time:
                # An engine-less transport (inline, batching, socket) has no
                # clock to charge latency against; silently ignoring the knob
                # would misreport the run's configuration.
                raise ValueError(
                    f"{name} requires a time-modelling transport "
                    f"(transport {self.transport!r} does not model time)"
                )
        check_power_of_two("shards", self.shards)
        if self.shards > self.server_count:
            raise ValueError(
                f"cannot spread {self.server_count} servers over {self.shards} "
                "shards; every shard needs at least one server"
            )
        if self.partition not in PARTITION_KINDS:
            raise ValueError(
                f"partition must be one of {', '.join(PARTITION_KINDS)}, "
                f"got {self.partition!r}"
            )
        if self.partition != "static" and self.shards <= 1:
            raise ValueError(
                "an adaptive partition needs shards > 1; a single ring has "
                "no shard boundaries to move"
            )

    @classmethod
    def paper_scale(cls, query_clients: bool = False, mean_stream_length: float = 1000.0) -> "SimulationParams":
        """The full Section 6.1 configuration (slow: minutes of wall-clock time)."""
        return cls(
            server_count=1000,
            source_count=100_000,
            query_client_count=50_000 if query_clients else 0,
            mean_stream_length=mean_stream_length,
        )

    @classmethod
    def scaled(cls, factor: int = 10, query_clients: bool = False, **overrides) -> "SimulationParams":
        """A configuration scaled down by ``factor`` from the paper scale.

        Server count, source count and query-client count shrink together.
        Per-server *load levels* are only preserved if the server capacity in
        :class:`~repro.core.config.ClashConfig` is scaled by the same factor;
        :func:`repro.experiments.runner.scaled_setup` builds a consistent
        (config, params) pair.
        """
        check_positive("factor", factor)
        params = {
            "server_count": max(10, 1000 // factor),
            "source_count": max(200, 100_000 // factor),
            "query_client_count": (max(100, 50_000 // factor) if query_clients else 0),
        }
        params.update(overrides)
        return cls(**params)


@dataclass
class SimulationResult:
    """Output of one simulation run.

    Attributes:
        label: Human-readable label, e.g. ``"CLASH"`` or ``"DHT(6)"``.
        params: The run's scale parameters.
        config: The protocol configuration used.
        metrics: Per-period samples (see :class:`MetricsRecorder`).
        final_active_groups: Number of active key groups at the end of the run.
        total_splits: Splits performed over the whole run.
        total_merges: Consolidations performed over the whole run.
    """

    label: str
    params: SimulationParams
    config: ClashConfig
    metrics: MetricsRecorder
    final_active_groups: int = 0
    total_splits: int = 0
    total_merges: int = 0
    notes: dict[str, float] = field(default_factory=dict)

    def phase_summaries(self) -> list[PhaseSummary]:
        """Per-workload-phase aggregates."""
        return self.metrics.phase_summaries()

    def diff(self, reference: "SimulationResult") -> list[str]:
        """Every difference from ``reference``, down to field and period.

        The single statement of run equivalence (bit-identical ⇔ empty list):
        run totals first, then the per-period field diff from
        :func:`repro.sim.metrics.diff_sample_streams`.  Both the golden test
        harness and ``benchmarks/bench_async.py`` assert on this.
        """
        differences = [
            f"{name}: {getattr(self, name)!r}, expected {getattr(reference, name)!r}"
            for name in ("total_splits", "total_merges", "final_active_groups")
            if getattr(self, name) != getattr(reference, name)
        ]
        differences.extend(
            diff_sample_streams(self.metrics.samples, reference.metrics.samples)
        )
        return differences


class FlowSimulator:
    """Simulate a CLASH (or fixed-depth DHT) deployment over a phased scenario.

    Args:
        config: Protocol configuration.
        params: Scale parameters.
        scenario: The workload schedule (defaults to the paper's A → B → C).
        fixed_depth: When set, run the non-adaptive baseline ``DHT(fixed_depth)``
            instead of CLASH — the key space is partitioned once at that depth
            and load checks are disabled.
        schedule: A recorded :class:`~repro.net.replay.ReplaySchedule` to
            force this run onto.  Its tie tape drives the ``replay`` transport
            and, when :attr:`~repro.net.replay.ReplaySchedule.churn` is set,
            the recorded membership events are executed verbatim (with their
            recorded names and node ids) *instead of* drawing fresh Poisson
            arrivals — the churn RNG streams are never consumed, so the replay
            is a pure function of the schedule.
    """

    def __init__(
        self,
        config: ClashConfig,
        params: SimulationParams,
        scenario: PhasedScenario,
        fixed_depth: int | None = None,
        schedule: ReplaySchedule | None = None,
    ) -> None:
        check_type("config", config, ClashConfig)
        check_type("params", params, SimulationParams)
        self._params = params
        self._scenario = scenario
        self._fixed_depth = fixed_depth
        if fixed_depth is not None:
            if not 1 <= fixed_depth <= config.key_bits:
                raise ValueError(
                    f"fixed_depth must be in [1, {config.key_bits}], got {fixed_depth}"
                )
            # A fixed-depth run bootstraps at that depth and never adapts.
            bootstrap_depth = min(fixed_depth, 16)
            config = config.with_overrides(
                initial_depth=bootstrap_depth, min_depth=min(config.min_depth, bootstrap_depth)
            )
        self._config = config
        seeds = SeedSequenceFactory(params.seed)
        # The delivery-order axis is independently seedable: the fuzzer
        # sweeps tie-break schedules without perturbing any workload stream.
        if params.delivery_seed is not None:
            ready_stream = SeedSequenceFactory(params.delivery_seed).stream("async-ready")
        else:
            ready_stream = seeds.stream("async-ready")
        # The registry decides the execution model: transports that need the
        # discrete-event engine get one (and scenario churn runs on it);
        # clock-less transports — and the async transport, which keeps its own
        # calendar and virtual clock — drain churn at period boundaries.
        self._engine = (
            SimulationEngine() if transport_spec(params.transport).needs_engine else None
        )
        self._transport = build_transport(
            params.transport,
            engine=self._engine,
            link_latency=params.link_latency,
            latency_jitter=params.latency_jitter,
            per_hop_latency=params.per_hop_latency,
            rng=seeds.stream("latency"),
            ready_rng=ready_stream,
            schedule=schedule,
        )
        self._system = ClashSystem.create(
            config,
            server_count=params.server_count,
            rng=seeds.stream("ring"),
            bootstrap=False,
            transport=self._transport,
            shards=params.shards,
        )
        if params.force_full_stabilise:
            self._system.set_force_full_stabilise(True)
        if params.force_full_load_scan:
            self._system.force_full_load_scan = True
        self._system.bootstrap(config.initial_depth)
        self._churn_rng = seeds.stream("churn")
        # Poisson-arrival churn within phases.  Joins and failures draw from
        # their own named streams so enabling one never perturbs the other
        # (or any pre-existing stream: a churn-free run is byte-identical).
        # The churn timing axis, like delivery order, is independently
        # seedable for the fuzzer's sweeps.
        churn_seeds = (
            SeedSequenceFactory(params.churn_seed)
            if params.churn_seed is not None
            else seeds
        )
        self._join_rng = churn_seeds.stream("join-arrivals")
        self._fail_rng = churn_seeds.stream("fail-arrivals")
        # Forced churn: a replay schedule carrying recorded membership events
        # supersedes the Poisson streams entirely (see ``schedule`` above).
        self._forced_churn: tuple[ChurnEvent, ...] | None = (
            schedule.churn if schedule is not None else None
        )
        self._forced_churn_installed = False
        self._pending_churn: deque[tuple[float, int, str | ChurnEvent]] = deque()
        # Engine-scheduled churn can fire in the middle of a protocol
        # exchange (the request pumps the kernel), when the system is in a
        # legitimately half-transferred state that must not be mutated or
        # invariant-checked.  Events arriving in an unsafe window are
        # deferred and applied at the next quiescent point.
        self._churn_safe = True
        self._deferred_churn: deque[tuple[str | ChurnEvent, float]] = deque()
        self._join_counter = 0
        self._period_joins = 0
        self._period_failures = 0
        self._period_reassigned = 0
        self._dropped_seen = 0
        #: When True, every membership event is followed by a full
        #: ClashSystem.verify_invariants() pass (``params.verify_invariants``
        #: sets it; the churn test suites also flip it directly).
        self.verify_after_membership = params.verify_invariants
        #: When True, every *executed* Poisson membership event is appended
        #: to :attr:`churn_log` as a replayable ChurnEvent with its drawn
        #: name/node id pinned (the fuzz harness turns this on).
        self.record_churn = False
        self.churn_log: list[ChurnEvent] = []
        # Adaptive partitioning: boundaries recomputed at each period
        # boundary from the workload's expected per-prefix load.  A replay
        # schedule carrying recorded rebalances supersedes the live recompute
        # entirely (the maps install verbatim, pinned by version).
        self._adaptive_partition = params.partition == "adaptive" and params.shards > 1
        self._forced_rebalances: deque[RebalanceEvent] | None = (
            deque(
                sorted(
                    schedule.rebalances, key=lambda event: (event.when, event.version)
                )
            )
            if schedule is not None and schedule.rebalances is not None
            else None
        )
        #: When True, every installed partition map is appended to
        #: :attr:`rebalance_log` as a replayable RebalanceEvent with its
        #: boundaries and version pinned (the fuzz harness turns this on).
        self.record_rebalances = False
        self.rebalance_log: list[RebalanceEvent] = []
        self._period_migrated = 0
        # Fuzz oracle hooks (see set_oracles): called at every quiescent
        # point — after membership events, after each balance iteration, and
        # at period boundaries.  None means no oracle is installed.
        self._invariant_oracle = None
        self._sample_oracle = None
        self._phase_index: int | None = None
        self._measures: dict[str, LoadMeasure] = {}
        first_spec = scenario.workload_at(0.0)
        self._sources = SourcePopulation(
            count=params.source_count,
            spec=first_spec,
            key_bits=config.key_bits,
            mean_stream_length=params.mean_stream_length,
            rng=seeds.stream("sources"),
        )
        self._queries = QueryPopulation(
            count=params.query_client_count,
            spec=first_spec,
            key_bits=config.key_bits,
            mean_lifetime=params.mean_query_lifetime,
            rng=seeds.stream("queries"),
        )
        self._lookup_keygen = self._sources.make_key_generator()
        self._lookup_client = self._system.make_client("sampling-client")
        self._recorder = MetricsRecorder()
        self._total_splits = 0
        self._total_merges = 0
        # Balance-loop telemetry: load checks run, and periods whose loop ran
        # out of iterations with the last check still reshaping.
        self._balance_iterations = 0
        self._balance_cap_hits = 0
        # Depth-discovery telemetry: searches run for real and their probes.
        self._sampled_lookups = 0
        self._sampled_lookup_probes = 0
        # Incremental load-assignment state: the measure the current
        # assignment was computed from, and the groups whose assignment has
        # been perturbed (by splits, merges, handoffs or churn) since then.
        # ``_force_full_assignment`` disables the incremental path — it exists
        # for the equivalence tests, which assert that dirty-group updates
        # reproduce a from-scratch assignment exactly.
        self._assigned_measure: LoadMeasure | None = None
        self._pending_dirty: set = set()
        self._pending_retired: list = []
        self._force_full_assignment = False

    @property
    def system(self) -> ClashSystem:
        """The simulated CLASH deployment (useful for inspection in tests)."""
        return self._system

    @property
    def transport(self):
        """The transport protocol messages travel through."""
        return self._transport

    @property
    def engine(self) -> SimulationEngine | None:
        """The event kernel (``None`` unless the event transport is active)."""
        return self._engine

    @property
    def label(self) -> str:
        """The run's label (CLASH, or DHT(x) for fixed-depth baselines)."""
        if self._fixed_depth is None:
            return "CLASH"
        return f"DHT({self._fixed_depth})"

    def set_oracles(self, invariant=None, sample=None) -> None:
        """Install fuzz-oracle callbacks fired at quiescent points.

        Args:
            invariant: ``callback(system)`` — called after every membership
                event, after every balance iteration's load check, and at
                each period boundary.  Raise to flag a violation.
            sample: ``callback(system, period_sample)`` — called once per
                period with the freshly built
                :class:`~repro.sim.metrics.PeriodSample` (metric sanity
                checks live here).
        """
        self._invariant_oracle = invariant
        self._sample_oracle = sample

    def _check_invariant_oracle(self) -> None:
        if self._invariant_oracle is not None:
            self._invariant_oracle(self._system)

    # ------------------------------------------------------------------ #
    # Load assignment
    # ------------------------------------------------------------------ #

    def _build_measure(self, spec: WorkloadSpec) -> LoadMeasure:
        # One memoized measure per workload: the prefix-probability cache
        # inside LoadMeasure then persists across periods of the same phase,
        # so repeated period assignments stop recomputing identical
        # expectations.
        measure = self._measures.get(spec.name)
        if measure is None or measure.spec is not spec:
            measure = LoadMeasure(
                spec=spec,
                total_rate=self._params.source_count * spec.source_rate,
                total_queries=float(self._params.query_client_count),
            )
            self._measures[spec.name] = measure
        return measure

    def _assign_loads(self, measure: LoadMeasure) -> None:
        """Give every active group its expected rate and query count (full pass)."""
        for server in self._system.servers().values():
            server.reset_interval()
        owners = self._system.active_groups()
        assignments = measure.assign_rates(owners)
        use_queries = self._params.query_client_count > 0
        for group, owner in owners.items():
            server = self._system.server(owner)
            rate, queries = assignments[group]
            server.set_group_rate(group, rate)
            if use_queries:
                server.set_group_query_count(group, queries)

    def _apply_dirty_assignments(
        self, measure: LoadMeasure, dirty: set, retired: list
    ) -> None:
        """Refresh only the groups whose assignment was perturbed.

        Every other active group still carries the exact expected values the
        last full pass (or a previous dirty refresh) wrote — the measure is
        unchanged, so rewriting them would store identical floats.  One
        reset mirrors what ``reset_interval`` did on the full path:
        measurements for retired ``(group, former owner)`` pairs are
        discarded (a stale query override would otherwise be resurrected if
        the group re-activates there).  Child load reports need no reset
        here: the report exchange owns their lifetime.
        """
        for group, former_owner in retired:
            try:
                server = self._system.server(former_owner)
            except KeyError:  # the former owner has since failed
                continue
            server.discard_measurements(group)
        use_queries = self._params.query_client_count > 0
        for group in sorted(dirty):
            owner = self._system.find_owner(group)
            if owner is None:
                # Split away or merged; only its active descendants/ancestor
                # (also in the dirty set) need fresh values.
                continue
            server = self._system.server(owner)
            rate, queries = measure.assignment(group)
            server.set_group_rate(group, rate)
            if use_queries:
                server.set_group_query_count(group, queries)

    def _sync_assignments(self, measure: LoadMeasure) -> None:
        """Bring every server's measured loads in line with ``measure``.

        A full assignment runs only when the workload changed (a new measure)
        or when the incremental path is disabled; otherwise only the groups
        touched since the last synchronisation are refreshed.
        """
        dirty = self._pending_dirty
        self._pending_dirty = set()
        dirty |= self._system.drain_touched_groups()
        retired = self._pending_retired
        self._pending_retired = []
        retired.extend(self._system.drain_retired_assignments())
        if measure is not self._assigned_measure or self._force_full_assignment:
            # reset_interval inside the full pass discards every measurement,
            # so the retired log is consumed by dropping it.
            self._assign_loads(measure)
            self._assigned_measure = measure
            return
        self._apply_dirty_assignments(measure, dirty, retired)

    def _server_load_percents(self) -> list[float]:
        """Load (as % of capacity) of every server that manages a group."""
        percents = []
        for owner in self._system.active_servers():
            percents.append(self._system.server(owner).load_percent())
        return percents

    def _shard_load_stats(self) -> tuple[tuple[float, ...], float]:
        """Per-shard peak load and the peak-to-mean shard-load imbalance.

        Only evaluated for sharded runs (``shards > 1``); the per-server
        ``load_percent`` reads hit the servers' interval caches, so this adds
        one dict walk per period, not a recomputation.
        """
        router = self._system.router
        count = router.shard_count
        peaks = [0.0] * count
        totals = [0.0] * count
        for owner in self._system.active_servers():
            shard = router.server_shard(owner)
            percent = self._system.server(owner).load_percent()
            if percent > peaks[shard]:
                peaks[shard] = percent
            totals[shard] += percent
        grand_total = sum(totals)
        imbalance = (max(totals) * count / grand_total) if grand_total > 0 else 0.0
        return tuple(peaks), imbalance

    # ------------------------------------------------------------------ #
    # Scenario environment knobs (churn, per-phase latency)
    # ------------------------------------------------------------------ #

    def _enter_phase(self, index: int) -> None:
        """Apply a newly entered phase's churn and latency knobs."""
        if index == self._phase_index:
            return
        self._phase_index = index
        phase: ScenarioPhase = self._scenario.phase_at(index)
        if phase.link_latency is not None:
            # No-op on transports that don't model time (inline, batching).
            self._transport.set_latency_model(ConstantLatency(phase.link_latency))
        if phase.fail_servers:
            # Sort once; removing each victim keeps the list identical to a
            # fresh sorted() of the surviving names, so the RNG draws match
            # the per-iteration re-sort this replaces.
            names = self._system.sorted_server_names()
            for _ in range(phase.fail_servers):
                if len(names) <= 1:
                    break
                victim = self._churn_rng.choice(names)
                if not self._system.can_remove_server(victim):
                    # Last server of its shard (sharded runs only): skip the
                    # victim without failing it, keeping the draw sequence.
                    names.remove(victim)
                    continue
                reassigned = self._system.handle_server_failure(victim)
                names.remove(victim)
                self._period_failures += 1
                self._period_reassigned += len(reassigned)
                if self.verify_after_membership:
                    self._system.verify_invariants()
                self._check_invariant_oracle()
        self._schedule_poisson_churn(phase, self._scenario.phase_boundaries()[index])

    # ------------------------------------------------------------------ #
    # Poisson-arrival churn within a phase
    # ------------------------------------------------------------------ #

    def _schedule_poisson_churn(self, phase: ScenarioPhase, phase_start: float) -> None:
        """Queue the phase's seeded join/failure arrivals.

        Arrival times are drawn up front from the dedicated churn streams, so
        the event sequence is a function of the seed and the scenario alone —
        identical across transports.  The event transport executes them as
        simulation-engine events at their arrival times (they can land in the
        middle of a message exchange, which is exactly the in-flight-loss
        case the transport must survive); the inline and batching transports,
        which have no clock, drain them at period boundaries.

        A forced replay schedule supersedes the Poisson streams entirely:
        nothing is drawn (the arrival *and* identity draws share the churn
        streams, so even sampling timings would desynchronise a replay).
        """
        if self._forced_churn is not None:
            return
        events: list[tuple[float, int, str]] = []
        for rate, priority, kind, rng in (
            (phase.join_rate, 0, "join", self._join_rng),
            (phase.fail_rate, 1, "fail", self._fail_rng),
        ):
            if rate <= 0.0:
                continue
            elapsed = rng.exponential(1.0 / rate)
            while elapsed < phase.duration:
                events.append((phase_start + elapsed, priority, kind))
                elapsed += rng.exponential(1.0 / rate)
        if not events:
            return
        events.sort()
        if self._engine is not None:
            for when, _priority, kind in events:
                self._engine.schedule_at(
                    max(self._engine.now, when),
                    lambda now, kind=kind: self._apply_churn_event(kind, now),
                    label=f"churn-{kind}",
                )
        else:
            self._pending_churn.extend(events)

    def _install_forced_churn(self) -> None:
        """Queue a replay schedule's recorded membership events (run start).

        The list index keeps simultaneous events in recorded order on both
        execution models: clock-less transports sort ``(when, index)`` pairs
        and the engine orders same-time events by schedule sequence.
        """
        if self._forced_churn is None or self._forced_churn_installed:
            return
        self._forced_churn_installed = True
        ordered = sorted(
            enumerate(self._forced_churn), key=lambda item: (item[1].when, item[0])
        )
        if self._engine is not None:
            for _index, event in ordered:
                self._engine.schedule_at(
                    max(self._engine.now, event.when),
                    lambda now, event=event: self._apply_churn_event(event, event.when),
                    label=f"churn-{event.kind}",
                )
        else:
            self._pending_churn.extend(
                (event.when, index, event) for index, event in ordered
            )

    def _drain_pending_churn(self, horizon: float) -> None:
        """Apply queued churn events that arrived at or before ``horizon``."""
        while self._pending_churn and self._pending_churn[0][0] <= horizon:
            when, _priority, kind = self._pending_churn.popleft()
            self._apply_churn_event(kind, when)

    def _apply_churn_event(self, kind: str | ChurnEvent, when: float) -> None:
        """Execute one membership event at the next safe moment.

        A churn event delivered while a protocol exchange is in flight (or
        while another membership event is being handled) is deferred; it is
        applied as soon as the system is quiescent again, still within the
        same period's accounting.
        """
        if not self._churn_safe:
            self._deferred_churn.append((kind, when))
            return
        self._churn_safe = False
        try:
            self._execute_churn_event(kind, when)
            while self._deferred_churn:
                self._execute_churn_event(*self._deferred_churn.popleft())
        finally:
            self._churn_safe = True

    def _drain_deferred_churn(self) -> None:
        """Apply membership events that arrived during an unsafe window.

        One _apply_churn_event call suffices: it executes the popped event
        and then consumes the rest of the queue itself.
        """
        if self._deferred_churn:
            self._apply_churn_event(*self._deferred_churn.popleft())

    def _execute_churn_event(self, kind: str | ChurnEvent, when: float) -> None:
        """Execute one membership event (a server join or failure).

        ``kind`` is either a bare ``"join"``/``"fail"`` string — the live
        Poisson path, which draws the joining node's id or the victim from
        the churn streams — or a recorded :class:`ChurnEvent`, the replay
        path, which executes the pinned identity verbatim and never touches
        an RNG.  A forced event whose precondition no longer holds (node id
        taken, victim already gone, last server of its shard) is skipped
        deterministically: a shrunk schedule stays replayable even when
        earlier events it depended on were removed.
        """
        if isinstance(kind, ChurnEvent):
            event = kind
            if event.kind == "join":
                if (
                    event.node_id is None
                    or event.server in self._system.server_names()
                    or self._system.router.has_node_id(event.node_id)
                ):
                    return
                handed_off = self._system.handle_server_join(
                    event.server, node_id=event.node_id
                )
                self._period_joins += 1
                self._period_reassigned += len(handed_off)
            else:
                names = self._system.server_names()
                if (
                    event.server not in names
                    or len(names) <= 1
                    or not self._system.can_remove_server(event.server)
                ):
                    return
                reassigned = self._system.handle_server_failure(event.server)
                self._period_failures += 1
                self._period_reassigned += len(reassigned)
        elif kind == "join":
            name = f"j{self._join_counter}"
            self._join_counter += 1
            bits = self._config.hash_bits
            node_id = self._join_rng.randbits(bits)
            while self._system.router.has_node_id(node_id):
                node_id = self._join_rng.randbits(bits)
            handed_off = self._system.handle_server_join(name, node_id=node_id)
            self._period_joins += 1
            self._period_reassigned += len(handed_off)
            if self.record_churn:
                self.churn_log.append(
                    ChurnEvent(when=when, kind="join", server=name, node_id=node_id)
                )
        else:
            names = self._system.sorted_server_names()
            if len(names) <= 1:
                return
            victim = self._fail_rng.choice(names)
            if not self._system.can_remove_server(victim):
                # The drawn victim is the last server of its shard; failing
                # it would leave the shard's key range unowned.  Skip the
                # event (never reached on a single ring while >1 server is
                # alive, so the clock-less golden streams are unchanged).
                return
            reassigned = self._system.handle_server_failure(victim)
            self._period_failures += 1
            self._period_reassigned += len(reassigned)
            if self.record_churn:
                self.churn_log.append(
                    ChurnEvent(when=when, kind="fail", server=victim, node_id=None)
                )
        if self.verify_after_membership:
            self._system.verify_invariants()
        self._check_invariant_oracle()

    # ------------------------------------------------------------------ #
    # Partition rebalancing at period boundaries
    # ------------------------------------------------------------------ #

    def _maybe_rebalance(self, measure: LoadMeasure, when: float) -> None:
        """Recompute (or replay) the partition map at a period boundary.

        The live path derives target boundaries from the period workload's
        expected per-prefix load — a pure function of the scenario and the
        scale parameters, never of delivery order or membership history — so
        the rebalance sequence is identical across transports.  A replay
        schedule carrying recorded rebalances installs those maps verbatim
        instead, keeping shrunk schedules pinned to the exact failing
        partition history.
        """
        if self._system.shard_count <= 1:
            return
        if self._forced_rebalances is not None:
            while self._forced_rebalances and self._forced_rebalances[0].when <= when:
                event = self._forced_rebalances.popleft()
                new_map = PartitionMap(
                    boundaries=event.boundaries,
                    key_bits=self._config.key_bits,
                    granularity_depth=self._config.initial_depth,
                    version=event.version,
                )
                self._apply_rebalance(new_map, event.when)
            return
        if not self._adaptive_partition:
            return
        loads = measure.rate_by_prefix(self._config.initial_depth)
        new_map = LoadProportionalPartition.from_loads(
            loads,
            key_bits=self._config.key_bits,
            shard_count=self._system.shard_count,
            previous=self._system.router.partition,
        )
        if new_map.boundaries == self._system.router.partition.boundaries:
            # Already on target: no migration, and — crucially — no version
            # bump, so a steady workload leaves the map untouched.
            return
        self._apply_rebalance(new_map, when)

    def _apply_rebalance(self, new_map: PartitionMap, when: float) -> None:
        """Install one partition map and migrate the groups it moves.

        Runs inside a churn-unsafe window: the migration handoffs pump the
        transport, and a membership event landing mid-transfer must defer to
        the next quiescent point exactly as during a balance pass.  Moved
        groups enter the protocol's touched/retired logs, so the incremental
        load assigner refreshes them like any churn handoff.
        """
        self._churn_safe = False
        try:
            migrated = self._system.rebalance_partition(new_map)
        finally:
            self._churn_safe = True
        self._drain_deferred_churn()
        self._period_migrated += len(migrated)
        if self.record_rebalances:
            self.rebalance_log.append(
                RebalanceEvent(
                    when=when,
                    version=new_map.version,
                    boundaries=new_map.boundaries,
                )
            )
        if self.verify_after_membership:
            self._system.verify_invariants()
        self._check_invariant_oracle()

    # ------------------------------------------------------------------ #
    # Protocol reaction within one period
    # ------------------------------------------------------------------ #

    def _balance(self, measure: LoadMeasure) -> tuple[int, int, float, float]:
        """Let CLASH react to the period's load.

        Returns ``(splits, merges, redirected_sources, migrated_queries)``.
        """
        if self._fixed_depth is not None:
            self._sync_assignments(measure)
            return 0, 0, 0.0, 0.0
        splits = 0
        merges = 0
        redirected = 0.0
        migrated_queries = 0.0
        for _iteration in range(self._params.max_balance_iterations):
            self._sync_assignments(measure)
            report = self._system.run_load_check(
                max_splits_per_server=self._params.max_splits_per_server_per_iteration
            )
            self._balance_iterations += 1
            self._pending_dirty |= report.touched_groups
            self._pending_retired.extend(report.retired_assignments)
            # The load check has returned: the configuration is momentarily
            # quiescent, a legal point for the fuzz oracle.
            self._check_invariant_oracle()
            if report.split_count == 0 and report.merge_count == 0:
                break
            splits += report.split_count
            merges += report.merge_count
            for outcome in report.splits:
                if not outcome.shed:
                    continue
                probability = measure.group_probability(outcome.right)
                redirected += self._params.source_count * probability
                moved = measure.group_queries(outcome.right)
                migrated_queries += moved
                self._system.messages.add(MessageCategory.STATE_TRANSFER, moved)
            for outcome in report.merges:
                _left, right = outcome.parent_group.split()
                probability = measure.group_probability(right)
                redirected += self._params.source_count * probability
                moved = measure.group_queries(right)
                migrated_queries += moved
                self._system.messages.add(MessageCategory.STATE_TRANSFER, moved)
        else:
            self._balance_cap_hits += 1
        # Leave the final, post-reaction load assignment in place for metrics.
        self._sync_assignments(measure)
        return splits, merges, redirected, migrated_queries

    # ------------------------------------------------------------------ #
    # Client traffic accounting
    # ------------------------------------------------------------------ #

    def _charge_lookups(self, spec: WorkloadSpec, period: float, redirected: float) -> None:
        """Charge the period's depth-discovery traffic.

        A sample of searches runs through the real message exchange; the
        remaining expected lookups are extrapolated at the sampled average
        cost.
        """
        key_changes = self._sources.expected_key_changes(period)
        query_arrivals = self._queries.expected_arrivals(period) if self._params.query_client_count else 0.0
        lookups_needed = key_changes + query_arrivals + redirected
        if lookups_needed <= 0:
            return
        self._lookup_keygen.set_base_weights(spec.weights)
        sample_size = min(self._params.lookup_sample_size, max(1, int(lookups_needed)))
        sampled_messages = 0
        for _ in range(sample_size):
            key = self._lookup_keygen.generate()
            result = self._lookup_client.find_group(key, use_cache=False)
            sampled_messages += result.messages
            self._sampled_lookup_probes += result.probes
        self._sampled_lookups += sample_size
        average_cost = sampled_messages / sample_size
        remainder = max(0.0, lookups_needed - sample_size)
        self._system.messages.add(MessageCategory.LOOKUP, remainder * average_cost)
        # Application data packets are delivered directly to the cached server.
        self._system.messages.add(
            MessageCategory.DATA, self._sources.total_rate() * period
        )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Run the full scenario and return the collected metrics.

        The transport is closed deterministically when the run ends —
        success or failure — so worker processes never
        outlive the simulation waiting for garbage collection (callers may
        still close again; :meth:`~repro.net.transport.Transport.close` is
        idempotent).
        """
        try:
            return self._run_scenario()
        finally:
            self._transport.close()

    def _run_scenario(self) -> SimulationResult:
        period = self._config.load_check_period
        duration = self._scenario.total_duration
        self._install_forced_churn()
        time = 0.0
        while time < duration:
            period_end = min(time + period, duration)
            # Counters reset before churn so that failure-recovery traffic
            # (ACCEPT_KEYGROUP re-issues) is charged to the period it happens
            # in rather than silently discarded.
            self._system.reset_messages()
            self._enter_phase(self._scenario.phase_index_at(time))
            # Clock-less transports drain the period's Poisson churn here;
            # the event transport executes it as engine events instead.
            if self._engine is None:
                self._drain_pending_churn(period_end)
            spec = self._scenario.workload_at(time)
            self._sources.switch_workload(spec)
            self._queries.switch_workload(spec)
            measure = self._build_measure(spec)
            # Rebalance first, so the period's balance pass and metrics see
            # the partition the period runs under.
            self._maybe_rebalance(measure, time)
            # The period's protocol traffic pumps the event kernel; churn
            # events landing mid-exchange are deferred until it completes.
            self._churn_safe = False
            try:
                splits, merges, redirected, _migrated = self._balance(measure)
                self._total_splits += splits
                self._total_merges += merges
                self._charge_lookups(spec, period_end - time, redirected)
            finally:
                self._churn_safe = True
            self._drain_deferred_churn()
            if self._engine is not None:
                # Message exchanges advanced the event clock within the
                # period; aligning the kernel with the period boundary here
                # (before the sample is built) both stamps the next period's
                # traffic consistently and fires the period's remaining churn
                # events, so membership counters land in the sample of the
                # period the events belong to.
                self._engine.run_until(max(self._engine.now, period_end))
            loads = self._server_load_percents()
            min_depth, avg_depth, max_depth = self._system.depth_statistics()
            signalling = self._system.messages.signalling_total()
            breakdown = {
                category: count / (period_end - time)
                for category, count in self._system.messages.snapshot().items()
                if category != MessageCategory.DATA.value
            }
            latency_samples = self._transport.drain_latency_samples()
            dropped_total = self._transport.dropped_messages
            dropped = dropped_total - self._dropped_seen
            self._dropped_seen = dropped_total
            if self._system.shard_count > 1:
                shard_peaks, shard_imbalance = self._shard_load_stats()
            else:
                shard_peaks, shard_imbalance = (), 0.0
            sample = PeriodSample(
                time=period_end,
                workload=spec.name,
                max_load_percent=max(loads) if loads else 0.0,
                avg_load_percent=(sum(loads) / len(loads)) if loads else 0.0,
                active_servers=len(loads),
                min_depth=float(min_depth),
                avg_depth=float(avg_depth),
                max_depth=float(max_depth),
                splits=splits,
                merges=merges,
                # Per *live* server: churn shrinks the deployment, and the
                # Figure 5 metric should reflect the servers actually present.
                messages_per_server_per_second=signalling
                / (period_end - time)
                / max(1, len(self._system.server_names())),
                message_breakdown=breakdown,
                mean_message_latency=mean(latency_samples) if latency_samples else 0.0,
                server_joins=self._period_joins,
                server_failures=self._period_failures,
                groups_reassigned=self._period_reassigned,
                dropped_messages=dropped,
                shard_count=self._system.shard_count,
                shard_peak_loads=shard_peaks,
                cross_shard_imbalance=shard_imbalance,
                groups_migrated=self._period_migrated,
                partition_version=self._system.partition_version,
            )
            self._period_joins = 0
            self._period_failures = 0
            self._period_reassigned = 0
            self._period_migrated = 0
            self._recorder.record(sample)
            # Period boundary: the canonical quiescent point.  The knob runs
            # the full invariant pass; installed fuzz oracles additionally
            # see the system and the freshly built sample.
            if self._params.verify_invariants:
                self._system.verify_invariants()
            self._check_invariant_oracle()
            if self._sample_oracle is not None:
                self._sample_oracle(self._system, sample)
            time = period_end
        return SimulationResult(
            label=self.label,
            params=self._params,
            config=self._config,
            metrics=self._recorder,
            final_active_groups=len(self._system.active_groups()),
            total_splits=self._total_splits,
            total_merges=self._total_merges,
            # Routing-tier and balance-pass telemetry rides along as notes:
            # diff() ignores them, so the incremental and full-rebuild paths
            # stay formally bit-identical while their work counters remain
            # comparable.
            notes={
                key: float(value)
                for key, value in {
                    **self._system.dht_stats(),
                    **self._system.work_stats(),
                    "balance_iterations": self._balance_iterations,
                    "balance_cap_hits": self._balance_cap_hits,
                    "sampled_lookups": self._sampled_lookups,
                    "sampled_lookup_probes": self._sampled_lookup_probes,
                }.items()
            },
        )
