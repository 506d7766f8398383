"""Shared experiment scaffolding: scale presets and consistent setups.

The paper's experiments run 1000 servers, 100,000 data sources (plus 50,000
query clients in Figure 5 case B) for six simulated hours.  That is feasible
in this reproduction but slow for a benchmark suite, so every experiment
driver accepts an :class:`ExperimentScale`:

* ``paper()`` — the full Section 6.1 configuration.
* ``scaled(factor)`` — servers, clients, server capacity and phase duration
  all divided by ``factor``; per-server load levels and the qualitative
  comparison between CLASH and the DHT baselines are preserved (this is what
  the benchmark suite runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ClashConfig
from repro.dht.partition import PARTITION_KINDS
from repro.net import TRANSPORT_KINDS
from repro.sim.simulator import SimulationParams
from repro.util.validation import check_positive, check_power_of_two, check_type
from repro.workload.scenario import PhasedScenario, paper_scenario

__all__ = ["ExperimentScale", "scaled_setup"]

PAPER_SERVER_CAPACITY = 4000.0
"""Server capacity (load units/sec) calibrated so that the paper-scale
workloads produce the utilisation levels Section 6.2 reports: roughly 40–70 %
average utilisation for CLASH, an order-of-magnitude overload for DHT(6) under
the highly skewed workload C, and very low utilisation for DHT(12)/DHT(24)."""


@dataclass(frozen=True)
class ExperimentScale:
    """How large an experiment to run.

    Attributes:
        name: Label used in reports ("paper" or "scaled/N").
        server_count: Number of servers.
        source_count: Number of data sources.
        query_client_count: Number of persistent-query clients.
        server_capacity: Per-server capacity in load units/sec.
        phase_duration: Length of each workload phase in seconds.
        load_check_period: Seconds between load checks.
        seed: Master random seed.
        transport: Transport protocol messages travel through (one of
            :data:`repro.net.TRANSPORT_KINDS` — ``inline``, ``event``,
            ``batching``, ``async``, ``replay`` or ``socket``; see the
            :data:`repro.net.TRANSPORTS` registry).
        link_latency: One-way message latency in seconds when a
            time-modelling transport (``event``, ``async``) is selected.
        join_rate: Poisson server-join rate (events/sec) applied to every
            scenario phase (0 = no churn, the default).
        fail_rate: Poisson server-failure rate (events/sec) applied to every
            scenario phase (0 = no churn, the default).
        shards: Number of independent Chord rings the key space is
            partitioned across (power of two; 1 = the paper's single ring).
        partition: Partition map governing the key-space → shard split (one
            of :data:`repro.dht.partition.PARTITION_KINDS`; ``"static"`` is
            the pre-refactor equal-prefix-range behaviour, ``"adaptive"``
            rebalances boundaries from observed load — sharded runs only).
        verify_invariants: Run the full protocol invariant pass after every
            membership event and at every period boundary (the CLI's
            ``--verify-invariants``; off by default — pure overhead on a
            healthy run).
    """

    name: str
    server_count: int
    source_count: int
    query_client_count: int
    server_capacity: float
    phase_duration: float
    load_check_period: float
    seed: int = 20040324
    transport: str = "inline"
    link_latency: float = 0.0
    join_rate: float = 0.0
    fail_rate: float = 0.0
    shards: int = 1
    partition: str = "static"
    verify_invariants: bool = False

    def __post_init__(self) -> None:
        check_type("server_count", self.server_count, int)
        check_type("source_count", self.source_count, int)
        check_type("query_client_count", self.query_client_count, int)
        check_positive("server_count", self.server_count)
        check_positive("source_count", self.source_count)
        if self.query_client_count < 0:
            raise ValueError(
                f"query_client_count must be non-negative, got {self.query_client_count}"
            )
        check_positive("server_capacity", self.server_capacity)
        check_positive("phase_duration", self.phase_duration)
        check_positive("load_check_period", self.load_check_period)
        if self.transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"transport must be one of {', '.join(TRANSPORT_KINDS)}, "
                f"got {self.transport!r}"
            )
        if self.link_latency < 0:
            raise ValueError(
                f"link_latency must be non-negative, got {self.link_latency}"
            )
        for name in ("join_rate", "fail_rate"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        check_power_of_two("shards", self.shards)
        if self.partition not in PARTITION_KINDS:
            raise ValueError(
                f"partition must be one of {', '.join(PARTITION_KINDS)}, "
                f"got {self.partition!r}"
            )

    @classmethod
    def paper(cls, query_clients: bool = False) -> "ExperimentScale":
        """The full Section 6.1 scale (minutes of wall-clock time per run)."""
        return cls(
            name="paper",
            server_count=1000,
            source_count=100_000,
            query_client_count=50_000 if query_clients else 0,
            server_capacity=PAPER_SERVER_CAPACITY,
            phase_duration=7200.0,
            load_check_period=300.0,
        )

    @classmethod
    def scaled(
        cls, factor: int = 10, query_clients: bool = False, phase_periods: int = 8
    ) -> "ExperimentScale":
        """A configuration scaled down by ``factor``.

        Client counts and server capacity shrink by ``factor`` together, which
        keeps every per-key-group load — expressed as a fraction of capacity —
        equal to its paper-scale value, so CLASH's split/merge dynamics are
        unchanged.  The server pool shrinks more slowly (by roughly
        ``factor/3``) so the system keeps ample spare capacity; shrinking the
        pool by the full factor would leave the offered load close to the
        aggregate capacity, a saturation regime the paper never operates in.
        Each phase lasts ``phase_periods`` load-check periods (the paper uses
        24).
        """
        check_positive("factor", factor)
        check_positive("phase_periods", phase_periods)
        period = 300.0
        source_count = max(200, 100_000 // factor)
        capacity = PAPER_SERVER_CAPACITY * (source_count / 100_000)
        server_count = max(120, int(1000 // max(1.0, factor / 3.0)))
        return cls(
            name=f"scaled/{factor}",
            server_count=server_count,
            source_count=source_count,
            query_client_count=(max(100, 50_000 // factor) if query_clients else 0),
            server_capacity=capacity,
            phase_duration=period * phase_periods,
            load_check_period=period,
        )

    # ------------------------------------------------------------------ #
    # Derived setups
    # ------------------------------------------------------------------ #

    def config(self, **overrides) -> ClashConfig:
        """The :class:`ClashConfig` for this scale (paper defaults otherwise).

        The query-load weight is scaled with the client population so that the
        logarithmic query term keeps the same share of server capacity at any
        scale.
        """
        base = ClashConfig(
            server_capacity=self.server_capacity,
            load_check_period=self.load_check_period,
            query_load_weight=10.0 * (self.source_count / 100_000.0),
        )
        if overrides:
            base = base.with_overrides(**overrides)
        return base

    def params(self, mean_stream_length: float = 1000.0, **overrides) -> SimulationParams:
        """The :class:`SimulationParams` for this scale."""
        values = {
            "server_count": self.server_count,
            "source_count": self.source_count,
            "query_client_count": self.query_client_count,
            "mean_stream_length": mean_stream_length,
            "seed": self.seed,
            "transport": self.transport,
            "link_latency": self.link_latency,
            "shards": self.shards,
            "partition": self.partition,
            "verify_invariants": self.verify_invariants,
        }
        values.update(overrides)
        return SimulationParams(**values)

    def scenario(self, base_bits: int = 8) -> PhasedScenario:
        """The A → B → C scenario with this scale's phase duration and churn."""
        return paper_scenario(
            base_bits=base_bits,
            phase_duration=self.phase_duration,
            join_rate=self.join_rate,
            fail_rate=self.fail_rate,
        )


def scaled_setup(
    factor: int = 10, query_clients: bool = False, phase_periods: int = 8
) -> tuple[ClashConfig, SimulationParams, PhasedScenario]:
    """Convenience: a consistent (config, params, scenario) triple at reduced scale."""
    scale = ExperimentScale.scaled(
        factor=factor, query_clients=query_clients, phase_periods=phase_periods
    )
    return scale.config(), scale.params(), scale.scenario()
