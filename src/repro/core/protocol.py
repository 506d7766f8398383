"""The CLASH redirection layer: servers + Chord ring + message accounting.

:class:`ClashSystem` is the package's main entry point.  It owns the routing
tier (a :class:`~repro.dht.router.RingRouter` over one Chord ring, or a
sharded federation of them), the :class:`~repro.core.server.ClashServer`
instances, and the global message counters, and it mediates every inter-node
interaction:

* routing ``ACCEPT_OBJECT`` probes from clients to the DHT-resolved server,
* orchestrating splits (including the "right child maps back to myself, so
  split again" retry described in Section 5),
* orchestrating bottom-up consolidation (load reports, ``RELEASE_KEYGROUP``),
* bookkeeping of which server currently owns each active key group.

Every exchange travels as an :class:`~repro.net.envelope.Envelope` through a
pluggable :class:`~repro.net.transport.Transport`: the default
:class:`~repro.net.inline.InlineTransport` dispatches synchronously (the
original semantics), while the event-driven and batching transports add
simulated latency or per-period coalescing without touching protocol code.

The ownership registry kept here is *simulator-side* state used for metrics
and invariant checking; the protocol itself never consults it — clients
discover groups exclusively through ``ACCEPT_OBJECT`` probes and servers know
only their own tables, exactly as in the paper.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.client import ClashClient
from repro.core.config import ClashConfig
from repro.core.messages import (
    AcceptKeyGroup,
    AcceptObject,
    AcceptObjectReply,
    LoadReport,
    MessageCategory,
    MessageStats,
    ReleaseKeyGroup,
)
from repro.core.policy import MergePolicy, SplitPolicy
from repro.core.server import ClashServer
from repro.core.server_table import SELF_PARENT
from repro.dht.hashspace import HashSpace
from repro.dht.partition import PartitionMap
from repro.dht.ring import ChordRing
from repro.dht.router import RingRouter, build_router
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup, first_overlapping_pair
from repro.net.envelope import DhtAddress, Envelope
from repro.net.inline import InlineTransport
from repro.net.transport import DeliveryFailed, Handler, Transport, TransportError
from repro.util.rng import RandomStream
from repro.util.validation import check_positive, check_power_of_two, check_type

__all__ = ["ClashSystem", "SplitOutcome", "MergeOutcome"]

RING_POSITION_MEMO_LIMIT = 1 << 16
"""Entries kept in each of a deployment's two virtual-key memos — ring
positions and probe addresses — before it is cleared (correctness never
depends on a hit: a miss re-hashes the virtual key or rebuilds the address)."""


@dataclass(frozen=True)
class SplitOutcome:
    """Result of one attempt by an overloaded server to shed load.

    Attributes:
        parent_server: Name of the splitting server.
        group: The key group that was split (the deepest one actually split,
            after any self-collision retries).
        left: The left child, retained by the parent.
        right: The right child, transferred to ``child_server``.
        child_server: Name of the server that accepted the right child.
        migrated_queries: Number of persistent queries migrated with the group.
        self_collisions: How many times the DHT mapped the right child back to
            the splitting server before a distinct child was found.
        shed: True if responsibility was actually transferred to another
            server; False if every retry collapsed back onto the parent.
    """

    parent_server: str
    group: KeyGroup
    left: KeyGroup
    right: KeyGroup
    child_server: str
    migrated_queries: int
    self_collisions: int
    shed: bool


@dataclass(frozen=True)
class MergeOutcome:
    """Result of one bottom-up consolidation.

    Attributes:
        parent_server: Server that resumed management of the parent group.
        parent_group: The group whose children were merged back.
        child_server: Server that released the right child.
        returned_queries: Queries migrated back to the parent.
    """

    parent_server: str
    parent_group: KeyGroup
    child_server: str
    returned_queries: int


@dataclass
class _LoadCheckReport:
    """Aggregate outcome of one system-wide load check.

    Attributes:
        splits: Every split performed during the check.
        merges: Every consolidation performed during the check.
        touched_groups: Every key group whose assignment (owner, measured
            rate or query override) may have changed during the check —
            split parents and both children (including self-collision
            intermediates), merge parents and the released children, and
            shed/handoff targets.  An incremental load assigner only needs
            to refresh these groups; all others still carry exact values.
        retired_assignments: ``(group, former owner)`` pairs for every
            deactivation during the check.  A full reassignment implicitly
            discards the former owner's measurements via ``reset_interval``;
            an incremental assigner must prune them explicitly (stale query
            overrides would otherwise be resurrected if the same group is
            re-activated on that server in a later check).
    """

    splits: list[SplitOutcome] = field(default_factory=list)
    merges: list[MergeOutcome] = field(default_factory=list)
    touched_groups: set[KeyGroup] = field(default_factory=set)
    retired_assignments: list[tuple[KeyGroup, str]] = field(default_factory=list)

    @property
    def split_count(self) -> int:
        return len(self.splits)

    @property
    def merge_count(self) -> int:
        return len(self.merges)


class ClashSystem:
    """A complete CLASH deployment over one Chord ring or a sharded federation.

    Args:
        config: Protocol configuration.
        server_names: Names of the participating servers.
        rng: Random stream used for node placement on the ring (``None``
            derives node ids from names by hashing, which is also valid Chord
            behaviour).
        split_policy_factory: Optional callable producing a per-server split
            policy (ablation hook).
        merge_policy_factory: Optional callable producing a per-server merge
            policy (ablation hook).
        transport: The transport every inter-node envelope travels through
            (defaults to a fresh :class:`~repro.net.inline.InlineTransport`,
            which preserves direct synchronous dispatch).
        shards: Number of independent Chord rings the key space is
            partitioned across (power of two).  ``1`` — the default — routes
            through a :class:`~repro.dht.router.SingleRingRouter` and is
            bit-identical to the pre-sharding behaviour; higher values
            prefix-partition keys and servers across a
            :class:`~repro.dht.router.ShardedRingRouter` federation.
            ``log2(shards)`` may not exceed ``config.initial_depth``: root
            groups and all their descendants must be shard-local so that
            splits, merges and parent links never cross shards.
    """

    def __init__(
        self,
        config: ClashConfig,
        server_names: list[str],
        rng: RandomStream | None = None,
        split_policy_factory=None,
        merge_policy_factory=None,
        transport: Transport | None = None,
        shards: int = 1,
    ) -> None:
        check_type("config", config, ClashConfig)
        check_power_of_two("shards", shards)
        if not server_names:
            raise ValueError("at least one server is required")
        if len(set(server_names)) != len(server_names):
            raise ValueError("server names must be unique")
        shard_bits = shards.bit_length() - 1
        if shard_bits > config.initial_depth:
            raise ValueError(
                f"{shards} shards partition on {shard_bits} key bits, which "
                f"exceeds initial_depth={config.initial_depth}; root groups "
                "must be shard-local so splits and merges never cross shards"
            )
        if shards > len(server_names):
            raise ValueError(
                f"cannot spread {len(server_names)} servers over {shards} shards; "
                "every shard needs at least one server"
            )
        self._config = config
        self._split_policy_factory = split_policy_factory
        self._merge_policy_factory = merge_policy_factory
        self._space = HashSpace(bits=config.hash_bits)
        self._router = build_router(shards, space=self._space, key_bits=config.key_bits)
        used_ids: set[int] = set()
        for name in server_names:
            if rng is None:
                self._router.add_server(name)
            else:
                node_id = rng.randbits(config.hash_bits)
                while node_id in used_ids:
                    node_id = rng.randbits(config.hash_bits)
                used_ids.add(node_id)
                self._router.add_server(name, node_id=node_id)
        self._router.stabilise()
        self._servers: dict[str, ClashServer] = {}
        for name in server_names:
            self._servers[name] = self._make_server(name)
        # The server names in sorted order, kept current by insort/bisect on
        # join and failure so churn drivers draw victims without re-sorting.
        self._sorted_names: list[str] = sorted(server_names)
        self._group_owner: dict[KeyGroup, str] = {}
        # Ring-position memo: virtual-key value → the hash-space point
        # f(virtual key).  One memo serves every shard ring, which is only
        # sound while all rings hash identically.
        rings = self._router.rings()
        self._position_hash = rings[0].hash_function
        assert all(
            (ring.hash_function.hash_bits, ring.hash_function.salt)
            == (self._position_hash.hash_bits, self._position_hash.salt)
            for ring in rings
        ), "shard rings must share one hash function"
        self._ring_positions: dict[int, int] = {}
        # Every registered group by its ring point, sorted: a join reads its
        # movers off one arc of it instead of scanning the registry.
        self._arc_index: list[tuple[int, KeyGroup]] = []
        # ACCEPT_OBJECT destinations by virtual-key value (route_accept_object).
        self._probe_addresses: dict[int, DhtAddress] = {}
        # Maintained indexes over the ownership registry.  They are mutated
        # exclusively through _register_group/_unregister_group so that
        # active_servers() and depth_statistics() are O(active servers) /
        # O(distinct depths) reads instead of full registry scans.
        self._owner_counts: dict[str, int] = {}
        self._depth_counts: dict[int, int] = {}
        self._depth_total = 0
        self._touched_groups: set[KeyGroup] = set()
        self._retired_assignments: list[tuple[KeyGroup, str]] = []
        self._messages = MessageStats()
        self._bootstrapped = False
        # Overload-set tracking: servers push a load-change notification the
        # moment any load input of theirs mutates, and run_load_check probes
        # only the notified (dirty) servers, reusing cached overload /
        # underload verdicts for everyone else.  Every server starts dirty.
        self._dirty_load_servers: set[str] = set()
        self._load_flags: dict[str, tuple[bool, bool]] = {}
        # Work-queue state for the incremental balance pass.  Full scans
        # visit ``list(self._servers.items())`` — creation (insertion) order —
        # so every server gets a monotone order index at creation and the
        # split / consolidation passes drain their dirty sets in index order,
        # reproducing the full scan's visit order exactly (see
        # :meth:`_drain_balance_queue` for the mid-pass admission rule).
        self._server_order: dict[str, int] = {}
        self._order_names: dict[int, str] = {}
        self._order_counter = 0
        self._dirty_split: set[str] = set()
        self._dirty_merge: set[str] = set()
        self._dirty_reports: set[str] = set()
        self._pass_heap: list[int] | None = None
        self._pass_cursor = -1
        self._pass_boundary = 0
        # Report-diff bookkeeping: per child server, the (parent, group)
        # pairs whose delivered reports still stand on the parents; its
        # reverse index (parent → children with such a pair); the names of
        # failed servers; and the parents touched by the most recent exchange
        # (the consolidation pass's extra work source: report arrival does
        # not mark a server load-dirty, but it can create merge candidates).
        self._delivered_reports: dict[str, list[tuple[str, KeyGroup]]] = {}
        self._report_children: dict[str, set[str]] = {}
        self._departed_names: set[str] = set()
        self._standing_report_total = 0
        self._last_report_recipients: set[str] = set()
        #: Fresh overload/underload probes performed by load checks (telemetry
        #: for the steady-state tests; cached verdicts are not counted).
        self.load_probes = 0
        #: How many times :meth:`consolidate_server` ran a candidate sweep.
        self.consolidation_probes = 0
        #: Load-report posts elided by the report-diff exchange (the reports
        #: already stood, bit-identical, on their parents).
        self.reports_skipped = 0
        #: When True, every load check probes every server and walks the full
        #: membership snapshot (disables the dirty-set shortcut, the work
        #: queues and the report-diff exchange; the equivalence tests compare
        #: both modes).
        self.force_full_load_scan = False
        for name in self._servers:
            self._track_new_server(name)
        self._transport = transport if transport is not None else InlineTransport()
        self._transport.set_resolver(self._router.lookup)
        for name, server in self._servers.items():
            self._transport.bind(
                name, self._make_endpoint(server), shard=self._router.server_shard(name)
            )

    def _make_server(self, name: str) -> ClashServer:
        """Construct one server with this deployment's policy factories."""
        split_policy: SplitPolicy | None = (
            self._split_policy_factory() if self._split_policy_factory else None
        )
        merge_policy: MergePolicy | None = (
            self._merge_policy_factory() if self._merge_policy_factory else None
        )
        server = ClashServer(
            name=name,
            config=self._config,
            split_policy=split_policy,
            merge_policy=merge_policy,
        )
        server.set_load_listener(self._mark_server_load_dirty)
        return server

    def _track_new_server(self, name: str) -> None:
        """Register a (freshly created) server with the balance work queues.

        Assigns the creation-order index the work queues sort by and seeds
        every dirty set: a new server has never been probed, so both balance
        passes and the report exchange must look at it — exactly what a full
        scan's ``name not in self._load_flags`` fallback would do.
        """
        order = self._order_counter
        self._order_counter += 1
        self._server_order[name] = order
        self._order_names[order] = name
        self._dirty_load_servers.add(name)
        self._dirty_split.add(name)
        self._dirty_merge.add(name)
        self._dirty_reports.add(name)

    def _untrack_server(self, name: str) -> None:
        """Forget a departed server in every per-server index.

        The inverse of :meth:`_track_new_server` (plus the sorted-name list
        and the cached verdicts); :meth:`verify_invariants` checks that no
        index still names a server outside the registry, so an index added
        without its line here is caught by the fuzzer.
        """
        del self._sorted_names[bisect_left(self._sorted_names, name)]
        self._order_names.pop(self._server_order.pop(name), None)
        self._dirty_load_servers.discard(name)
        self._dirty_split.discard(name)
        self._dirty_merge.discard(name)
        self._dirty_reports.discard(name)
        self._load_flags.pop(name, None)

    def _mark_server_load_dirty(self, name: str) -> None:
        """A server's load inputs changed; its cached verdicts are stale."""
        self._dirty_load_servers.add(name)
        self._dirty_split.add(name)
        self._dirty_merge.add(name)
        self._dirty_reports.add(name)
        # A server dirtied while a balance pass is draining joins that pass's
        # queue only if its position still lies ahead of the cursor *and* it
        # existed when the pass started — the full scan would visit exactly
        # those; everyone else keeps their dirty bit for the next pass.
        if self._pass_heap is not None:
            order = self._server_order.get(name)
            if order is not None and self._pass_cursor < order < self._pass_boundary:
                heapq.heappush(self._pass_heap, order)

    def _make_endpoint(self, server: ClashServer) -> Handler:
        """The transport-facing handler for one server.

        Dispatches on the payload type of the incoming envelope; this is the
        single place where transported messages re-enter server code.
        """

        def handle(envelope: Envelope):
            payload = envelope.payload
            if type(payload) is AcceptObject:
                return server.handle_accept_object(payload)
            if type(payload) is AcceptKeyGroup:
                server.accept_keygroup(payload, queries=envelope.attachment)
                return None
            if type(payload) is ReleaseKeyGroup:
                group = payload.group
                if group not in server.table or not server.table.entry(group).active:
                    # The child has split the group further since reporting;
                    # refuse the release (the parent skips this merge).
                    return None
                return server.release_group(group)
            if type(payload) is LoadReport:
                server.receive_load_report(payload)
                return None
            raise TransportError(
                f"server {server.name!r} cannot handle payload "
                f"{type(payload).__name__}"
            )

        return handle

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        config: ClashConfig,
        server_count: int,
        rng: RandomStream | None = None,
        bootstrap: bool = True,
        **kwargs,
    ) -> "ClashSystem":
        """Create a system with servers named ``s0 .. s{n-1}`` and bootstrap it."""
        check_type("server_count", server_count, int)
        check_positive("server_count", server_count)
        system = cls(
            config=config,
            server_names=[f"s{index}" for index in range(server_count)],
            rng=rng,
            **kwargs,
        )
        if bootstrap:
            system.bootstrap()
        return system

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> ClashConfig:
        """The protocol configuration."""
        return self._config

    @property
    def ring(self) -> ChordRing:
        """The underlying Chord ring (single-ring deployments only).

        Sharded deployments have no single ring; use :attr:`router` (and its
        ``rings()``) instead — accessing this property then raises
        :class:`AttributeError`.
        """
        return self._router.ring

    @property
    def router(self) -> RingRouter:
        """The routing tier every DHT resolution goes through."""
        return self._router

    @property
    def shard_count(self) -> int:
        """Number of independent rings the key space is partitioned across."""
        return self._router.shard_count

    @property
    def partition_version(self) -> int:
        """Version of the partition map routing currently follows (0 = single ring)."""
        return self._router.partition_version

    def dht_stats(self) -> dict[str, int]:
        """Routing-tier telemetry: lookup-memo and stabilisation counters.

        Flat dict with ``memo_``-prefixed lookup-memo counters and
        ``ring_``-prefixed stabilisation counters, summed across shards.
        Purely observational — reading it does not perturb the simulation.
        """
        stats = {f"memo_{k}": v for k, v in self._router.memo_stats().items()}
        stats.update(
            {f"ring_{k}": v for k, v in self._router.stabilise_stats().items()}
        )
        return stats

    def set_force_full_stabilise(self, flag: bool) -> None:
        """Force every ring onto the from-scratch stabilisation path.

        The reference mode the incremental repair is benchmarked and
        equivalence-tested against; it does not change any routing outcome,
        only how the routing state is recomputed.
        """
        self._router.set_force_full_stabilise(flag)

    def can_remove_server(self, name: str) -> bool:
        """True if ``name`` may fail without leaving a shard serverless."""
        return name in self._servers and self._router.can_remove(name)

    @property
    def messages(self) -> MessageStats:
        """Cumulative message counters (reset with :meth:`reset_messages`)."""
        return self._messages

    @property
    def transport(self) -> Transport:
        """The transport carrying every inter-node envelope."""
        return self._transport

    def reset_messages(self) -> None:
        """Zero the message counters (typically at the start of an interval)."""
        self._messages.reset()

    def servers(self) -> dict[str, ClashServer]:
        """All servers, keyed by name."""
        return dict(self._servers)

    def server(self, name: str) -> ClashServer:
        """A single server by name."""
        if name not in self._servers:
            raise KeyError(f"no server named {name!r}")
        return self._servers[name]

    def server_names(self) -> list[str]:
        """The names of every server in the deployment."""
        return list(self._servers)

    def sorted_server_names(self) -> list[str]:
        """The server names in sorted order (a copy of the maintained list)."""
        return list(self._sorted_names)

    def active_servers(self) -> list[str]:
        """Names of the servers currently managing at least one key group."""
        return sorted(self._owner_counts)

    def active_groups(self) -> dict[KeyGroup, str]:
        """The current (active key group → owning server) map."""
        return dict(self._group_owner)

    def depth_statistics(self) -> tuple[int, float, int]:
        """(min, average, max) depth over all active key groups.

        Served from the maintained depth histogram: min/max scan the distinct
        depths present and the average divides the maintained depth sum, so
        the numbers are identical to a full registry scan at a fraction of
        the cost.
        """
        if not self._group_owner:
            raise ValueError("the system has no active key groups")
        return (
            min(self._depth_counts),
            self._depth_total / len(self._group_owner),
            max(self._depth_counts),
        )

    # ------------------------------------------------------------------ #
    # Ownership registry maintenance
    # ------------------------------------------------------------------ #

    def _register_group(self, group: KeyGroup, owner: str) -> None:
        """Record ``owner`` as managing ``group``, updating every index."""
        previous = self._group_owner.get(group)
        if previous is not None:
            self._unregister_group(group)
        self._group_owner[group] = owner
        insort(self._arc_index, (self._ring_position(group), group))
        self._owner_counts[owner] = self._owner_counts.get(owner, 0) + 1
        self._depth_counts[group.depth] = self._depth_counts.get(group.depth, 0) + 1
        self._depth_total += group.depth
        self._touched_groups.add(group)

    def _unregister_group(self, group: KeyGroup) -> None:
        """Drop ``group`` from the registry, updating every index."""
        owner = self._group_owner.pop(group, None)
        if owner is None:
            return
        index = self._arc_index
        del index[bisect_left(index, (self._ring_position(group), group))]
        remaining = self._owner_counts[owner] - 1
        if remaining:
            self._owner_counts[owner] = remaining
        else:
            del self._owner_counts[owner]
        depth_remaining = self._depth_counts[group.depth] - 1
        if depth_remaining:
            self._depth_counts[group.depth] = depth_remaining
        else:
            del self._depth_counts[group.depth]
        self._depth_total -= group.depth
        self._touched_groups.add(group)
        self._retired_assignments.append((group, owner))

    def _ring_position(self, group: KeyGroup) -> int:
        """The group's point f(virtual key) on the ring, memoised by key value.

        The point is a pure function of the virtual key — every shard ring
        shares one hash function — so entries never go stale: membership
        changes and partition-map installs move *arcs and shard boundaries*,
        not points.  Keying by value lets a whole left-descendant chain (same
        virtual key at every depth) share one entry, so a split hashes only
        its new right child.
        """
        key_bits = self._config.key_bits
        virtual_value = group.prefix << (key_bits - group.depth)
        position = self._ring_positions.get(virtual_value)
        if position is None:
            if len(self._ring_positions) >= RING_POSITION_MEMO_LIMIT:
                self._ring_positions.clear()
            position = self._position_hash.hash_value(virtual_value, key_bits)
            self._ring_positions[virtual_value] = position
        return position

    def drain_touched_groups(self) -> set[KeyGroup]:
        """Return-and-clear the groups touched since the last drain.

        The flow simulator feeds these into its dirty-group load assignment;
        a caller that never drains simply accumulates a larger (still
        correct) dirty set.
        """
        touched, self._touched_groups = self._touched_groups, set()
        return touched

    def drain_retired_assignments(self) -> list[tuple[KeyGroup, str]]:
        """Return-and-clear the ``(group, former owner)`` deactivation log.

        See :attr:`_LoadCheckReport.retired_assignments` for why an
        incremental assigner must consume these.
        """
        retired, self._retired_assignments = self._retired_assignments, []
        return retired

    def work_stats(self) -> dict[str, int]:
        """Counters measuring how much work the balance passes actually did.

        * ``load_check_probes`` — overload/underload verdict recomputations
          (:meth:`_load_verdicts` cache misses).
        * ``consolidation_probes`` — servers whose consolidation candidates
          were enumerated (:meth:`consolidate_server` calls).
        * ``reports_skipped`` — load-report posts elided by the report-diff
          exchange because the identical reports already stood on the parent.

        The paper-scale benchmark gate records these so an incremental-pass
        regression (suddenly probing everyone again) fails loudly even if
        wall-clock noise masks it.
        """
        return {
            "load_check_probes": self.load_probes,
            "consolidation_probes": self.consolidation_probes,
            "reports_skipped": self.reports_skipped,
        }

    def make_client(self, name: str) -> ClashClient:
        """Create a client wired to this system's transport."""
        return ClashClient(
            name=name,
            router=self,
            key_bits=self._config.key_bits,
            initial_depth_hint=self._config.initial_depth,
        )

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #

    def bootstrap(self, initial_depth: int | None = None) -> None:
        """Partition the key space into root groups and assign them via the DHT.

        Every depth-``initial_depth`` key group is assigned to the server the
        DHT maps its virtual key to; those assignments become root ServerTable
        entries (ParentID = −1), which consolidation never collapses past.
        """
        if self._bootstrapped:
            raise RuntimeError("the system has already been bootstrapped")
        depth = initial_depth if initial_depth is not None else self._config.initial_depth
        if not self._config.min_depth <= depth <= self._config.key_bits:
            raise ValueError(
                f"initial depth must be in [{self._config.min_depth}, "
                f"{self._config.key_bits}], got {depth}"
            )
        shard_bits = self._router.shard_count.bit_length() - 1
        if shard_bits > depth:
            raise ValueError(
                f"cannot bootstrap at depth {depth} with {self._router.shard_count} "
                f"shards: root groups must be at least {shard_bits} deep to be "
                "shard-local"
            )
        for prefix in range(1 << depth):
            group = KeyGroup(prefix=prefix, depth=depth, width=self._config.key_bits)
            owner = self._router.owner_of_key(group.virtual_key)
            self._servers[owner].assign_root_group(group)
            self._register_group(group, owner)
        self._bootstrapped = True

    # ------------------------------------------------------------------ #
    # Group resolution (ground truth, used by the simulator and tests)
    # ------------------------------------------------------------------ #

    def find_active_group(self, key: IdentifierKey) -> tuple[KeyGroup, str]:
        """The active group containing ``key`` and its owner (registry view).

        This is the ground-truth resolution the simulator uses for efficiency;
        protocol-level resolution goes through
        :meth:`route_accept_object` / :class:`~repro.core.client.ClashClient`.
        """
        for depth in range(self._config.key_bits + 1):
            group = KeyGroup.from_key(key, depth)
            owner = self._group_owner.get(group)
            if owner is not None:
                return group, owner
        raise LookupError(f"no active key group covers key {key}")

    def owner_of_group(self, group: KeyGroup) -> str:
        """The owner of an active group (raises if the group is not active)."""
        if group not in self._group_owner:
            raise KeyError(f"group {group} is not an active key group")
        return self._group_owner[group]

    def find_owner(self, group: KeyGroup) -> str | None:
        """The owner of ``group``, or ``None`` when it is not active.

        A copy-free single-group read (``active_groups()`` copies the whole
        registry, which the per-iteration dirty-assignment path must avoid).
        """
        return self._group_owner.get(group)

    # ------------------------------------------------------------------ #
    # Message transport
    # ------------------------------------------------------------------ #

    def _charge_lookup(self, hops: int) -> int:
        """Charge one request/reply pair plus (optionally) DHT routing hops."""
        cost = 2
        self._messages.add(MessageCategory.LOOKUP, 2)
        if self._config.count_routing_hops:
            self._messages.add(MessageCategory.DHT_ROUTING, hops)
            cost += hops
        return cost

    def route_accept_object(
        self, key: IdentifierKey, estimated_depth: int, sender: str
    ) -> tuple[AcceptObjectReply, int]:
        """Route an ``ACCEPT_OBJECT`` probe to the DHT-resolved server.

        Returns the server's reply and the number of messages charged.

        The probe is validated here, once, before anything is routed or
        counted.  Its destination is the virtual key of the depth-
        ``estimated_depth`` group containing ``key``, computed as one shift
        pair; the :class:`DhtAddress` naming it is memoised by value, like
        :meth:`_memoise_ring_position`, and never goes stale — an address is a
        name, which the transport resolves afresh on every delivery.
        """
        key_bits = self._config.key_bits
        if not 0 <= estimated_depth <= key_bits:
            raise ValueError(
                f"estimated_depth must be in [0, {key_bits}], got {estimated_depth}"
            )
        if type(estimated_depth) is not int:
            check_type("estimated_depth", estimated_depth, int)
        if key.width != key_bits:
            raise ValueError(f"key width {key.width} does not match key_bits {key_bits}")
        shift = key_bits - estimated_depth
        virtual_value = (key.value >> shift) << shift
        address = self._probe_addresses.get(virtual_value)
        if address is None:
            if len(self._probe_addresses) >= RING_POSITION_MEMO_LIMIT:
                self._probe_addresses.clear()
            address = DhtAddress(IdentifierKey(value=virtual_value, width=key_bits))
            self._probe_addresses[virtual_value] = address
        message = AcceptObject(key=key, estimated_depth=estimated_depth, sender=sender)
        try:
            delivery = self._transport.request(
                Envelope(
                    source=sender,
                    destination=address,
                    payload=message,
                    category=MessageCategory.LOOKUP,
                )
            )
        except DeliveryFailed:
            # The resolved owner failed with the probe in flight.  Charge the
            # lost request (no reply ever travels back) and let the typed
            # failure reach the client, which retries against the
            # re-stabilised DHT.
            self._messages.add(MessageCategory.LOOKUP, 1)
            raise
        cost = self._charge_lookup(delivery.hops)
        return delivery.reply, cost

    def deliver_data(self, server_name: str, packet_count: float = 1.0) -> None:
        """Account application data packets delivered directly to a server."""
        if server_name not in self._servers:
            raise KeyError(f"no server named {server_name!r}")
        self._messages.add(MessageCategory.DATA, packet_count)

    # ------------------------------------------------------------------ #
    # Splitting
    # ------------------------------------------------------------------ #

    def split_server(self, server_name: str) -> SplitOutcome | None:
        """Ask an overloaded server to shed load by splitting one key group.

        Implements Section 5: split the selected group, use the DHT to find
        the right child's owner, and transfer responsibility with
        ``ACCEPT_KEYGROUP``.  If the DHT maps the right child back to the
        splitting server, the depth is increased again (bounded by
        ``split_retry_limit``); each such self-collision leaves an extra local
        split behind, exactly as the paper describes.

        Returns ``None`` when the server has nothing left to split.
        """
        server = self.server(server_name)
        group = server.choose_group_to_split()
        if group is None:
            return None
        self_collisions = 0
        current = group
        for _attempt in range(self._config.split_retry_limit):
            left, right = current.split()
            child_owner, hops = self._transport.resolve(right.virtual_key)
            if self._config.count_routing_hops:
                self._messages.add(MessageCategory.DHT_ROUTING, hops)
            if child_owner != server_name:
                left_group, right_group, migrated = server.perform_split(
                    current, child_owner
                )
                transfer = AcceptKeyGroup(
                    group=right_group,
                    parent_server=server_name,
                    migrated_queries=len(migrated),
                )
                try:
                    self._transport.request(
                        Envelope(
                            source=server_name,
                            destination=child_owner,
                            payload=transfer,
                            category=MessageCategory.SPLIT,
                            attachment=migrated,
                        )
                    )
                except DeliveryFailed:
                    # The chosen child failed with the ACCEPT_KEYGROUP in
                    # flight: responsibility never moved.  Revert the local
                    # split (the queries come home with it) and report no
                    # split this pass — the next load check re-resolves the
                    # right child against the recovered ring.
                    server.undo_split(current, queries=migrated)
                    self._messages.add(MessageCategory.SPLIT, 1)  # lost transfer
                    self._touched_groups.add(current)
                    return None
                self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
                self._messages.add(MessageCategory.STATE_TRANSFER, len(migrated))
                self._unregister_group(current)
                self._register_group(left_group, server_name)
                self._register_group(right_group, child_owner)
                return SplitOutcome(
                    parent_server=server_name,
                    group=current,
                    left=left_group,
                    right=right_group,
                    child_server=child_owner,
                    migrated_queries=len(migrated),
                    self_collisions=self_collisions,
                    shed=True,
                )
            # The right child maps back to this very server: keep both halves
            # locally and re-randomise by splitting the right child again.
            if current.depth + 1 >= self._config.effective_max_depth:
                break
            left_group, right_group = server.perform_local_split(current)
            self._unregister_group(current)
            self._register_group(left_group, server_name)
            self._register_group(right_group, server_name)
            self_collisions += 1
            current = right_group
        if self_collisions == 0:
            # The only candidate sits at the depth limit and maps back to this
            # server: nothing was split, nothing changed.
            return None
        return SplitOutcome(
            parent_server=server_name,
            group=current,
            left=current,
            right=current,
            child_server=server_name,
            migrated_queries=0,
            self_collisions=self_collisions,
            shed=False,
        )

    # ------------------------------------------------------------------ #
    # Consolidation
    # ------------------------------------------------------------------ #

    @property
    def report_diff_active(self) -> bool:
        """Whether the exchange may elide re-posting unchanged report sets.

        Requires a transport whose equivalence contract permits it (clock-less
        delivery, no per-delivery RNG — see
        :attr:`~repro.net.registry.TransportSpec.report_diff`) and the
        reference full-scan mode to be off.
        """
        return not self.force_full_load_scan and self._transport.supports_report_diff

    def _forget_reports_of(self, failed: str) -> None:
        """Drop a failed server's report-diff state, in O(its pairs).

        Its own reports are retracted from their parents, and the pairs other
        children addressed *to* it are dropped: a full exchange would no
        longer post them.  Every other report stands — the servers a
        membership event moves groups between are dirty already, and the
        next exchange re-posts only theirs.
        """
        own = self._delivered_reports.pop(failed, [])
        for parent_name, group in own:
            parent = self._servers.get(parent_name)
            if parent is not None:
                parent.discard_child_report(group)
                self._report_children[parent_name].discard(failed)
        dropped = len(own)
        for child in self._report_children.pop(failed, ()):
            pairs = self._delivered_reports.get(child)
            if pairs is None:
                continue  # the failed server reported to itself
            kept = [pair for pair in pairs if pair[0] != failed]
            dropped += len(pairs) - len(kept)
            self._delivered_reports[child] = kept
        self._standing_report_total -= dropped
        self._departed_names.add(failed)

    def exchange_load_reports(self) -> int:
        """Deliver every leaf's periodic load report to its parent server.

        Returns the number of reports delivered (each is charged as one MERGE
        message).  On transports whose equivalence contract allows it (see
        :attr:`report_diff_active`) a child whose load inputs have not changed
        since its reports last went out is skipped entirely: the identical
        frozen reports already stand on its parents, so only the message
        accounting is replayed (``reports_skipped`` counts the elided posts).
        A report whose destination unbinds while the envelope is in flight is
        counted once, in the transport's ``dropped_messages`` — it is neither
        charged as a MERGE message nor counted as delivered.
        """
        posted = 0
        reused = 0
        recipients: set[str] = set()
        drops_before = self._transport.dropped_messages
        if self.report_diff_active:
            # Retract first: a child whose reports changed may no longer
            # address some of the pairs it delivered earlier, and those must
            # vanish from the parents before anyone posts — another child may
            # have taken such a group over and re-report it this exchange.
            for name in self._dirty_reports:
                for parent_name, group in self._delivered_reports.get(name, ()):
                    self._servers[parent_name].discard_child_report(group)
                    self._report_children[parent_name].discard(name)
                    recipients.add(parent_name)
            # Every unchanged child's reports already stand on the parents,
            # bit-identical; only the accounting is replayed for them
            # (``_standing_report_total`` tracks their aggregate count so
            # this loop is O(dirty), not O(servers)).  Dirty children are
            # visited in creation-order-index order — the same relative
            # order the full scan posts in.
            reused = self._standing_report_total
            for _order, name in sorted(
                (order, name)
                for name in self._dirty_reports
                if (order := self._server_order.get(name)) is not None
            ):
                server = self._servers.get(name)
                if server is None:
                    continue
                self._dirty_reports.discard(name)
                old = self._delivered_reports.get(name)
                if old is not None:
                    reused -= len(old)
                kept: list[tuple[str, KeyGroup]] = []
                for parent_name, report in server.addressed_load_reports():
                    if parent_name not in self._servers:
                        continue
                    self._transport.post(
                        Envelope(
                            source=server.name,
                            destination=parent_name,
                            payload=report,
                            category=MessageCategory.MERGE,
                        )
                    )
                    posted += 1
                    kept.append((parent_name, report.group))
                    self._report_children.setdefault(parent_name, set()).add(name)
                    recipients.add(parent_name)
                self._delivered_reports[name] = kept
                self._standing_report_total += len(kept) - (
                    len(old) if old is not None else 0
                )
        else:
            # Full exchange: every child re-posts, so every standing report
            # is wiped first — as the diff exchange retracts them — or a
            # report for a group its child no longer measures would linger.
            # Diff bookkeeping left from before a mode switch goes with them,
            # and every child re-delivers once the diff exchange resumes.
            if self._delivered_reports:
                self._delivered_reports.clear()
                self._report_children.clear()
                self._standing_report_total = 0
                self._dirty_reports.update(self._servers)
            for server in self._servers.values():
                server.clear_child_reports()
            # Snapshot: an event-transport churn event may alter membership
            # while a report is in flight.
            for server in list(self._servers.values()):
                # The child knows its parent server directly: it is the
                # ParentID recorded when the group was transferred.
                for parent_name, report in server.addressed_load_reports():
                    if parent_name not in self._servers:
                        continue
                    self._transport.post(
                        Envelope(
                            source=server.name,
                            destination=parent_name,
                            payload=report,
                            category=MessageCategory.MERGE,
                        )
                    )
                    posted += 1
                    recipients.add(parent_name)
        # Deferred-delivery transports coalesce the reports per destination;
        # they must land before consolidation reads them, so the period's
        # batch window closes here.
        self._transport.flush()
        dropped = self._transport.dropped_messages - drops_before
        delivered = posted - dropped + reused
        self._messages.add(MessageCategory.MERGE, delivered)
        self.reports_skipped += reused
        self._last_report_recipients = recipients
        return delivered

    def consolidate_server(self, server_name: str) -> list[MergeOutcome]:
        """Perform every consolidation currently possible at ``server_name``.

        For each inactive parent entry whose two children are jointly cold
        (left child local, right child known from a load report), the parent
        asks the right-child server to release the group and resumes managing
        the parent group itself.
        """
        server = self.server(server_name)
        self.consolidation_probes += 1
        outcomes: list[MergeOutcome] = []
        for parent_group in server.consolidation_candidates():
            entry = server.table.entry(parent_group)
            child_server_name = entry.right_child_id
            if child_server_name is None or child_server_name not in self._servers:
                continue
            left, right = parent_group.split()
            try:
                release = self._transport.request(
                    Envelope(
                        source=server_name,
                        destination=child_server_name,
                        payload=ReleaseKeyGroup(group=right, child_server=child_server_name),
                        category=MessageCategory.MERGE,
                    )
                )
            except DeliveryFailed:
                # The child failed with the release request in flight; its
                # groups were re-homed by failure recovery, so this merge is
                # simply off the table.  Charge the lost request and move on.
                self._messages.add(MessageCategory.MERGE, 1)
                continue
            if release.reply is None:
                # The child has split the group further since reporting; skip.
                continue
            returned: list = release.reply
            if (
                server_name not in self._servers
                or left not in server.table
                or not server.table.entry(left).active
            ):
                # The consolidating server failed mid-release (its table
                # object is stale) or the local left child changed under us;
                # undo is not needed because release_group only removed the
                # child's entry — put the right child back where it was.
                try:
                    self._transport.request(
                        Envelope(
                            source=server_name,
                            destination=child_server_name,
                            payload=AcceptKeyGroup(group=right, parent_server=server_name),
                            category=MessageCategory.MERGE,
                            attachment=returned,
                        )
                    )
                except DeliveryFailed:
                    # The child failed after releasing but before the
                    # put-back landed; the group (and its queries) would be
                    # lost — restart it as a root on the ring's current owner.
                    self._messages.add(MessageCategory.MERGE, 1)
                    self._restart_as_root(right, returned)
                    continue
                # Ownership never changed, but the release dropped the child's
                # measured rate for the group — it must be reassigned.
                self._touched_groups.add(right)
                continue
            server.accept_keygroup_back(parent_group, queries=returned)
            self._messages.add(MessageCategory.MERGE, 2)  # release request + transfer
            self._messages.add(MessageCategory.STATE_TRANSFER, len(returned))
            self._unregister_group(left)
            self._unregister_group(right)
            self._register_group(parent_group, server_name)
            outcomes.append(
                MergeOutcome(
                    parent_server=server_name,
                    parent_group=parent_group,
                    child_server=child_server_name,
                    returned_queries=len(returned),
                )
            )
        return outcomes

    # ------------------------------------------------------------------ #
    # Periodic load check
    # ------------------------------------------------------------------ #

    def _load_verdicts(self, name: str, server: ClashServer) -> tuple[bool, bool]:
        """The (overloaded, underloaded) verdicts for one server.

        Served from the cached flags unless the server is in the dirty set —
        i.e. some load input of its changed since the verdicts were computed.
        A probed server leaves the dirty set; any mutation after the probe
        (its own split, a transfer landing on it) re-dirties it through the
        load listener, so a verdict read later in the same pass is refreshed.
        """
        if (
            self.force_full_load_scan
            or name in self._dirty_load_servers
            or name not in self._load_flags
        ):
            verdicts = (server.is_overloaded(), server.is_underloaded())
            self._load_flags[name] = verdicts
            self._dirty_load_servers.discard(name)
            self.load_probes += 1
        return self._load_flags[name]

    def _split_hot_server(
        self,
        name: str,
        server: ClashServer,
        max_splits_per_server: int,
        report: _LoadCheckReport,
    ) -> None:
        """Split ``server`` repeatedly until it cools off or the cap is hit."""
        attempts = 0
        # Membership is re-checked every iteration: the server being
        # split can itself fail while its transfer is in flight.
        while (
            name in self._servers
            and server.is_overloaded()
            and attempts < max_splits_per_server
        ):
            outcome = self.split_server(name)
            attempts += 1
            if outcome is None:
                break
            report.splits.append(outcome)
            if not outcome.shed:
                break

    def _drain_balance_queue(self, dirty: set[str], visit) -> None:
        """Visit the dirty servers in the full scan's exact order.

        The reference full scan iterates ``self._servers`` — insertion order:
        seed servers in creation order, joiners appended, failed servers
        deleted.  This drain replays that order over only the dirty subset by
        walking a min-heap of per-server order indexes.  Servers dirtied
        *behind* the cursor while the pass runs stay queued for the next pass
        (the full scan's snapshot would likewise not revisit them); servers
        dirtied *ahead* of the cursor are pushed into the live heap by
        :meth:`_mark_server_load_dirty` so the pass picks them up, exactly as
        the full scan's later iterations would.  Servers that join mid-pass
        sit beyond ``_pass_boundary`` and wait for the next pass (the full
        scan's snapshot excludes them too).
        """
        self._pass_boundary = self._order_counter
        heap = [
            order
            for name in dirty
            if (order := self._server_order.get(name)) is not None
            and order < self._pass_boundary
        ]
        heapq.heapify(heap)
        self._pass_heap = heap
        self._pass_cursor = -1
        try:
            while heap:
                order = heapq.heappop(heap)
                if order <= self._pass_cursor:
                    continue  # lazy-deleted duplicate push
                self._pass_cursor = order
                name = self._order_names.get(order)
                if name is None or name not in dirty:
                    continue
                dirty.discard(name)
                server = self._servers.get(name)
                if server is None:
                    continue
                visit(name, server)
        finally:
            self._pass_heap = None
            self._pass_cursor = -1

    def run_load_check(self, max_splits_per_server: int = 4) -> _LoadCheckReport:
        """One system-wide LOAD_CHECK_PERIOD pass: split hot servers, merge cold ones.

        Overloaded servers split repeatedly (up to ``max_splits_per_server``)
        until they drop below the overload threshold; under-loaded servers
        exchange load reports with parents and consolidate cold sibling pairs.
        In steady state the pass is O(servers whose load actually changed):
        each phase drains a dirty work queue in the full scan's visit order
        (see :meth:`_drain_balance_queue`), and a server whose load inputs
        are untouched is neither probed (:meth:`_load_verdicts`) nor offered
        for consolidation — its cached verdicts and standing reports are
        still exact.  ``force_full_load_scan`` restores the reference
        every-server scan for equivalence testing.
        """
        report = _LoadCheckReport()
        if self.force_full_load_scan:
            # Reference path: both passes iterate a snapshot and re-check
            # membership — a churn event delivered by the event transport
            # mid-exchange may add or remove servers while the pass runs.
            for name, server in list(self._servers.items()):
                if name not in self._servers:
                    continue
                if not self._load_verdicts(name, server)[0]:
                    continue
                self._split_hot_server(name, server, max_splits_per_server, report)
            self.exchange_load_reports()
            for name, server in list(self._servers.items()):
                if name not in self._servers or not server.is_active():
                    continue
                # Consolidation only runs on servers that are themselves
                # under-loaded (the paper's "under conditions of
                # under-load"); merging into a busy server would immediately
                # re-trigger a split.
                if self._load_verdicts(name, server)[1]:
                    report.merges.extend(self.consolidate_server(name))
        else:

            def split_visit(name: str, server: ClashServer) -> None:
                if self._load_verdicts(name, server)[0]:
                    self._split_hot_server(name, server, max_splits_per_server, report)

            def merge_visit(name: str, server: ClashServer) -> None:
                if not server.is_active():
                    return
                if self._load_verdicts(name, server)[1]:
                    report.merges.extend(self.consolidate_server(name))

            self._drain_balance_queue(self._dirty_split, split_visit)
            self.exchange_load_reports()
            # A parent whose standing child reports changed this exchange
            # (post or retraction) may have gained or lost consolidation
            # candidates even though its own load inputs never moved.
            self._dirty_merge.update(
                name
                for name in self._last_report_recipients
                if name in self._servers
            )
            self._drain_balance_queue(self._dirty_merge, merge_visit)
        report.touched_groups |= self.drain_touched_groups()
        report.retired_assignments.extend(self.drain_retired_assignments())
        return report

    # ------------------------------------------------------------------ #
    # Membership changes (join handoff, failure recovery)
    # ------------------------------------------------------------------ #

    def _restart_as_root(self, group: KeyGroup, queries: list | None) -> str:
        """Re-home an orphaned group as a root entry on its current DHT owner.

        The common tail of every mid-flight-failure recovery: the server that
        should have received ``group`` is gone, so the group (and whatever
        queries travelled with it) restarts as a root — consolidation linkage
        cannot survive, exactly as in :meth:`handle_server_failure` — on the
        server its virtual key hashes to in the post-failure ring.
        """
        new_owner = self._router.owner_of_key(group.virtual_key)
        self._servers[new_owner].accept_keygroup(
            AcceptKeyGroup(
                group=group,
                parent_server=None,
                migrated_queries=len(queries) if queries else 0,
            ),
            queries=queries,
        )
        self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
        self._messages.add(MessageCategory.STATE_TRANSFER, len(queries) if queries else 0)
        self._unregister_group(group)
        self._register_group(group, new_owner)
        return new_owner

    def _hand_over(
        self, group: KeyGroup, former: str, receiver: str, parent_name: str | None
    ) -> bool:
        """Move one active group from ``former`` to ``receiver``.

        The handoff every membership-driven move uses: ``receiver`` asks the
        current owner to release the group (``RELEASE_KEYGROUP``), and the
        owner transfers responsibility — stored queries included — with the
        ``ACCEPT_KEYGROUP`` envelope a split would have used.  The moved
        entry reports to ``parent_name`` (``None``: it restarts as a root),
        and a surviving parent's ``RightChildID`` is repointed at the
        receiver.  Either server may fail with its half in flight:

        * the former owner dies before releasing — one MERGE message is
          charged and nothing else; its failure recovery has already
          re-homed every group it still held;
        * the owner refuses the release (the group changed under us
          mid-handoff) — ownership stays where it is;
        * the receiver dies after the release — the group and its queries
          are re-homed as a root on the ring's current owner
          (:meth:`_restart_as_root`).

        Returns whether the group left ``former``.
        """
        try:
            release = self._transport.request(
                Envelope(
                    source=receiver,
                    destination=former,
                    payload=ReleaseKeyGroup(group=group, child_server=former),
                    category=MessageCategory.MERGE,
                )
            )
        except DeliveryFailed:
            self._messages.add(MessageCategory.MERGE, 1)
            return False
        if release.reply is None:
            return False
        queries: list = release.reply
        try:
            self._transport.request(
                Envelope(
                    source=former,
                    destination=receiver,
                    payload=AcceptKeyGroup(
                        group=group,
                        parent_server=parent_name,
                        migrated_queries=len(queries),
                    ),
                    category=MessageCategory.SPLIT,
                    attachment=queries,
                )
            )
        except DeliveryFailed:
            self._messages.add(MessageCategory.MERGE, 2)
            self._messages.add(MessageCategory.SPLIT, 1)  # lost transfer
            self._restart_as_root(group, queries)
            return True
        self._messages.add(MessageCategory.MERGE, 2)  # release request + reply
        self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
        self._messages.add(MessageCategory.STATE_TRANSFER, len(queries))
        if parent_name is not None and parent_name in self._servers:
            parent_table = self._servers[parent_name].table
            parent_group = group.parent()
            if parent_group in parent_table:
                entry = parent_table.entry(parent_group)
                if not entry.active and entry.right_child_id == former:
                    entry.right_child_id = receiver
        self._unregister_group(group)
        self._register_group(group, receiver)
        return True

    def handle_server_join(
        self, joiner: str, node_id: int | None = None
    ) -> dict[KeyGroup, str]:
        """Admit a new server and hand over the key groups it now owns.

        The paper delegates membership to the underlying DHT; this implements
        the CLASH-level consequence of a Chord join.  The joiner is bound to
        the transport and inserted into the ring (``add_node`` +
        ``stabilise``), after which the keys between its predecessor and its
        own identifier hash to it.  Every *active* key group whose virtual key
        now maps to the joiner — its row in the arc index lies in the
        joiner's arc and, on a sharded deployment, its key on the joiner's
        shard — is handed over (:meth:`_hand_over`), in registry sort order.
        Consolidation linkage survives the move for right children: the
        transferred entry keeps its parent server (a local ``"self"`` parent
        resolves to the former owner's name) and the parent entry's
        ``RightChildID`` is repointed at the joiner.  A moved *left* child
        restarts as a root entry instead —
        the merge protocol needs the left child local to the parent-entry
        holder, so its linkage cannot survive (failure recovery makes the
        same call) — and root entries stay roots.

        Args:
            joiner: Name of the joining server (must be new).
            node_id: Explicit ring identifier; defaults to hashing the name,
                matching Chord's practice.

        Returns:
            A mapping from each handed-off group to its former owner.
        """
        check_type("joiner", joiner, str)
        if joiner in self._servers:
            raise ValueError(f"server {joiner!r} is already part of the deployment")
        server = self._make_server(joiner)
        shard = self._router.add_server(joiner, node_id=node_id)
        self._router.stabilise()
        self._servers[joiner] = server
        insort(self._sorted_names, joiner)
        self._track_new_server(joiner)
        if joiner in self._departed_names:
            # A returning name: children may still address reports to it that
            # no bookkeeping records, so every child re-delivers.
            self._dirty_reports.update(self._servers)
        self._transport.bind(joiner, self._make_endpoint(server), shard=shard)
        # Ring membership changed: cached DHT routes are stale.
        self._transport.invalidate_routes()
        # The joiner took over exactly the hash keys in the clockwise arc
        # (predecessor, joiner] of its shard ring: one slice of the arc index,
        # or two when the arc wraps through zero (or is the whole ring, when
        # the joiner is alone on it).
        low, high = self._router.rings()[shard].owned_arc(joiner)
        index = self._arc_index
        start = bisect_right(index, low, key=itemgetter(0))
        end = bisect_right(index, high, key=itemgetter(0))
        arc = index[start:end] if low < high else index[start:] + index[:end]
        moving = []
        for _position, group in arc:
            owner = self._group_owner[group]
            # The shard check follows the installed partition map, which a
            # rebalance replaces: it is asked afresh, for the candidates only.
            if owner != joiner and self._router.shard_of_key(group.virtual_key) == shard:
                moving.append((group, owner))
        # Handoffs run in registry sort order; sorting the movers alone gives
        # the same sequence as sorting the whole registry first.
        moving.sort()
        handed_off: dict[KeyGroup, str] = {}
        for group, former in moving:
            former_server = self._servers[former]
            parent_id = former_server.table.entry(group).parent_id
            # Consolidation linkage only survives for *right* children: the
            # merge protocol requires the left child to be local to the
            # parent-entry holder, so a moved left child restarts as a root
            # on the joiner (as failure recovery does) instead of addressing
            # load reports no parent can ever act on.  For right children a
            # "self" parent resolves to the former owner's name; roots stay
            # roots (ParentID = −1).
            is_right_child = group.depth > 0 and group.is_right_child()
            if parent_id is None or not is_right_child:
                parent_name = None
            else:
                parent_name = former if parent_id == SELF_PARENT else parent_id
            if self._hand_over(group, former, joiner, parent_name):
                handed_off[group] = former
        return handed_off

    def rebalance_partition(self, new_map: PartitionMap) -> dict[KeyGroup, str]:
        """Install a new partition map and migrate the key groups it moves.

        The online-rebalance path: every layer routes through the router's
        partition map, so installing ``new_map`` atomically redefines which
        shard each key belongs to, and this method then makes ownership catch
        up by migrating every active key group whose shard changed.  Migration
        is the join's handoff (:meth:`_hand_over`, mid-flight failure recovery
        included) to the server the group's virtual key hashes to on its *new*
        shard's ring.  A moved group always restarts as a root entry:
        consolidation linkage cannot span shards (parents and children must
        share a ring for the merge protocol), exactly the rule
        :meth:`handle_server_join` applies to moved left children.  Stale
        parent entries left behind on the old shard are harmless — their
        release probe finds the child gone and the merge is simply skipped.

        Args:
            new_map: The partition to install.  Must match the router's shard
                count and key width, carry a strictly larger version, and be
                no finer-grained than ``initial_depth`` so every key group —
                roots and all their descendants — stays whole on one shard.

        Returns:
            A mapping from each migrated group to its former owner.
        """
        check_type("new_map", new_map, PartitionMap)
        if self._router.shard_count <= 1:
            raise ValueError("a single-ring deployment has no partition to rebalance")
        if new_map.granularity_depth > self._config.initial_depth:
            raise ValueError(
                f"partition boundaries at granularity depth "
                f"{new_map.granularity_depth} are finer than initial_depth="
                f"{self._config.initial_depth}; root groups must be "
                "shard-local so splits and merges never cross shards"
            )
        current = self._router.partition
        moving = [
            (group, owner)
            for group, owner in sorted(self._group_owner.items())
            if new_map.shard_of_key(group.virtual_key)
            != current.shard_of_key(group.virtual_key)
        ]
        self._router.set_partition(new_map)
        # The key → shard → server resolution changed: cached DHT routes are
        # stale even when no active group happens to move.
        self._transport.invalidate_routes()
        migrated: dict[KeyGroup, str] = {}
        for group, former in moving:
            new_owner = self._router.owner_of_key(group.virtual_key)
            if self._hand_over(group, former, new_owner, None):
                migrated[group] = former
        return migrated

    def handle_server_failure(self, failed: str) -> dict[KeyGroup, str]:
        """Recover from the abrupt loss of a server.

        The paper leaves fault handling to the underlying DHT's machinery;
        this is the natural completion a deployable system needs.  Recovery
        proceeds as the surviving servers would: the failed node is removed
        from the ring, and every key group it actively managed is re-assigned
        to the server its virtual key now hashes to.  When the orphan's own
        ``ParentID`` names a surviving server whose inactive parent entry
        still records the failed node as its right child, that parent
        re-issues the ``ACCEPT_KEYGROUP`` (preserving the consolidation
        linkage); otherwise — a root, a ``"self"`` parent that died with the
        node, a departed parent, or a parent entry that no longer names the
        node — the group restarts as a root entry on its new owner.
        Persistent queries stored on the failed server are lost — they are
        soft state that clients re-register, exactly as in the paper's
        long-lived query model.

        Returns the mapping from re-assigned group to its new owner.
        """
        if failed not in self._servers:
            raise KeyError(f"no server named {failed!r}")
        if not self._router.can_remove(failed):
            # Checked before any state is touched so a refused removal leaves
            # the deployment fully intact.
            raise ValueError(
                f"cannot fail {failed!r}: it is the last server of its shard "
                "and its key range would be left unowned"
            )
        failed_server = self._servers[failed]
        orphaned = list(failed_server.active_groups())
        # Remember, for each orphaned group, which surviving server (if any)
        # holds the inactive parent entry naming the failed node as its child.
        # Only the server the orphan's ParentID names can: one table probe
        # per orphan, as a deployed server would make.
        surviving_parent: dict[KeyGroup, str] = {}
        for group in orphaned:
            holder = failed_server.table.entry(group).parent_id
            if holder in (SELF_PARENT, failed) or holder not in self._servers:
                continue
            parent_table = self._servers[holder].table
            parent = group.parent()
            if parent in parent_table:
                entry = parent_table.entry(parent)
                if not entry.active and entry.right_child_id == failed:
                    surviving_parent[group] = holder
        del self._servers[failed]
        self._untrack_server(failed)
        self._forget_reports_of(failed)
        self._transport.unbind(failed)
        self._router.remove_server(failed)
        reassigned: dict[KeyGroup, str] = {}
        for group in orphaned:
            self._unregister_group(group)
            new_owner = self._router.owner_of_key(group.virtual_key)
            parent_name = surviving_parent.get(group)
            transfer = AcceptKeyGroup(
                group=group, parent_server=parent_name if parent_name else new_owner
            )
            if parent_name is not None:
                try:
                    self._transport.request(
                        Envelope(
                            source=parent_name,
                            destination=new_owner,
                            payload=transfer,
                            category=MessageCategory.SPLIT,
                        )
                    )
                except DeliveryFailed:
                    # A cascading failure removed new_owner while the
                    # re-issued transfer was in flight; charge the lost
                    # (ack-less) transfer, then restart the group as a root
                    # on whoever owns its key in the twice-shrunk ring — the
                    # unconditional transfer + ack charge below covers that
                    # restart.
                    self._messages.add(MessageCategory.SPLIT, 1)
                    new_owner = self._router.owner_of_key(group.virtual_key)
                    self._servers[new_owner].assign_root_group(group)
                else:
                    # The parent's bookkeeping must name the new child owner
                    # so that future consolidations contact the right server.
                    if parent_name in self._servers:
                        self._servers[parent_name].table.entry(
                            group.parent()
                        ).right_child_id = new_owner
            else:
                self._servers[new_owner].assign_root_group(group)
            self._messages.add(MessageCategory.SPLIT, 2)
            self._register_group(group, new_owner)
            reassigned[group] = new_owner
        return reassigned

    # ------------------------------------------------------------------ #
    # Invariant checking
    # ------------------------------------------------------------------ #

    def verify_invariants(self) -> None:
        """Assert every global protocol invariant.

        1. Active groups are mutually prefix-free and exactly cover the key
           space.
        2. The ownership registry matches the servers' own tables.
        3. Every active group is owned by the server its virtual key hashes to
           *unless* it was created by a self-collision retry (in which case it
           lives on the retrying server); the base-case mapping is what makes
           client depth discovery converge.
        4. Per-server table invariants hold.
        5. Every memoised ring position of a registered group, and the arc
           index as a whole, equal the positions recomputed from scratch with
           the hash function of the ring that owns the group's virtual key:
           the index holds exactly one ``(position, group)`` row per
           registered group, in sorted order.
        6. No per-server index names a server outside the registry: a
           departed server is forgotten everywhere (:meth:`_untrack_server`).
        7. The report-diff bookkeeping is exact: every pair of a child with
           no pending re-delivery stands on its parent as that child's
           report, every report standing under the diff exchange is some
           child's pair, the standing total counts every pair, and the
           reverse index names exactly the children with a pair to each
           parent.
        """
        groups = sorted(self._group_owner)
        pair = first_overlapping_pair(groups)
        assert pair is None, f"active groups {pair[0]} and {pair[1]} overlap"
        total = sum(group.size for group in groups)
        assert total == (1 << self._config.key_bits), (
            f"active groups cover {total} keys, expected {1 << self._config.key_bits}"
        )
        for group, owner in self._group_owner.items():
            server = self._servers[owner]
            assert group in server.table, f"{owner} is missing an entry for {group}"
            assert server.table.entry(group).active, (
                f"{owner}'s entry for {group} is not active"
            )
        for name, server in self._servers.items():
            server.table.check_invariants()
            for group in server.active_groups():
                assert self._group_owner.get(group) == name, (
                    f"registry does not record {name} as owner of {group}"
                )
        rings = self._router.rings()
        rows = []
        for group in self._group_owner:
            key = group.virtual_key
            position = rings[self._router.shard_of_key(key)].hash_function.hash_key(key)
            memoised = self._ring_positions.get(key.value)
            assert memoised in (None, position), (
                f"memoised ring position {memoised} of {group} is stale"
            )
            rows.append((position, group))
        assert self._arc_index == sorted(rows), "the arc index is stale"
        indexes = {
            "_dirty_load_servers": self._dirty_load_servers,
            "_dirty_split": self._dirty_split,
            "_dirty_merge": self._dirty_merge,
            "_dirty_reports": self._dirty_reports,
            "_load_flags": self._load_flags,
            "_server_order": self._server_order,
            "_order_names": self._order_names.values(),
            "_sorted_names": self._sorted_names,
            "_delivered_reports": self._delivered_reports,
            "_delivered_reports (parents)": [
                parent
                for pairs in self._delivered_reports.values()
                for parent, _group in pairs
            ],
            "_report_children": self._report_children,
            "_report_children (children)": set().union(*self._report_children.values()),
        }
        for label, names in indexes.items():
            strangers = set(names) - self._servers.keys()
            assert not strangers, f"{label} still names departed {sorted(strangers)}"
        children_of: dict[str, set[str]] = {}
        for child, pairs in self._delivered_reports.items():
            for parent, group in pairs:
                children_of.setdefault(parent, set()).add(child)
                report = self._servers[parent].child_reports().get(group)
                assert child in self._dirty_reports or (
                    getattr(report, "child_server", None) == child
                ), f"{child}'s report for {group} does not stand on {parent}"
        if self.report_diff_active:
            for parent, server in self._servers.items():
                for group, report in server.child_reports().items():
                    assert (parent, group) in self._delivered_reports.get(
                        report.child_server, ()
                    ), f"{parent} holds a report for {group} no bookkeeping records"
        standing = sum(map(len, self._delivered_reports.values()))
        assert self._standing_report_total == standing, f"standing report total != {standing}"
        indexed = {parent: kids for parent, kids in self._report_children.items() if kids}
        assert indexed == children_of, "the report reverse index is stale"
        if self._router.shard_count > 1:
            self.verify_shard_invariants()

    def verify_shard_invariants(self) -> None:
        """Assert the additional invariants of a sharded deployment.

        1. Every active key group is registered on exactly one shard: its
           owner belongs to the shard that owns the group's virtual key (the
           shard a lookup for any of the group's keys routes to).
        2. No consolidation linkage crosses shards: each inactive parent
           entry's recorded right child, and each active entry's parent
           server, live on the entry holder's own shard.  This is what keeps
           split/merge/handoff traffic shard-local.
        """
        router = self._router
        for group, owner in self._group_owner.items():
            key_shard = router.shard_of_key(group.virtual_key)
            owner_shard = router.server_shard(owner)
            assert owner_shard == key_shard, (
                f"group {group} belongs to shard {key_shard} but its owner "
                f"{owner} lives on shard {owner_shard}"
            )
        for name, server in self._servers.items():
            holder_shard = router.server_shard(name)
            for entry in server.table.entries():
                child = entry.right_child_id
                if not entry.active and child is not None and child in self._servers:
                    assert router.server_shard(child) == holder_shard, (
                        f"{name} (shard {holder_shard}) records right child "
                        f"{child} of {entry.group} on shard "
                        f"{router.server_shard(child)}: cross-shard parent link"
                    )
                parent = entry.parent_id
                if (
                    entry.active
                    and parent is not None
                    and parent != SELF_PARENT
                    and parent in self._servers
                ):
                    assert router.server_shard(parent) == holder_shard, (
                        f"{name} (shard {holder_shard}) reports {entry.group} "
                        f"to parent server {parent} on shard "
                        f"{router.server_shard(parent)}: cross-shard parent link"
                    )

    def describe(self) -> dict[str, object]:
        """A summary snapshot of the deployment (for examples and debugging)."""
        depths = [group.depth for group in self._group_owner]
        return {
            "servers": len(self._servers),
            "active_servers": len(self.active_servers()),
            "active_groups": len(self._group_owner),
            "min_depth": min(depths) if depths else None,
            "max_depth": max(depths) if depths else None,
            "messages": self._messages.snapshot(),
        }
