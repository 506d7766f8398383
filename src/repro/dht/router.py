"""The routing tier: one interface over one ring or a federation of rings.

A single global :class:`~repro.dht.ring.ChordRing` is the hard scalability
ceiling of the original design — every lookup, registration and membership
event funnels through one overlay.  The routing tier breaks that coupling:
:class:`~repro.core.protocol.ClashSystem` talks to a :class:`RingRouter`,
which either wraps today's single ring (:class:`SingleRingRouter`,
bit-identical to the pre-router behaviour) or partitions the identifier key
space across several independent Chord rings
(:class:`ShardedRingRouter`).

Sharding model
--------------

Which shard owns a key is decided by a first-class
:class:`~repro.dht.partition.PartitionMap`: an ordered list of contiguous
key ranges, one per shard, with a monotonically increasing version.  The
default :class:`~repro.dht.partition.StaticPrefixPartition` reproduces the
original rule bit for bit — with ``2**b`` shards, shard ``k`` owns every
identifier key whose top ``b`` bits equal ``k`` — while a rebalance may
install a newer map with load-proportional boundaries
(:meth:`ShardedRingRouter.set_partition`).  Each shard runs its own full
Chord ring over a disjoint subset of the servers, so a shard is exactly the
unit a future multi-process worker can own: its servers, its overlay and
its slice of the key space move together.

Because a key group's children share its prefix, a group of depth ``d``
lies entirely inside one aligned prefix block of any depth ``<= d``.  CLASH
bootstraps its root groups at ``initial_depth`` and consolidation never
collapses past a root entry, so requiring every map's boundary granularity
to stay at or above block size ``2**(key_bits - initial_depth)`` (enforced
by :class:`~repro.core.protocol.ClashSystem`) makes every split, merge,
load report and parent link *shard-local* by construction; only the
stateless routing decision — which shard owns a virtual key — is global.

Server placement balances shard populations: a joining server lands on the
least-populated shard (ties broken by shard index), which is deterministic
and keeps churn from hollowing out a shard.  Removing the last server of a
shard is refused (:meth:`RingRouter.can_remove`) — a shard must always be
able to own its keys.
"""

from __future__ import annotations

import abc

from repro.dht.hashspace import HashSpace
from repro.dht.partition import PartitionMap, StaticPrefixPartition
from repro.dht.ring import ChordRing, LookupResult
from repro.keys.identifier import IdentifierKey
from repro.util.validation import check_positive, check_power_of_two, check_type

__all__ = [
    "RingRouter",
    "SingleRingRouter",
    "ShardedRingRouter",
    "build_router",
]


class RingRouter(abc.ABC):
    """The interface :class:`~repro.core.protocol.ClashSystem` routes through.

    A router owns one or more :class:`~repro.dht.ring.ChordRing` instances
    and maps identifier keys and server names onto them.  All methods are
    deterministic functions of the membership and the key — the router keeps
    no per-lookup state of its own.
    """

    # ------------------------------------------------------------------ #
    # Topology introspection
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def shard_count(self) -> int:
        """Number of independent rings the key space is partitioned across."""

    @abc.abstractmethod
    def rings(self) -> tuple[ChordRing, ...]:
        """Every shard's ring, in shard order."""

    @property
    @abc.abstractmethod
    def ring(self) -> ChordRing:
        """The single underlying ring (raises for sharded routers)."""

    @abc.abstractmethod
    def server_shard(self, name: str) -> int:
        """The shard index the named server belongs to (KeyError if absent)."""

    @abc.abstractmethod
    def shard_of_key(self, key: IdentifierKey) -> int:
        """The shard index owning an identifier (virtual) key."""

    @abc.abstractmethod
    def servers_in_shard(self, shard: int) -> list[str]:
        """Names of the servers in one shard, in ring order."""

    @abc.abstractmethod
    def node_ids(self) -> list[int]:
        """All node identifiers across every shard, in increasing order."""

    def has_node_id(self, node_id: int) -> bool:
        """True if a server on any shard ring sits at ``node_id``."""
        return any(ring.has_node_id(node_id) for ring in self.rings())

    def __contains__(self, name: str) -> bool:
        try:
            self.server_shard(name)
        except KeyError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def add_server(self, name: str, node_id: int | None = None) -> int:
        """Place a server on a shard ring; returns the shard index.

        The routing state of the touched shard is stale until
        :meth:`stabilise` runs.
        """

    @abc.abstractmethod
    def remove_server(self, name: str) -> None:
        """Remove a server from its shard ring and re-stabilise that shard.

        Raises :class:`ValueError` when the server is the last member of its
        shard (see :meth:`can_remove`).
        """

    @abc.abstractmethod
    def can_remove(self, name: str) -> bool:
        """True if removing ``name`` leaves its shard with at least one node."""

    @abc.abstractmethod
    def stabilise(self) -> None:
        """Rebuild routing state on every shard with pending membership changes."""

    # ------------------------------------------------------------------ #
    # Telemetry and tuning
    # ------------------------------------------------------------------ #

    @property
    def partition_version(self) -> int:
        """Version of the installed partition map (0 when there is none).

        Single-ring deployments have no partition to speak of; sharded
        routers report the version of their current
        :class:`~repro.dht.partition.PartitionMap`.
        """
        return 0

    def memo_stats(self) -> dict[str, int]:
        """Lookup-memo telemetry summed across every shard ring."""
        totals: dict[str, int] = {}
        for ring in self.rings():
            for name, value in ring.memo_stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def stabilise_stats(self) -> dict[str, int]:
        """Stabilisation telemetry summed across every shard ring."""
        totals: dict[str, int] = {}
        for ring in self.rings():
            for name, value in ring.stabilise_stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def lookup(self, key: IdentifierKey) -> LookupResult:
        """Route a lookup for ``key`` through its shard's overlay.

        This is the resolver installed on the transport for
        :class:`~repro.net.envelope.DhtAddress` destinations: the result
        carries the owner and the overlay hop charge.
        """

    @abc.abstractmethod
    def owner_of_key(self, key: IdentifierKey) -> str:
        """The owning server for ``key`` without simulating overlay routing."""


class SingleRingRouter(RingRouter):
    """The degenerate router: one shard, one ring — today's behaviour.

    Every method delegates straight to the wrapped
    :class:`~repro.dht.ring.ChordRing` with the exact call sequence the
    protocol layer used before the routing tier existed, so a ``shards=1``
    deployment is bit-identical to the pre-router code (the golden
    equivalence suite enforces this).
    """

    def __init__(self, space: HashSpace) -> None:
        check_type("space", space, HashSpace)
        self._ring = ChordRing(space=space)

    @property
    def shard_count(self) -> int:
        return 1

    def rings(self) -> tuple[ChordRing, ...]:
        return (self._ring,)

    @property
    def ring(self) -> ChordRing:
        return self._ring

    def server_shard(self, name: str) -> int:
        if name not in self._ring:
            raise KeyError(f"no server named {name!r} on the ring")
        return 0

    def shard_of_key(self, key: IdentifierKey) -> int:
        return 0

    def servers_in_shard(self, shard: int) -> list[str]:
        if shard != 0:
            raise IndexError(f"single-ring router has no shard {shard}")
        return self._ring.node_names()

    def node_ids(self) -> list[int]:
        return self._ring.node_ids()

    def add_server(self, name: str, node_id: int | None = None) -> int:
        self._ring.add_node(name, node_id=node_id)
        return 0

    def remove_server(self, name: str) -> None:
        if not self.can_remove(name):
            raise ValueError(f"cannot remove {name!r}: it is the last ring member")
        self._ring.remove_node(name)
        self._ring.stabilise()

    def can_remove(self, name: str) -> bool:
        return name in self._ring and len(self._ring) > 1

    def stabilise(self) -> None:
        self._ring.stabilise()

    def lookup(self, key: IdentifierKey) -> LookupResult:
        return self._ring.lookup_key(key)

    def owner_of_key(self, key: IdentifierKey) -> str:
        return self._ring.owner_of(self._ring.hash_function.hash_key(key))


class ShardedRingRouter(RingRouter):
    """Partitions the key space across ``shard_count`` Chord rings.

    Every shard-of-key decision — routing, placement, invariant checks —
    delegates to the installed :class:`~repro.dht.partition.PartitionMap`;
    the router itself only owns the rings and the server → shard registry.

    Args:
        space: The hash space every shard ring is built over (shards share
            the hash-space geometry; their memberships are disjoint).
        shard_count: Number of shards; must be a power of two so the
            default prefix partition cuts the space cleanly.
        key_bits: Identifier key width N.
        partition: The initial key-space partition; defaults to the
            :class:`~repro.dht.partition.StaticPrefixPartition` reproducing
            the top-``log2(shard_count)``-bits rule bit-identically.
    """

    def __init__(
        self,
        space: HashSpace,
        shard_count: int,
        key_bits: int,
        partition: PartitionMap | None = None,
    ) -> None:
        check_type("space", space, HashSpace)
        check_power_of_two("shard_count", shard_count)
        check_type("key_bits", key_bits, int)
        check_positive("key_bits", key_bits)
        self._shard_bits = shard_count.bit_length() - 1
        if self._shard_bits > key_bits:
            raise ValueError(
                f"{shard_count} shards need {self._shard_bits} key bits, "
                f"but keys are only {key_bits} bits wide"
            )
        self._key_bits = key_bits
        self._rings = tuple(ChordRing(space=space) for _ in range(shard_count))
        self._server_shards: dict[str, int] = {}
        self._stale_shards: set[int] = set()
        if partition is None:
            partition = StaticPrefixPartition(key_bits=key_bits, shard_count=shard_count)
        self._check_partition(partition)
        self._partition = partition

    def _check_partition(self, partition: PartitionMap) -> None:
        check_type("partition", partition, PartitionMap)
        if partition.key_bits != self._key_bits:
            raise ValueError(
                f"partition map covers {partition.key_bits}-bit keys, "
                f"but the router routes {self._key_bits}-bit keys"
            )
        if partition.shard_count != len(self._rings):
            raise ValueError(
                f"partition map defines {partition.shard_count} ranges, "
                f"but the router federates {len(self._rings)} shards"
            )

    @property
    def shard_count(self) -> int:
        return len(self._rings)

    @property
    def shard_bits(self) -> int:
        """Number of leading key bits that select the shard."""
        return self._shard_bits

    @property
    def partition(self) -> PartitionMap:
        """The installed key-space → shard partition map."""
        return self._partition

    @property
    def partition_version(self) -> int:
        return self._partition.version

    def set_partition(self, partition: PartitionMap) -> None:
        """Install a strictly newer partition map.

        The router swaps the mapping only; migrating the key groups whose
        shard changed — and invalidating cached transport routes — is
        :meth:`~repro.core.protocol.ClashSystem.rebalance_partition`'s job,
        which calls this as its first step.
        """
        self._check_partition(partition)
        if partition.version <= self._partition.version:
            raise ValueError(
                f"partition versions must increase: installed "
                f"{self._partition.version}, offered {partition.version}"
            )
        self._partition = partition

    def rings(self) -> tuple[ChordRing, ...]:
        return self._rings

    @property
    def ring(self) -> ChordRing:
        raise AttributeError(
            "a sharded deployment has no single ring; use rings() or "
            "shard_of_key() to reach the owning shard"
        )

    def server_shard(self, name: str) -> int:
        shard = self._server_shards.get(name)
        if shard is None:
            raise KeyError(f"no server named {name!r} on any shard")
        return shard

    def shard_of_key(self, key: IdentifierKey) -> int:
        if key.width != self._key_bits:
            raise ValueError(
                f"key width {key.width} does not match router key_bits {self._key_bits}"
            )
        return self._partition.shard_of_key(key)

    def servers_in_shard(self, shard: int) -> list[str]:
        return self._rings[shard].node_names()

    def node_ids(self) -> list[int]:
        ids: list[int] = []
        for ring in self._rings:
            if len(ring):
                ids.extend(ring.node_ids())
        ids.sort()
        return ids

    def add_server(self, name: str, node_id: int | None = None) -> int:
        if name in self._server_shards:
            raise ValueError(f"server {name!r} is already placed on a shard")
        # Least-populated shard, ties to the lowest index: deterministic and
        # keeps churn from draining one shard while another grows.
        shard = min(
            range(len(self._rings)), key=lambda index: (len(self._rings[index]), index)
        )
        self._rings[shard].add_node(name, node_id=node_id)
        self._server_shards[name] = shard
        self._stale_shards.add(shard)
        return shard

    def remove_server(self, name: str) -> None:
        shard = self.server_shard(name)
        if len(self._rings[shard]) <= 1:
            raise ValueError(
                f"cannot remove {name!r}: it is the last server of shard {shard}, "
                "which would leave the shard's key range unowned"
            )
        self._rings[shard].remove_node(name)
        del self._server_shards[name]
        self._rings[shard].stabilise()
        self._stale_shards.discard(shard)

    def can_remove(self, name: str) -> bool:
        shard = self._server_shards.get(name)
        return shard is not None and len(self._rings[shard]) > 1

    def stabilise(self) -> None:
        # Only shards with pending membership changes rebuild; an untouched
        # shard's finger tables (and lookup memo) are still exact.
        for shard in sorted(self._stale_shards):
            self._rings[shard].stabilise()
        self._stale_shards.clear()

    def lookup(self, key: IdentifierKey) -> LookupResult:
        return self._rings[self.shard_of_key(key)].lookup_key(key)

    def owner_of_key(self, key: IdentifierKey) -> str:
        ring = self._rings[self.shard_of_key(key)]
        return ring.owner_of(ring.hash_function.hash_key(key))


def build_router(
    shards: int,
    space: HashSpace,
    key_bits: int,
    partition: PartitionMap | None = None,
) -> RingRouter:
    """The router for a deployment: single-ring for 1 shard, sharded above.

    ``partition`` overrides the sharded router's initial key-space map
    (default: the static prefix partition); it is rejected for single-ring
    deployments, which have nothing to partition.
    """
    check_type("shards", shards, int)
    check_positive("shards", shards)
    if shards == 1:
        if partition is not None:
            raise ValueError("a single-ring deployment takes no partition map")
        return SingleRingRouter(space=space)
    return ShardedRingRouter(
        space=space, shard_count=shards, key_bits=key_bits, partition=partition
    )
