"""The Chord overlay ring: membership, finger construction and lookups.

The ring supports the operations CLASH needs from the base DHT:

* ``add_node`` / ``remove_node`` — decentralised membership changes, after
  which finger tables and successor lists are repaired (the equivalent of
  Chord's stabilisation converging).
* ``find_successor(key)`` — the ``Map()`` primitive: returns the node that
  owns a hash key, along with the routing path and hop count so that the
  simulator can charge realistic O(log S) message costs.
* ``lookup_key(identifier_key)`` — convenience composition of the hash
  function ``f()`` and ``Map()``.

The implementation follows the Chord paper's iterative lookup: starting from
any node, repeatedly forward to the closest preceding finger until the key's
owner is reached.

Stabilisation is *incremental*: a single membership event repairs only the
state the event can reach — the changed id's ring neighbourhood and the
finger entries whose interval covers the transferred arc — instead of
rebuilding every node's routing tables from scratch.  The repair is exact
(bit-identical to a full rebuild; the randomized equivalence suite in
``tests/dht/test_incremental_stabilise.py`` holds it to that), so which path
runs is purely a performance decision: bulk changes and small rings fall
back to the full rebuild, steady churn on a large ring pays O(locally
affected state) per event.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from repro.dht.hashspace import HashSpace
from repro.dht.node import ChordNode
from repro.keys.hashing import Sha1HashFunction
from repro.keys.identifier import IdentifierKey
from repro.util.rng import RandomStream
from repro.util.validation import check_positive, check_type

__all__ = ["ChordRing", "LookupResult"]

DEFAULT_SUCCESSOR_LIST_LENGTH = 4

LOOKUP_MEMO_LIMIT = 1 << 16
"""Entries kept in the lookup memo before the oldest-inserted entry is
evicted (FIFO; eviction is safe: a fresh walk returns the identical result a
cached entry would)."""


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a DHT lookup.

    Attributes:
        key: The hash key that was looked up.
        owner: Name of the node that owns the key.
        hops: Number of overlay forwarding hops taken (0 if the starting node
            already owned the key).
        path: Names of the nodes traversed, starting node first, owner last.
    """

    key: int
    owner: str
    hops: int
    path: tuple[str, ...] = field(default_factory=tuple)


class ChordRing:
    """A Chord overlay over a set of named server nodes.

    Args:
        space: The M-bit hash space nodes and keys live in.
        hash_function: Hash used both for placing object keys and for deriving
            node identifiers from node names (unless explicit ids are given).
        successor_list_length: Length of each node's successor list.
    """

    def __init__(
        self,
        space: HashSpace,
        hash_function: Sha1HashFunction | None = None,
        successor_list_length: int = DEFAULT_SUCCESSOR_LIST_LENGTH,
    ) -> None:
        check_type("space", space, HashSpace)
        check_type("successor_list_length", successor_list_length, int)
        check_positive("successor_list_length", successor_list_length)
        if hash_function is None:
            hash_function = Sha1HashFunction(hash_bits=space.bits)
        if hash_function.hash_bits != space.bits:
            raise ValueError(
                "hash function width "
                f"({hash_function.hash_bits}) does not match hash space ({space.bits})"
            )
        self._space = space
        self._hash = hash_function
        self._successor_list_length = successor_list_length
        self._nodes_by_name: dict[str, ChordNode] = {}
        self._nodes_by_id: dict[int, ChordNode] = {}
        self._sorted_ids: list[int] = []
        self._stale = False
        # Membership events recorded since the last stabilise(), in arrival
        # order.  Both kinds carry the node object: an added node may have
        # been popped from the membership maps again by a later remove in
        # the same batch, and a removed node may still be routing state for
        # earlier events in the batch.
        self._pending_events: list[tuple[str, int, ChordNode]] = []
        # The node objects behind _sorted_ids.  Identical to _nodes_by_id
        # between stabilisations, but while a batch of events is being
        # applied it tracks the intermediate ring exactly: a node pending
        # removal is still routable until its own event is reached.
        self._ring_nodes: dict[int, ChordNode] = {}
        # The incremental repair needs an exact pre-event routing state to
        # start from; until the first full rebuild there is none.
        self._needs_full_rebuild = True
        #: When True every stabilise() runs the from-scratch rebuild — the
        #: reference path the equivalence suites and benchmarks compare the
        #: incremental repair against.
        self.force_full_stabilise = False
        # Lookup memo: routing is a pure function of the ring membership, so
        # a repeated lookup returns the identical (owner, hops, path) result
        # without re-walking the fingers — the hop charges replayed to the
        # caller are exactly those of a fresh walk.  A membership event
        # invalidates only the entries whose recorded path touches repaired
        # nodes (any other entry replays a walk through unchanged state);
        # the memo is size-capped with FIFO eviction so streams of one-off
        # distinct keys cannot grow it without bound.
        self._lookup_memo: dict[tuple, LookupResult] = {}
        # Inverted index for selective invalidation: node name → memo keys
        # whose recorded path visits that node.
        self._memo_paths: dict[str, set[tuple]] = {}
        self._memo_limit = LOOKUP_MEMO_LIMIT
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_invalidations = 0
        self._memo_evictions = 0
        self._full_rebuilds = 0
        self._incremental_events = 0
        self._finger_recomputations = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def space(self) -> HashSpace:
        """The hash space the ring is built over."""
        return self._space

    @property
    def hash_function(self) -> Sha1HashFunction:
        """The identifier-key → hash-key function used for object placement."""
        return self._hash

    @property
    def successor_list_length(self) -> int:
        """Length of each node's successor list."""
        return self._successor_list_length

    def __len__(self) -> int:
        return len(self._nodes_by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes_by_name

    def node_names(self) -> list[str]:
        """All node names, in ring order."""
        self._ensure_fresh()
        return [self._nodes_by_id[node_id].name for node_id in self._sorted_ids]

    def node(self, name: str) -> ChordNode:
        """The node with the given name (raises :class:`KeyError` if absent)."""
        return self._nodes_by_name[name]

    def node_ids(self) -> list[int]:
        """All node identifiers in increasing ring order."""
        self._ensure_fresh()
        return list(self._sorted_ids)

    def has_node_id(self, node_id: int) -> bool:
        """True if a current member sits at ``node_id`` (exact even while stale)."""
        return node_id in self._nodes_by_id

    def owned_arc(self, name: str) -> tuple[int, int]:
        """The arc of hash keys the named node owns, as ``(predecessor_id, node_id)``.

        A node owns exactly the keys in the clockwise half-open arc
        ``(predecessor_id, node_id]`` — the rule :meth:`owner_of` resolves by
        bisecting the ring order.  The arc wraps through zero when
        ``predecessor_id > node_id``, and covers the whole ring when the two
        are equal (a single-node ring).
        """
        self._ensure_fresh()
        node = self._nodes_by_name[name]
        return node.predecessor, node.node_id

    def memo_stats(self) -> dict[str, int]:
        """Lookup-memo telemetry: size plus lifetime hit/miss/churn counters.

        ``invalidations`` counts entries dropped because a membership event
        repaired a node on their recorded path; ``evictions`` counts entries
        displaced FIFO by the size cap.  Together with ``hits`` they make the
        selective-invalidation win measurable rather than asserted.
        """
        return {
            "entries": len(self._lookup_memo),
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "invalidations": self._memo_invalidations,
            "evictions": self._memo_evictions,
        }

    def stabilise_stats(self) -> dict[str, int]:
        """Stabilisation telemetry: rebuild counts and finger work performed.

        ``finger_recomputations`` counts individual finger-table entries
        written (a full rebuild writes ``len(ring) × bits`` of them, an
        incremental repair only the entries whose interval covers the
        changed arc) — the headline number behind the churn speedup.
        """
        return {
            "full_rebuilds": self._full_rebuilds,
            "incremental_events": self._incremental_events,
            "finger_recomputations": self._finger_recomputations,
        }

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def add_node(self, name: str, node_id: int | None = None) -> ChordNode:
        """Add a node to the ring.

        The node id defaults to the hash of the node name, matching Chord's
        practice of hashing a node's address.  Collisions (two names hashing to
        the same ring point) are rejected.
        """
        check_type("name", name, str)
        if not name:
            raise ValueError("node name must be non-empty")
        if name in self._nodes_by_name:
            raise ValueError(f"node {name!r} is already in the ring")
        if node_id is None:
            node_id = self._hash.hash_string(name)
        self._space.check_member("node_id", node_id)
        if node_id in self._nodes_by_id:
            raise ValueError(
                f"node id {node_id} collides with existing node "
                f"{self._nodes_by_id[node_id].name!r}"
            )
        node = ChordNode(node_id=node_id, name=name)
        self._nodes_by_name[name] = node
        self._nodes_by_id[node_id] = node
        self._pending_events.append(("add", node_id, node))
        self._stale = True
        return node

    def add_nodes(self, names: list[str]) -> list[ChordNode]:
        """Add several nodes then rebuild routing state once."""
        nodes = [self.add_node(name) for name in names]
        self.stabilise()
        return nodes

    def remove_node(self, name: str) -> None:
        """Remove a node from the ring (its keys fall to its successor)."""
        node = self._nodes_by_name.pop(name, None)
        if node is None:
            raise KeyError(f"node {name!r} is not in the ring")
        del self._nodes_by_id[node.node_id]
        self._pending_events.append(("remove", node.node_id, node))
        self._stale = True

    @classmethod
    def build(
        cls,
        node_count: int,
        space: HashSpace,
        hash_function: Sha1HashFunction | None = None,
        rng: RandomStream | None = None,
        name_prefix: str = "s",
    ) -> "ChordRing":
        """Construct a ring of ``node_count`` nodes named ``s0 .. s{n-1}``.

        Node identifiers are drawn uniformly at random (without collision) when
        an ``rng`` is supplied, otherwise derived from the node names by
        hashing.  Random placement matches the paper's simulations, where node
        ids are effectively uniform on the ring.
        """
        check_type("node_count", node_count, int)
        check_positive("node_count", node_count)
        ring = cls(space=space, hash_function=hash_function)
        if node_count > space.size:
            raise ValueError(
                f"cannot place {node_count} nodes in a hash space of size {space.size}"
            )
        used_ids: set[int] = set()
        for index in range(node_count):
            name = f"{name_prefix}{index}"
            if rng is None:
                ring.add_node(name)
            else:
                node_id = rng.randbits(space.bits)
                while node_id in used_ids:
                    node_id = rng.randbits(space.bits)
                used_ids.add(node_id)
                ring.add_node(name, node_id=node_id)
        ring.stabilise()
        return ring

    # ------------------------------------------------------------------ #
    # Stabilisation (finger / successor construction)
    # ------------------------------------------------------------------ #

    def stabilise(self) -> None:
        """Bring successor lists, predecessors and finger tables up to date.

        In a deployed Chord network this state converges gradually through
        the stabilisation protocol; the simulator repairs it deterministically
        and exactly.  Membership events recorded since the last call are
        applied one at a time through the incremental repair (O(locally
        affected state) each); bulk batches, small rings and the very first
        build run the from-scratch rebuild instead.  Both paths produce the
        identical routing state, so the choice is invisible to callers.
        """
        if not self._nodes_by_name:
            self._sorted_ids = []
            self._ring_nodes = {}
            self._pending_events.clear()
            self._invalidate_all_memo()
            self._needs_full_rebuild = True
            self._stale = False
            return
        events = self._pending_events
        self._pending_events = []
        if not events and not self._stale and not self._needs_full_rebuild:
            # Routing state is already exact; rebuilding would recompute the
            # identical tables (and needlessly drop the lookup memo).
            return
        if self._needs_rebuild(events):
            self._full_stabilise()
        else:
            for event in events:
                self._apply_membership_event(event)
        self._stale = False

    def _needs_rebuild(self, events: list[tuple]) -> bool:
        """Whether the pending batch should fall back to the full rebuild.

        The incremental repair assumes a large, previously exact ring: small
        rings (where successor lists wrap onto themselves) and bulk batches
        (where per-event repair would outcost one rebuild) take the full
        path.  Either path yields bit-identical state — this is purely a
        cost decision.
        """
        if self.force_full_stabilise or self._needs_full_rebuild or not events:
            return True
        floor = self._successor_list_length + 2
        count = len(self._sorted_ids)
        if count <= floor or len(events) * 4 >= count:
            return True
        for kind, _node_id, _extra in events:
            count += 1 if kind == "add" else -1
            if count <= floor:
                return True
        return False

    def _full_stabilise(self) -> None:
        """Rebuild every node's routing state from scratch (the reference path)."""
        self._invalidate_all_memo()
        self._sorted_ids = sorted(self._nodes_by_id)
        self._ring_nodes = dict(self._nodes_by_id)
        count = len(self._sorted_ids)
        for position, node_id in enumerate(self._sorted_ids):
            node = self._nodes_by_id[node_id]
            node.predecessor = self._sorted_ids[(position - 1) % count]
            successors = [
                self._sorted_ids[(position + offset) % count]
                for offset in range(1, min(self._successor_list_length, count) + 1)
            ]
            node.successor_list = successors if count > 1 else [node_id]
            node.fingers = self._fingers_of(node_id)
        self._full_rebuilds += 1
        self._finger_recomputations += count * self._space.bits
        self._needs_full_rebuild = False

    def _apply_membership_event(self, event: tuple[str, int, ChordNode]) -> None:
        """Apply one recorded membership event through the incremental repair."""
        kind, node_id, node = event
        if kind == "add":
            self._apply_add(node_id, node)
        else:
            self._apply_remove(node_id, node)
        self._incremental_events += 1

    def _successor_list_at(self, position: int) -> list[int]:
        """The successor list of the node at ``position`` in ring order."""
        ids = self._sorted_ids
        count = len(ids)
        return [
            ids[(position + offset) % count]
            for offset in range(1, min(self._successor_list_length, count) + 1)
        ]

    def _ids_in_arc(self, low: int, high: int) -> list[int]:
        """Node ids in the clockwise half-open arc ``(low, high]``."""
        ids = self._sorted_ids
        start = bisect_right(ids, low)
        end = bisect_right(ids, high)
        if low < high:
            return ids[start:end]
        return ids[start:] + ids[:end]

    def _apply_add(self, node_id: int, node: ChordNode) -> None:
        """Repair routing state around a single insertion at ``node_id``.

        Exactly three kinds of state can change when ``x`` joins:

        * ``x``'s own tables (computed from scratch against the new order);
        * the ring neighbourhood — ``successor(x)``'s predecessor and the
          successor lists of the ≤ ``successor_list_length`` nodes preceding
          ``x`` (the only lists ``x`` enters);
        * finger entries whose start falls in the transferred arc
          ``(predecessor(x), x]`` — those resolved to ``successor(x)``
          before and resolve to ``x`` now; every other point's successor is
          unchanged, so every other finger entry is already exact.
        """
        ids = self._sorted_ids
        insort(ids, node_id)
        self._ring_nodes[node_id] = node
        position = bisect_right(ids, node_id) - 1
        count = len(ids)
        space = self._space
        bits = space.bits
        size = space.size
        predecessor_id = ids[(position - 1) % count]
        successor_id = ids[(position + 1) % count]
        changed: set[str] = set()
        # The joiner's own state, from scratch against the updated order.
        node.predecessor = predecessor_id
        node.successor_list = self._successor_list_at(position)
        node.fingers = self._fingers_of(node_id)
        self._finger_recomputations += bits
        # Ring neighbourhood.
        successor = self._ring_nodes[successor_id]
        successor.predecessor = node_id
        changed.add(successor.name)
        for offset in range(1, min(self._successor_list_length, count - 1) + 1):
            neighbour_position = (position - offset) % count
            neighbour = self._ring_nodes[ids[neighbour_position]]
            neighbour.successor_list = self._successor_list_at(neighbour_position)
            changed.add(neighbour.name)
        # Finger entries covering the transferred arc (predecessor(x), x].
        for finger_index in range(bits):
            step = 1 << finger_index
            low = (predecessor_id - step) % size
            high = (node_id - step) % size
            for owner_id in self._ids_in_arc(low, high):
                if owner_id == node_id:
                    continue  # the joiner's fingers are already exact
                owner = self._ring_nodes[owner_id]
                owner.fingers[finger_index] = node_id
                self._finger_recomputations += 1
                changed.add(owner.name)
        self._invalidate_memo_through(changed)

    def _apply_remove(self, node_id: int, node: ChordNode) -> None:
        """Repair routing state around a single departure at ``node_id``.

        The mirror image of :meth:`_apply_add`: ``successor(x)`` inherits
        ``x``'s arc (its predecessor moves back to ``predecessor(x)``), the
        ≤ ``successor_list_length`` nodes preceding ``x`` drop it from their
        successor lists, and every finger entry whose start falls in
        ``(predecessor(x), x]`` — exactly the entries that pointed at ``x``
        — is retargeted to ``successor(x)``.
        """
        ids = self._sorted_ids
        position = bisect_right(ids, node_id) - 1
        count_before = len(ids)
        predecessor_id = ids[(position - 1) % count_before]
        successor_id = ids[(position + 1) % count_before]
        del ids[position]
        del self._ring_nodes[node_id]
        count = len(ids)
        space = self._space
        size = space.size
        changed: set[str] = {node.name}
        successor = self._ring_nodes[successor_id]
        successor.predecessor = predecessor_id
        changed.add(successor.name)
        successor_position = position % count
        for offset in range(1, min(self._successor_list_length, count - 1) + 1):
            neighbour_position = (successor_position - offset) % count
            neighbour = self._ring_nodes[ids[neighbour_position]]
            neighbour.successor_list = self._successor_list_at(neighbour_position)
            changed.add(neighbour.name)
        for finger_index in range(space.bits):
            step = 1 << finger_index
            low = (predecessor_id - step) % size
            high = (node_id - step) % size
            for owner_id in self._ids_in_arc(low, high):
                owner = self._ring_nodes[owner_id]
                owner.fingers[finger_index] = successor_id
                self._finger_recomputations += 1
                changed.add(owner.name)
        self._invalidate_memo_through(changed)

    def _ensure_fresh(self) -> None:
        if self._stale:
            self.stabilise()
        if not self._nodes_by_name:
            raise ValueError("the ring has no nodes")

    def _successor_id(self, key: int) -> int:
        """The id of the node owning ``key`` (first node clockwise from ``key``)."""
        ids = self._sorted_ids
        return ids[bisect_left(ids, key) % len(ids)]

    def _fingers_of(self, node_id: int) -> list[int]:
        """Node ``node_id``'s finger table against the current ring order.

        Finger ``i`` is the successor of ``node_id + 2**i`` (mod the ring
        size); past the largest id the bisection wraps to the smallest.
        """
        ids = self._sorted_ids
        count = len(ids)
        size = self._space.size
        return [
            ids[bisect_left(ids, (node_id + (1 << index)) % size) % count]
            for index in range(self._space.bits)
        ]

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    def owner_of(self, key: int) -> str:
        """Name of the node owning a hash key (no routing simulation)."""
        self._ensure_fresh()
        self._space.check_member("key", key)
        return self._nodes_by_id[self._successor_id(key)].name

    def find_successor(self, key: int, start: str | None = None) -> LookupResult:
        """Route a lookup for ``key`` through the overlay and return the owner.

        Args:
            key: Hash key to locate.
            start: Name of the node initiating the lookup; defaults to the
                first node in ring order.  Any node may initiate a lookup —
                this is the "present the object to any server" property of
                DHTs.

        Returns:
            A :class:`LookupResult` with the owner and the forwarding path.
        """
        self._ensure_fresh()
        # Validation must precede the memo probe: a cache hit and a miss have
        # to agree on whether the arguments are acceptable at all.
        self._space.check_member("key", key)
        if start is not None and start not in self._nodes_by_name:
            raise KeyError(f"start node {start!r} is not in the ring")
        memo_key = (key, start)
        cached = self._lookup_memo.get(memo_key)
        if cached is not None:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        if start is None:
            start = self._nodes_by_id[self._sorted_ids[0]].name
        current = self._nodes_by_name[start]
        path = [current.name]
        hops = 0
        max_hops = 2 * self._space.bits + len(self._sorted_ids)
        while not current.owns(self._space, key):
            next_id = current.closest_preceding_finger(self._space, key)
            if next_id == current.node_id:
                next_id = current.successor
            next_node = self._nodes_by_id[next_id]
            current = next_node
            path.append(current.name)
            hops += 1
            if hops > max_hops:
                raise RuntimeError(
                    f"lookup for key {key} did not converge after {hops} hops; "
                    "the ring routing state is inconsistent"
                )
        result = LookupResult(key=key, owner=current.name, hops=hops, path=tuple(path))
        self._memoize(memo_key, result)
        return result

    def lookup_key(self, key: IdentifierKey, start: str | None = None) -> LookupResult:
        """Hash an identifier key with ``f()`` and route the resulting hash key.

        Memoized per identifier key: the hash and the routing walk both
        depend only on the key and the ring membership.
        """
        self._ensure_fresh()
        # As in find_successor: reject a bad start before the memo probe so a
        # cache hit cannot silently succeed where a miss would raise.
        if start is not None and start not in self._nodes_by_name:
            raise KeyError(f"start node {start!r} is not in the ring")
        memo_key = (key.value, key.width, start)
        cached = self._lookup_memo.get(memo_key)
        if cached is not None:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        hash_key = self._hash.hash_key(key)
        result = self.find_successor(hash_key, start=start)
        self._memoize(memo_key, result)
        return result

    # ------------------------------------------------------------------ #
    # Lookup-memo maintenance
    # ------------------------------------------------------------------ #

    def _memoize(self, memo_key: tuple, result: LookupResult) -> None:
        memo = self._lookup_memo
        while len(memo) >= self._memo_limit:
            # FIFO: evict the oldest-inserted entry (dicts preserve insertion
            # order).  Recently memoized — hot — entries survive an overflow.
            oldest_key = next(iter(memo))
            self._drop_memo_entry(oldest_key, memo.pop(oldest_key))
            self._memo_evictions += 1
        memo[memo_key] = result
        for name in result.path:
            self._memo_paths.setdefault(name, set()).add(memo_key)

    def _drop_memo_entry(self, memo_key: tuple, result: LookupResult) -> None:
        """Remove one (already popped) memo entry from the path index."""
        for name in result.path:
            keys = self._memo_paths.get(name)
            if keys is not None:
                keys.discard(memo_key)
                if not keys:
                    del self._memo_paths[name]

    def _invalidate_memo_through(self, names: set[str]) -> None:
        """Drop every memo entry whose recorded path visits a repaired node.

        This is exactly the set of entries a membership event can affect: a
        lookup replays node-local routing decisions, so an entry whose path
        touches only unrepaired nodes walks through bit-identical state and
        would reproduce its cached result.
        """
        memo = self._lookup_memo
        for name in names:
            keys = self._memo_paths.pop(name, None)
            if not keys:
                continue
            for memo_key in keys:
                result = memo.pop(memo_key, None)
                if result is None:
                    continue
                self._memo_invalidations += 1
                for other in result.path:
                    if other == name:
                        continue
                    other_keys = self._memo_paths.get(other)
                    if other_keys is not None:
                        other_keys.discard(memo_key)
                        if not other_keys:
                            del self._memo_paths[other]

    def _invalidate_all_memo(self) -> None:
        self._memo_invalidations += len(self._lookup_memo)
        self._lookup_memo.clear()
        self._memo_paths.clear()

    def expected_hops(self) -> float:
        """The textbook O(log S) expectation: ``0.5 * log2(S)`` hops per lookup."""
        self._ensure_fresh()
        count = len(self._sorted_ids)
        if count <= 1:
            return 0.0
        return 0.5 * (count.bit_length() - 1 + (count & (count - 1) != 0))
