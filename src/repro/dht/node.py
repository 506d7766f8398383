"""A single Chord node: identifier, finger table, successor list, predecessor."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.hashspace import HashSpace

__all__ = ["ChordNode"]


@dataclass
class ChordNode:
    """State held by one Chord overlay node.

    Attributes:
        node_id: The node's position on the hash ring (M-bit integer).
        name: Human-readable identifier, e.g. ``"s25"``; used by CLASH's
            ServerTable fields (ParentID, RightChildID) and in reporting.
        fingers: Finger table — entry ``i`` holds the node id of the successor
            of ``node_id + 2**i``; length equals the hash-space width once the
            ring has built it.
        successor_list: The ids of the next ``r`` nodes clockwise; used for
            robustness and for replication.
        predecessor: The id of the previous node on the ring, or ``None``
            before stabilisation.
    """

    node_id: int
    name: str
    fingers: list[int] = field(default_factory=list)
    successor_list: list[int] = field(default_factory=list)
    predecessor: int | None = None

    @property
    def successor(self) -> int:
        """The immediate successor (first entry of the successor list)."""
        if not self.successor_list:
            raise ValueError(f"node {self.name} has no successor yet")
        return self.successor_list[0]

    def closest_preceding_finger(self, space: HashSpace, target: int) -> int:
        """The finger that most closely precedes ``target`` (Chord routing step).

        Falls back to the node's own id when no finger strictly precedes the
        target, which terminates the routing loop at the current node.
        Only ``target`` arrives from outside and is validated; the node's own
        id and its fingers are ring points by construction, so the open
        interval ``(node_id, target)`` is tested on clockwise distances
        (``target == node_id`` spans the whole ring but the node itself).
        """
        space.check_member("target", target)
        node_id = self.node_id
        size = space.size
        reach = (target - node_id) % size or size
        for finger_id in reversed(self.fingers):
            if 0 < (finger_id - node_id) % size < reach:
                return finger_id
        return node_id

    def owns(self, space: HashSpace, key: int) -> bool:
        """True if this node owns ``key``, i.e. ``key`` is in ``(predecessor, node_id]``.

        As in :meth:`closest_preceding_finger`, only ``key`` is validated; the
        predecessor and the node's own id are ring points by construction, so
        the arc is tested on clockwise distances from the predecessor
        (``predecessor == node_id`` is a single-node ring: the whole ring).
        """
        low = self.predecessor
        if low is None:
            raise ValueError(f"node {self.name} has no predecessor yet")
        space.check_member("key", key)
        node_id = self.node_id
        size = space.size
        return low == node_id or 0 < (key - low) % size <= (node_id - low) % size

    def describe(self) -> dict[str, object]:
        """A plain-dict snapshot of the node, convenient for debugging and reports."""
        return {
            "name": self.name,
            "node_id": self.node_id,
            "predecessor": self.predecessor,
            "successor": self.successor_list[0] if self.successor_list else None,
            "finger_count": len(self.fingers),
        }
