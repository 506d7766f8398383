"""Chord DHT substrate.

The paper's simulator extends the MIT Chord simulator; this package is the
equivalent substrate in Python.  It provides:

* :class:`~repro.dht.hashspace.HashSpace` — modular ring arithmetic over an
  M-bit hash space.
* :class:`~repro.dht.node.ChordNode` — a single server node with a finger
  table, predecessor pointer and successor list.
* :class:`~repro.dht.ring.ChordRing` — the overlay: node join/leave,
  deterministic finger (re)building, and iterative ``find_successor`` lookup
  with per-hop accounting (the paper's O(log S) bound).
* :class:`~repro.dht.router.RingRouter` — the routing tier above the
  ring(s): :class:`~repro.dht.router.SingleRingRouter` wraps one global ring
  (the paper's deployment), :class:`~repro.dht.router.ShardedRingRouter`
  prefix-partitions the key space across independent rings.

CLASH layers on top of this package without modifying it — exactly the
paper's claim that CLASH "operates in the identifier key space, leaving the
base DHT protocol unchanged".
"""

from repro.dht.hashspace import HashSpace
from repro.dht.node import ChordNode
from repro.dht.ring import ChordRing, LookupResult
from repro.dht.router import (
    RingRouter,
    ShardedRingRouter,
    SingleRingRouter,
    build_router,
)

__all__ = [
    "HashSpace",
    "ChordNode",
    "ChordRing",
    "LookupResult",
    "RingRouter",
    "SingleRingRouter",
    "ShardedRingRouter",
    "build_router",
]
