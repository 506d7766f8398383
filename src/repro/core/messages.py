"""CLASH protocol messages and message accounting.

Section 5 of the paper defines the message vocabulary informally; this module
makes it concrete:

* ``ACCEPT_OBJECT`` — a client (or a server acting on a client's behalf)
  presents an object key together with an *estimated* depth.
* ``OK`` / ``OK`` with corrected depth / ``INCORRECT_DEPTH`` — the three
  possible server responses (cases (a), (b) and (c) in the paper).
* ``ACCEPT_KEYGROUP`` — an overloaded server transfers responsibility for a
  right-child key group to a peer; the peer *must* accept.
* ``RELEASE_KEYGROUP`` — a child returns a cold key group to its parent during
  bottom-up consolidation.
* ``LOAD_REPORT`` — the periodic leaf → parent workload report consolidation
  relies on.

The evaluation (Figure 5) reports message rates, so every message carries a
:class:`MessageCategory` and the simulator folds deliveries into a
:class:`MessageStats` accumulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup

__all__ = [
    "MessageCategory",
    "ReplyStatus",
    "AcceptObject",
    "AcceptObjectReply",
    "AcceptKeyGroup",
    "ReleaseKeyGroup",
    "LoadReport",
    "MessageStats",
]


class MessageCategory(enum.Enum):
    """Broad categories used when accounting protocol traffic."""

    LOOKUP = "lookup"
    """Client depth-determination probes and their replies."""

    DHT_ROUTING = "dht_routing"
    """Per-hop forwarding inside the underlying DHT."""

    SPLIT = "split"
    """Key-group split signalling (ACCEPT_KEYGROUP and acknowledgements)."""

    MERGE = "merge"
    """Consolidation signalling (LOAD_REPORT, RELEASE_KEYGROUP)."""

    STATE_TRANSFER = "state_transfer"
    """Application state (stored queries) migrated during splits/merges."""

    DATA = "data"
    """Application data packets delivered to their managing server."""

    # Members are singletons compared by identity, so identity hashing is
    # exact — and C-level, where Enum's hash(name) runs Python code on every
    # MessageStats.add.
    __hash__ = object.__hash__


class ReplyStatus(enum.Enum):
    """The three server responses to an ``ACCEPT_OBJECT`` (paper cases a–c)."""

    OK = "ok"
    """The client guessed the correct depth."""

    OK_CORRECTED_DEPTH = "ok_corrected_depth"
    """The guess was wrong but this server manages the object anyway; the
    reply carries the corrected depth."""

    INCORRECT_DEPTH = "incorrect_depth"
    """The server does not manage the object; the reply carries the longest
    prefix match between the key and the server's table entries."""

    # As for MessageCategory: the (status, depth) reply memo hashes these.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class AcceptObject:
    """A request to store (or route) an object under an identifier key.

    Attributes:
        key: The object's N-bit identifier key.
        estimated_depth: The sender's current guess at the key group depth.
        sender: Name of the client or server that issued the request.
    """

    key: IdentifierKey
    estimated_depth: int
    sender: str


@dataclass(frozen=True, slots=True)
class AcceptObjectReply:
    """A server's response to :class:`AcceptObject`.

    Attributes:
        status: Which of the three cases applied.
        correct_depth: The group depth at this server, present for the two OK
            cases.
        longest_prefix_match: For ``INCORRECT_DEPTH``, the length of the
            longest prefix match between the key and any of the server's
            table entries (the paper's ``d_min``).
        server: Name of the responding server.
    """

    status: ReplyStatus
    server: str
    correct_depth: int | None = None
    longest_prefix_match: int | None = None

    def __post_init__(self) -> None:
        if self.status in (ReplyStatus.OK, ReplyStatus.OK_CORRECTED_DEPTH):
            if self.correct_depth is None:
                raise ValueError(f"{self.status} replies must carry correct_depth")
        if self.status is ReplyStatus.INCORRECT_DEPTH:
            if self.longest_prefix_match is None:
                raise ValueError(
                    "INCORRECT_DEPTH replies must carry longest_prefix_match"
                )


@dataclass(frozen=True, slots=True)
class AcceptKeyGroup:
    """Transfer of responsibility for a key group to a child server.

    The receiving server is required to accept (Section 5): an overloaded node
    must always be able to shed load; the child may in turn split further.
    Membership handoffs (server join / failure recovery) reuse the same
    message to move whole groups between peers.

    Attributes:
        group: The key group being transferred (a right child when the
            transfer comes from a split; any active group during a membership
            handoff).
        parent_server: Name of the server managing the parent group, or
            ``None`` when the group is (re)installed as a root entry — the
            paper's ParentID = −1 — during a membership handoff.
        migrated_queries: Number of stored query objects migrated with the
            group (counted as state-transfer overhead).
    """

    group: KeyGroup
    parent_server: str | None
    migrated_queries: int = 0


@dataclass(frozen=True, slots=True)
class ReleaseKeyGroup:
    """A child returns a cold key group to its parent during consolidation.

    Attributes:
        group: The (child) key group being released.
        child_server: Name of the releasing server.
        migrated_queries: Stored queries handed back to the parent.
    """

    group: KeyGroup
    child_server: str
    migrated_queries: int = 0


@dataclass(frozen=True, slots=True)
class LoadReport:
    """Periodic leaf → parent workload report used by consolidation.

    Attributes:
        group: The leaf key group the report describes.
        child_server: Name of the reporting server.
        load: The group's load over the last measurement interval, in absolute
            load units per second.
    """

    group: KeyGroup
    child_server: str
    load: float


@dataclass
class MessageStats:
    """Counts of protocol messages by category.

    The simulator adds to these counters as messages are (logically) sent and
    converts them into the per-server per-second rates Figure 5 reports.
    """

    counts: dict[MessageCategory, float] = field(
        default_factory=lambda: {category: 0.0 for category in MessageCategory}
    )

    def add(self, category: MessageCategory, count: float = 1.0) -> None:
        """Accumulate ``count`` messages of the given category."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.counts[category] += count

    def merge(self, other: "MessageStats") -> None:
        """Fold another accumulator into this one."""
        for category, count in other.counts.items():
            self.counts[category] += count

    def total(self, include: set[MessageCategory] | None = None) -> float:
        """Total messages, optionally restricted to a set of categories."""
        if include is None:
            return sum(self.counts.values())
        return sum(count for category, count in self.counts.items() if category in include)

    def signalling_total(self) -> float:
        """All CLASH signalling (everything except raw application data)."""
        return self.total(
            include={
                MessageCategory.LOOKUP,
                MessageCategory.DHT_ROUTING,
                MessageCategory.SPLIT,
                MessageCategory.MERGE,
                MessageCategory.STATE_TRANSFER,
            }
        )

    def reset(self) -> None:
        """Zero every counter."""
        for category in self.counts:
            self.counts[category] = 0.0

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy keyed by category value (for reporting)."""
        return {category.value: count for category, count in self.counts.items()}
