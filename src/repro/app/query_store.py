"""Per-server storage of persistent (continuous) queries.

Queries are long-lived objects registered under an identifier key; when a key
group splits, the queries whose keys fall into the right child must migrate to
the child server, and the number of migrated queries is charged as
state-transfer overhead (paper Section 6.3, case B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup

__all__ = ["Query", "QueryStore"]


@dataclass(frozen=True)
class Query:
    """A persistent continuous query registered by a client.

    Attributes:
        query_id: Unique identifier of the query.
        key: The identifier key (i.e. the content region) the query targets.
        client: Name of the querying client, for reporting.
        expires_at: Simulation time at which the query's lifetime ends
            (``math.inf`` for non-expiring queries).
    """

    query_id: int
    key: IdentifierKey
    client: str = "client"
    expires_at: float = float("inf")


class QueryStore:
    """Holds the queries currently assigned to one server.

    The store indexes queries by identifier key so that the subset migrating
    with a split-off key group can be extracted in time proportional to the
    number of affected queries.
    """

    def __init__(self) -> None:
        self._queries: dict[int, Query] = {}
        #: Optional zero-argument callback fired on every mutation.  The
        #: owning server hooks this (like ``ServerTable.on_change``): its
        #: cached per-group loads stay valid exactly until the store (or
        #: another load input) pushes a change.
        self.on_change = None

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._queries

    def add(self, query: Query) -> None:
        """Register a query (rejects duplicate ids)."""
        if query.query_id in self._queries:
            raise ValueError(f"query id {query.query_id} is already registered")
        self._queries[query.query_id] = query
        self._changed()

    def add_all(self, queries: list[Query]) -> None:
        """Register several queries."""
        for query in queries:
            self.add(query)

    def remove(self, query_id: int) -> Query:
        """Deregister and return a query."""
        if query_id not in self._queries:
            raise KeyError(f"no query with id {query_id}")
        self._changed()
        return self._queries.pop(query_id)

    def queries(self) -> list[Query]:
        """All stored queries (unspecified order)."""
        return list(self._queries.values())

    def count_in_group(self, group: KeyGroup) -> int:
        """Number of stored queries whose keys fall in ``group``."""
        return sum(1 for query in self._queries.values() if group.contains_key(query.key))

    def extract_group(self, group: KeyGroup) -> list[Query]:
        """Remove and return the queries whose keys fall in ``group``.

        This is the migration step of a split: the extracted queries are
        shipped to the server accepting the group.
        """
        moving = [
            query for query in self._queries.values() if group.contains_key(query.key)
        ]
        for query in moving:
            del self._queries[query.query_id]
        if moving:
            self._changed()
        return moving

    def expire(self, now: float) -> list[Query]:
        """Remove and return every query whose lifetime has ended."""
        expired = [query for query in self._queries.values() if query.expires_at <= now]
        for query in expired:
            del self._queries[query.query_id]
        if expired:
            self._changed()
        return expired
