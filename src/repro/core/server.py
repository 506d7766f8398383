"""The CLASH server: load monitoring, binary splitting and consolidation.

A :class:`ClashServer` owns a :class:`~repro.core.server_table.ServerTable`,
a :class:`~repro.app.query_store.QueryStore` of persistent queries, and the
per-group data-rate measurements for the current interval.  It implements the
server side of Section 5 of the paper:

* the three-case ``ACCEPT_OBJECT`` handler,
* mandatory acceptance of ``ACCEPT_KEYGROUP`` transfers,
* selection of a group to shed when overloaded (pluggable policy, the paper
  uses "hottest"),
* bottom-up consolidation bookkeeping (load reports from children, merge when
  both children of an inactive entry are cold).

Servers never talk to each other directly in this module — all inter-server
communication is mediated by :class:`~repro.core.protocol.ClashSystem`, which
models the network and charges message costs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.app.load_model import LoadModel
from repro.app.query_store import Query, QueryStore
from repro.core.config import ClashConfig
from repro.core.messages import (
    AcceptKeyGroup,
    AcceptObject,
    AcceptObjectReply,
    LoadReport,
    ReleaseKeyGroup,
    ReplyStatus,
)
from repro.core.policy import (
    CoolestGroupMergePolicy,
    HottestGroupSplitPolicy,
    MergePolicy,
    SplitPolicy,
)
from repro.core.server_table import SELF_PARENT, ServerTable, ServerTableEntry
from repro.keys.keygroup import KeyGroup

__all__ = ["ClashServer", "GroupLoad"]


@dataclass(frozen=True)
class GroupLoad:
    """Load breakdown of a single key group over the last interval.

    Attributes:
        group: The key group.
        data_rate: Aggregate packet rate (packets/sec) directed at the group.
        query_count: Number of persistent queries stored under the group.
        load: Combined load in absolute units/sec according to the load model.
    """

    group: KeyGroup
    data_rate: float
    query_count: int
    load: float


class ClashServer:
    """One peer server participating in the CLASH overlay.

    Args:
        name: The server's name (also its identity on the Chord ring).
        config: Protocol configuration.
        split_policy: How to choose the group to shed when overloaded
            (defaults to the paper's hottest-group policy).
        merge_policy: How to choose the group to consolidate when under-loaded
            (defaults to the paper's coldest-group policy).
    """

    def __init__(
        self,
        name: str,
        config: ClashConfig,
        split_policy: SplitPolicy | None = None,
        merge_policy: MergePolicy | None = None,
    ) -> None:
        if not name:
            raise ValueError("server name must be non-empty")
        self._name = name
        self._config = config
        self._load_model = LoadModel(config)
        self._table = ServerTable(key_bits=config.key_bits)
        self._queries = QueryStore()
        self._group_rates: dict[KeyGroup, float] = {}
        self._group_query_counts: dict[KeyGroup, float] = {}
        self._child_reports: dict[KeyGroup, LoadReport] = {}
        # Groups taken on since the last measurement.  A load report is a
        # measurement, so these have none to send: they are left out of the
        # reports and never make a consolidation pair until a rate arrives
        # (or a whole quiet interval passes, which measures 0).
        self._unmeasured: set[KeyGroup] = set()
        # ACCEPT_OBJECT replies by (status, depth): at most 3 × (key_bits + 1).
        self._replies: dict[tuple[ReplyStatus, int], AcceptObjectReply] = {}
        self._split_policy = split_policy or HottestGroupSplitPolicy()
        self._merge_policy = merge_policy or CoolestGroupMergePolicy()
        self.splits_performed = 0
        self.merges_performed = 0
        # Per-interval load cache.  The load check asks for total_load() /
        # group loads many times between mutations (overload probes, split
        # selection, report building); the cache makes every repeat read a
        # dict hit and is recomputed — in exactly the order the uncached code
        # used, so the floats are bit-identical — only after one of the three
        # load inputs (rates/overrides, the table, the query store) changed.
        # Staleness is *pushed* at mutation time (rate setters call
        # _mark_loads_dirty directly; the table and query store fire their
        # on_change hooks), so the read path is a single bool test —
        # _current_loads runs millions of times per paper-scale run.
        self._loads_dirty = True
        self._loads_epoch = 0
        self._loads_cache: dict[KeyGroup, GroupLoad] = {}
        self._total_load_cache = 0.0
        self._reports_epoch = -1
        self._reports_cache: list[tuple[str, LoadReport]] = []
        self._table.on_change = self._mark_loads_dirty
        self._queries.on_change = self._mark_loads_dirty
        # Load-change listener (overload-set tracking).  The owning
        # ClashSystem installs a callback here; every mutation of a load
        # input -- measured rates / query overrides, the table's active
        # groups, the query store -- pushes this server's name into the
        # system's dirty set, so steady-state load checks probe only the
        # servers that actually changed.
        self._load_listener = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """The server's name."""
        return self._name

    @property
    def config(self) -> ClashConfig:
        """The protocol configuration the server runs with."""
        return self._config

    @property
    def table(self) -> ServerTable:
        """The server's work table (Figure 2)."""
        return self._table

    @property
    def query_store(self) -> QueryStore:
        """The persistent queries currently stored on this server."""
        return self._queries

    @property
    def load_model(self) -> LoadModel:
        """The load model used for overload / underload decisions."""
        return self._load_model

    def set_load_listener(self, listener) -> None:
        """Install the callback invoked (with this server's name) whenever a
        load input changes.  ``None`` disables notifications."""
        self._load_listener = listener

    def _notify_load_changed(self) -> None:
        if self._load_listener is not None:
            self._load_listener(self._name)

    def active_groups(self) -> list[KeyGroup]:
        """The key groups this server currently manages."""
        return self._table.active_groups()

    def is_active(self) -> bool:
        """True if the server currently manages at least one key group."""
        return self._table.has_active_groups()

    # ------------------------------------------------------------------ #
    # Load bookkeeping
    # ------------------------------------------------------------------ #

    def reset_interval(self) -> None:
        """Clear per-interval measurements (rates and overrides).  Child load
        reports measure the children; the report exchange owns them."""
        self._group_rates.clear()
        self._group_query_counts.clear()
        self._unmeasured.clear()
        self._touch_rates()

    def clear_child_reports(self) -> None:
        """Drop the child load reports without touching the measured rates.

        The report exchange owns how long a report stands: the full exchange
        wipes every parent before its children re-post, and the diff exchange
        retracts a changed child's reports one by one.
        """
        if self._child_reports:
            self._child_reports.clear()

    def discard_measurements(self, group: KeyGroup) -> None:
        """Drop the interval rate and query override recorded for ``group``.

        The incremental assignment path calls this at a period/iteration
        boundary for groups this server no longer manages — exactly what a
        full ``reset_interval`` would have wiped.  Without it, a stale query
        override would be resurrected if the same group were re-activated
        here by a later split or merge.
        """
        removed = self._group_rates.pop(group, None) is not None
        if self._group_query_counts.pop(group, None) is not None:
            removed = True
        if removed:
            self._touch_rates()

    def set_group_rate(self, group: KeyGroup, rate: float) -> None:
        """Record the data rate observed for an active group this interval."""
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        if group not in self._table or not self._table.entry(group).active:
            raise KeyError(f"{self._name} does not actively manage group {group}")
        self._group_rates[group] = rate
        self._unmeasured.discard(group)
        self._touch_rates()

    def add_group_rate(self, group: KeyGroup, rate: float) -> None:
        """Accumulate additional data rate onto an active group."""
        current = self._group_rates.get(group, 0.0)
        self.set_group_rate(group, current + rate)

    def set_group_query_count(self, group: KeyGroup, count: float) -> None:
        """Override the stored-query count used for an active group's load.

        The flow-level simulator models the 50,000-strong query population
        analytically (expected counts per group) rather than materialising
        every query object; this override supplies that expected count.  When
        no override is present the count comes from the server's own
        :class:`~repro.app.query_store.QueryStore`.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if group not in self._table or not self._table.entry(group).active:
            raise KeyError(f"{self._name} does not actively manage group {group}")
        self._group_query_counts[group] = count
        self._touch_rates()

    def _touch_rates(self) -> None:
        """Invalidate the load cache after a rate/override mutation."""
        self._loads_dirty = True
        self._notify_load_changed()

    def _mark_loads_dirty(self) -> None:
        """Table / query-store mutation hook: the load cache is stale."""
        self._loads_dirty = True

    def _current_loads(self) -> dict[KeyGroup, GroupLoad]:
        """The cached per-group loads, recomputed only after a mutation.

        Internal callers iterate this dict directly and must not mutate it;
        :meth:`group_loads` hands out a copy.
        """
        if self._loads_dirty:
            loads: dict[KeyGroup, GroupLoad] = {}
            for group in self._table.active_groups():
                rate = self._group_rates.get(group, 0.0)
                if group in self._group_query_counts:
                    query_count = self._group_query_counts[group]
                else:
                    query_count = self._queries.count_in_group(group)
                load = self._load_model.load(rate, query_count)
                loads[group] = GroupLoad(
                    group=group, data_rate=rate, query_count=int(query_count), load=load
                )
            self._loads_cache = loads
            self._total_load_cache = sum(entry.load for entry in loads.values())
            self._loads_dirty = False
            self._loads_epoch += 1
        return self._loads_cache

    def group_loads(self) -> dict[KeyGroup, GroupLoad]:
        """Per-active-group load breakdown for the current interval."""
        return dict(self._current_loads())

    def total_load(self) -> float:
        """The server's total load in absolute units/sec."""
        self._current_loads()
        return self._total_load_cache

    def load_percent(self) -> float:
        """The server's total load as a percentage of its capacity."""
        return 100.0 * self.total_load() / self._config.server_capacity

    def is_overloaded(self) -> bool:
        """True if the server's load exceeds the overload threshold."""
        self._current_loads()
        return self._load_model.is_overloaded(self._total_load_cache)

    def is_underloaded(self) -> bool:
        """True if the server's load is below the underload threshold."""
        self._current_loads()
        return self._load_model.is_underloaded(self._total_load_cache)

    # ------------------------------------------------------------------ #
    # Key-group assignment
    # ------------------------------------------------------------------ #

    def assign_root_group(self, group: KeyGroup) -> None:
        """Assign an initial (root) key group to this server at bootstrap.

        Root entries have ParentID = −1 (``None``); consolidation never
        collapses past them.
        """
        self._table.add_entry(ServerTableEntry(group=group, parent_id=None))
        self._notify_load_changed()

    def accept_keygroup(self, message: AcceptKeyGroup, queries: list[Query] | None = None) -> None:
        """Accept responsibility for a key group shed by an overloaded peer.

        Acceptance is mandatory (Section 5); the receiving server may later
        split the group further if it is itself overloaded.
        """
        self._table.add_entry(
            ServerTableEntry(group=message.group, parent_id=message.parent_server)
        )
        if queries:
            self._queries.add_all(queries)
        self._unmeasured.add(message.group)
        self._notify_load_changed()

    def accept_keygroup_back(self, group: KeyGroup, queries: list[Query] | None = None) -> None:
        """Re-absorb a consolidated child group's state (parent side of a merge)."""
        if queries:
            self._queries.add_all(queries)
        self.merges_performed += 1
        self._table.record_consolidation(group)
        self._unmeasured.add(group)
        self._notify_load_changed()

    def release_group(self, group: KeyGroup) -> list[Query]:
        """Give up an active group during consolidation (child side of a merge).

        Removes the table entry and returns the queries that must migrate back
        to the parent.
        """
        entry = self._table.entry(group)
        if not entry.active:
            raise ValueError(f"cannot release group {group}: it has been split further")
        queries = self._queries.extract_group(group)
        self._table.remove_entry(group)
        self._group_rates.pop(group, None)
        self._unmeasured.discard(group)
        self._notify_load_changed()
        return queries

    # ------------------------------------------------------------------ #
    # The ACCEPT_OBJECT handler (paper cases a, b, c)
    # ------------------------------------------------------------------ #

    def handle_accept_object(self, message: AcceptObject) -> AcceptObjectReply:
        """Respond to an object presented with an estimated depth.

        A reply is a frozen value fixed by its ``(status, depth)`` — this
        server's name is the only other field — so each pair is built once
        and shared by every later probe that earns it.
        """
        key = message.key
        matching = self._table.active_group_for(key)
        if matching is None:
            # Case (c): this server is not responsible for the object.
            status = ReplyStatus.INCORRECT_DEPTH
            depth = self._table.longest_prefix_match(key)
        elif matching.depth == message.estimated_depth:
            # Case (a): the client guessed the right depth.
            status, depth = ReplyStatus.OK, matching.depth
        else:
            # Case (b): wrong depth, but the object still belongs here.
            status, depth = ReplyStatus.OK_CORRECTED_DEPTH, matching.depth
        reply = self._replies.get((status, depth))
        if reply is None:
            if status is ReplyStatus.INCORRECT_DEPTH:
                reply = AcceptObjectReply(status, self._name, longest_prefix_match=depth)
            else:
                reply = AcceptObjectReply(status, self._name, correct_depth=depth)
            self._replies[(status, depth)] = reply
        return reply

    def store_query(self, query: Query) -> None:
        """Store a persistent query (the object type that survives splits)."""
        if self._table.active_group_for(query.key) is None:
            raise ValueError(
                f"{self._name} does not manage a group containing key {query.key}"
            )
        self._queries.add(query)
        self._notify_load_changed()

    # ------------------------------------------------------------------ #
    # Splitting (overload)
    # ------------------------------------------------------------------ #

    def choose_group_to_split(self) -> KeyGroup | None:
        """Pick the group to shed according to the split policy."""
        loads = {group: info.load for group, info in self._current_loads().items()}
        if not loads:
            return None
        return self._split_policy.select(loads, self._config.effective_max_depth)

    def perform_split(
        self, group: KeyGroup, right_child_server: str
    ) -> tuple[KeyGroup, KeyGroup, list[Query]]:
        """Split ``group`` and extract the state migrating to the right child.

        Returns ``(left, right, migrated_queries)``.  The caller (the
        :class:`~repro.core.protocol.ClashSystem`) is responsible for
        delivering the ``ACCEPT_KEYGROUP`` message and the queries to the
        right-child server.
        """
        rate = self._group_rates.pop(group, 0.0)
        self._unmeasured.discard(group)
        left, right = self._table.record_split(group, right_child_server)
        migrated = self._queries.extract_group(right)
        # Until fresh measurements arrive, attribute half the parent's rate to
        # the remaining left child (the key space halves under a split).
        self._group_rates[left] = rate / 2.0
        self.splits_performed += 1
        self._notify_load_changed()
        return left, right, migrated

    def undo_split(self, group: KeyGroup, queries: list[Query] | None = None) -> None:
        """Revert a :meth:`perform_split` whose transfer was never delivered.

        The right-child server failed while the ``ACCEPT_KEYGROUP`` was in
        flight, so responsibility never moved: the table reverts to the
        pre-split entry and the extracted queries come home.  The parent's
        measured rate was dropped by :meth:`perform_split`; the caller must
        mark the group for reassignment.
        """
        left = self._table.record_consolidation(group)
        self._group_rates.pop(left, None)
        self._unmeasured.add(group)
        if queries:
            self._queries.add_all(queries)
        self.splits_performed -= 1
        self._notify_load_changed()

    def perform_local_split(self, group: KeyGroup) -> tuple[KeyGroup, KeyGroup]:
        """Split ``group`` but keep both children on this server.

        Used when the DHT maps the right child back to the splitting server
        itself (Section 5's self-collision case): the server records the split
        and immediately retries by splitting the right child again.
        """
        rate = self._group_rates.pop(group, 0.0)
        self._unmeasured.discard(group)
        left, right = self._table.record_split(group, right_child_server=self._name)
        self._table.add_entry(ServerTableEntry(group=right, parent_id=SELF_PARENT))
        self._group_rates[left] = rate / 2.0
        self._group_rates[right] = rate / 2.0
        self.splits_performed += 1
        self._notify_load_changed()
        return left, right

    # ------------------------------------------------------------------ #
    # Consolidation (underload, bottom-up)
    # ------------------------------------------------------------------ #

    def choose_group_to_consolidate(self) -> KeyGroup | None:
        """Pick the cold leaf group to report to its parent (merge policy)."""
        loads = {group: info.load for group, info in self._current_loads().items()}
        if not loads:
            return None
        return self._merge_policy.select(
            loads, cold_threshold=0.5 * self._config.underload_load, min_depth=self._config.min_depth
        )

    def build_load_reports(self) -> list[LoadReport]:
        """Load reports for every active leaf group whose parent lives elsewhere.

        These are the periodic leaf → parent messages that drive bottom-up
        consolidation.
        """
        return [report for _parent, report in self.addressed_load_reports()]

    def addressed_load_reports(self) -> list[tuple[str, LoadReport]]:
        """``(parent server, report)`` pairs for every reportable leaf group.

        A group taken on since its last measurement (``_unmeasured``) is not
        reportable: reporting a load nobody has measured would let the parent
        merge a split back in the very check that made it.  The pairs are
        cached against the load epoch: while nothing changed since the last
        check, the identical frozen report objects are re-delivered without
        being rebuilt.
        """
        loads = self._current_loads()
        if self._reports_epoch == self._loads_epoch:
            return self._reports_cache
        reports: list[tuple[str, LoadReport]] = []
        for group, info in loads.items():
            parent_id = self._table.entry(group).parent_id
            if parent_id is None or parent_id == SELF_PARENT or group in self._unmeasured:
                continue
            reports.append(
                (parent_id, LoadReport(group=group, child_server=self._name, load=info.load))
            )
        self._reports_cache = reports
        self._reports_epoch = self._loads_epoch
        return reports

    def receive_load_report(self, report: LoadReport) -> None:
        """Record a child's load report for the current interval."""
        self._child_reports[report.group] = report

    def child_reports(self) -> Mapping[KeyGroup, LoadReport]:
        """The child load reports standing here, by group (do not mutate)."""
        return self._child_reports

    def discard_child_report(self, group: KeyGroup) -> None:
        """Forget the child load report recorded for ``group`` (if any).

        The report-diff exchange uses this to retract a report that a
        re-delivering child no longer addresses here — the state the full
        exchange's :meth:`clear_child_reports` wipes wholesale.  Like
        report delivery, it does not notify the load listener: child reports
        are consolidation inputs, not load inputs.
        """
        self._child_reports.pop(group, None)

    def consolidation_candidates(self) -> list[KeyGroup]:
        """Inactive parent groups whose two children are currently both cold.

        The left child is held locally (its load is measured directly).  The
        right child's load comes from the most recent
        :class:`~repro.core.messages.LoadReport` — or, when the right child is
        also held locally (the self-collision case of Section 5), from the
        local measurement; a pair with a local child nobody has measured yet
        is passed over.  A parent group qualifies when the combined child
        load is below the underload threshold *and* absorbing the right child
        would not push this server over the overload threshold — without the
        second condition a split performed to relieve overload would be undone
        at the next check, producing a split/merge oscillation.
        """
        candidates: list[KeyGroup] = []
        local_loads = self._current_loads()
        total_load = self._total_load_cache
        for entry in self._table.entries():
            if entry.active:
                continue
            parent_group = entry.group
            left, right = parent_group.split()
            if left not in self._table or not self._table.entry(left).active:
                continue
            if left in self._unmeasured:
                continue
            left_load = local_loads[left].load if left in local_loads else 0.0
            right_is_local = right in self._table and self._table.entry(right).active
            if right_is_local:
                if right in self._unmeasured:
                    continue
                right_load = local_loads[right].load if right in local_loads else 0.0
            else:
                report = self._child_reports.get(right)
                if report is None:
                    continue
                right_load = report.load
            if not self._load_model.siblings_mergeable(left_load, right_load):
                continue
            added_load = 0.0 if right_is_local else right_load
            if self._load_model.is_overloaded(total_load + added_load):
                continue
            candidates.append(parent_group)
        return sorted(candidates, key=lambda group: -group.depth)

    def build_release_request(self, parent_group: KeyGroup) -> ReleaseKeyGroup:
        """The request a parent sends to the right-child server during a merge."""
        entry = self._table.entry(parent_group)
        if entry.active:
            raise ValueError(f"group {parent_group} is active; nothing to consolidate")
        if entry.right_child_id is None:
            raise ValueError(f"group {parent_group} has no recorded right child")
        _left, right = parent_group.split()
        return ReleaseKeyGroup(group=right, child_server=entry.right_child_id)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> dict[str, object]:
        """Snapshot of the server, convenient for examples and debugging."""
        return {
            "name": self._name,
            "active_groups": [group.wildcard() for group in self.active_groups()],
            "load_percent": self.load_percent(),
            "stored_queries": len(self._queries),
            "splits_performed": self.splits_performed,
            "merges_performed": self.merges_performed,
        }
