"""The CLASH protocol: Content and Load-Aware Scalable Hashing.

This package implements the paper's primary contribution — a redirection
layer placed in front of an unmodified DHT:

* :class:`~repro.core.config.ClashConfig` — all protocol parameters
  (key width N, hash width M, load thresholds, LOAD_CHECK_PERIOD, …).
* :mod:`~repro.core.messages` — the protocol message vocabulary
  (``ACCEPT_OBJECT``, ``OK``, ``INCORRECT_DEPTH``, ``ACCEPT_KEYGROUP``, …)
  and the message-accounting counters used by the evaluation.
* :class:`~repro.core.server_table.ServerTable` — the per-server table of
  key groups (Figure 2 of the paper).
* :class:`~repro.core.server.ClashServer` — overload detection, binary
  splitting, bottom-up consolidation and the three ``ACCEPT_OBJECT`` cases.
* :class:`~repro.core.client.ClashClient` — the modified binary search a
  client uses to discover the current depth of a key's group.
* :class:`~repro.core.protocol.ClashSystem` — the redirection layer binding
  servers to a Chord ring; this is the main public entry point.
"""

from repro.core.client import ClashClient, DepthSearchResult
from repro.core.config import ClashConfig
from repro.core.messages import (
    AcceptKeyGroup,
    AcceptObject,
    AcceptObjectReply,
    MessageCategory,
    MessageStats,
    ReleaseKeyGroup,
    ReplyStatus,
)
from repro.core.policy import (
    CoolestGroupMergePolicy,
    HottestGroupSplitPolicy,
    MergePolicy,
    RandomGroupSplitPolicy,
    RoundRobinSplitPolicy,
    SplitPolicy,
)
from repro.core.protocol import ClashSystem, SplitOutcome
from repro.core.server import ClashServer, GroupLoad
from repro.core.server_table import ServerTable, ServerTableEntry
from repro.core.tree_view import build_split_tree, render_server_table, render_split_tree

__all__ = [
    "ClashConfig",
    "ClashSystem",
    "SplitOutcome",
    "ClashServer",
    "GroupLoad",
    "ClashClient",
    "DepthSearchResult",
    "ServerTable",
    "ServerTableEntry",
    "AcceptObject",
    "AcceptObjectReply",
    "AcceptKeyGroup",
    "ReleaseKeyGroup",
    "ReplyStatus",
    "MessageCategory",
    "MessageStats",
    "SplitPolicy",
    "MergePolicy",
    "HottestGroupSplitPolicy",
    "RandomGroupSplitPolicy",
    "RoundRobinSplitPolicy",
    "CoolestGroupMergePolicy",
    "build_split_tree",
    "render_split_tree",
    "render_server_table",
]
