"""Reproduction of the paper's structural figures (Figure 1 and Figure 2).

Figure 1 shows the logical binary tree obtained by repeatedly splitting the
initial key group ``011*``; Figure 2 shows a server's work table after a
couple of splits.  Neither figure depends on a workload — they illustrate the
protocol mechanics — so this driver replays the exact splitting sequence the
paper describes on a live :class:`~repro.core.protocol.ClashSystem` and
renders the resulting structures with :mod:`repro.core.tree_view`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.core.tree_view import build_split_tree, render_split_tree, render_server_table
from repro.keys.keygroup import KeyGroup
from repro.util.rng import RandomStream

__all__ = ["Figure1Result", "run_figure1_figure2"]


@dataclass
class Figure1Result:
    """The regenerated structural figures.

    Attributes:
        tree_text: ASCII rendering of the Figure 1 splitting tree.
        table_text: Figure 2-style rendering of the root server's work table.
        leaf_groups: The wildcard patterns of the tree's leaves, left to right.
        leaf_owners: The server managing each leaf, in the same order.
        root_server: The server that managed the initial ``011*`` group.
    """

    tree_text: str
    table_text: str
    leaf_groups: list[str]
    leaf_owners: list[str]
    root_server: str


def run_figure1_figure2(seed: int = 20040324, server_count: int = 24) -> Figure1Result:
    """Replay the Figure 1 splitting sequence and capture both figures.

    The paper starts from the key group ``011*`` (depth 3) and performs three
    splits: the root group, then the right child ``0111*``, then the left
    grandchild ``01110*``.  Server identities differ from the paper (they are
    whatever the DHT's hashing produces) but the tree shape and the table
    structure are reproduced exactly.
    """
    config = ClashConfig(key_bits=7, hash_bits=16, base_bits=3, initial_depth=3, min_depth=2)
    system = ClashSystem.create(config, server_count=server_count, rng=RandomStream(seed))
    root_group = KeyGroup.from_wildcard("011*", width=config.key_bits)
    root_server = system.owner_of_group(root_group)

    def force_split(pattern: str) -> None:
        group = KeyGroup.from_wildcard(pattern, width=config.key_bits)
        owner = system.owner_of_group(group)
        server = system.server(owner)
        server.set_group_rate(group, 2.0 * config.server_capacity)
        outcome = system.split_server(owner)
        if outcome is None or outcome.group != group:
            # The hottest-group rule picked another (equally loaded) group;
            # retry directly.
            server.reset_interval()
            server.set_group_rate(group, 4.0 * config.server_capacity)
            for other in server.active_groups():
                if other != group:
                    server.set_group_rate(other, 0.0)
            system.split_server(owner)

    # The paper's sequence: 011* -> {0110*, 0111*}; 0111* -> {01110*, 01111*};
    # 01110* -> {011100*, 011101*}.
    force_split("011*")
    force_split("0111*")
    force_split("01110*")

    tree = build_split_tree(system, root_group)
    tree_text = render_split_tree(tree)
    table_text = render_server_table(system.server(root_server).table, root_server)
    leaves = tree.leaves()
    return Figure1Result(
        tree_text=tree_text,
        table_text=table_text,
        leaf_groups=[leaf.group.wildcard() for leaf in leaves],
        leaf_owners=[leaf.owner or "?" for leaf in leaves],
        root_server=root_server,
    )
