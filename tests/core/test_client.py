"""Unit tests for the CLASH client depth-discovery search."""

from __future__ import annotations

import pytest

from repro.core.client import ClashClient
from repro.core.messages import AcceptObjectReply, ReplyStatus
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup

WIDTH = 12


class TreeRouter:
    """A scripted router backed by an explicit prefix-free set of key groups.

    It answers ``ACCEPT_OBJECT`` probes exactly as the distributed system
    would: the probe is addressed by the virtual key of the *estimated* group,
    and this router pretends each active group lives on its own dedicated
    server whose table contains only that group.  A probe reaching the right
    server (same virtual key as the true group) gets OK; other probes get
    INCORRECT_DEPTH with the longest prefix match against that server's lone
    entry — a conservative (least informative) but protocol-faithful reply.
    """

    def __init__(self, groups: list[KeyGroup]) -> None:
        for index, group in enumerate(groups):
            for other in groups[index + 1 :]:
                if group.overlaps(other):
                    raise ValueError("router groups must be prefix-free")
        self.groups = groups
        self.probes = 0

    def _true_group(self, key: IdentifierKey) -> KeyGroup:
        for group in self.groups:
            if group.contains_key(key):
                return group
        raise LookupError(f"no group covers {key}")

    def route_accept_object(self, key, estimated_depth, sender):
        self.probes += 1
        probe_group = KeyGroup.from_key(key, estimated_depth)
        true_group = self._true_group(key)
        if probe_group.virtual_key == true_group.virtual_key:
            status = (
                ReplyStatus.OK
                if estimated_depth == true_group.depth
                else ReplyStatus.OK_CORRECTED_DEPTH
            )
            return (
                AcceptObjectReply(
                    status=status, server=f"owner-of-{true_group.wildcard()}",
                    correct_depth=true_group.depth,
                ),
                2,
            )
        # The probed server manages some other group; its longest prefix match
        # with the key is bounded by that group's depth.
        owner_group = None
        for group in self.groups:
            if group.virtual_key == probe_group.virtual_key:
                owner_group = group
                break
        if owner_group is None:
            owner_group = probe_group
        match = min(
            key.common_prefix_length(owner_group.virtual_key), owner_group.depth
        )
        return (
            AcceptObjectReply(
                status=ReplyStatus.INCORRECT_DEPTH,
                server=f"owner-of-{owner_group.wildcard()}",
                longest_prefix_match=match,
            ),
            2,
        )


def balanced_tree(depth: int) -> list[KeyGroup]:
    """All 2**depth groups of a uniform-depth tree."""
    return [KeyGroup(prefix=prefix, depth=depth, width=WIDTH) for prefix in range(1 << depth)]


def skewed_tree() -> list[KeyGroup]:
    """A deliberately unbalanced tree: one branch split to depth 9."""
    groups: list[KeyGroup] = []
    current = KeyGroup(prefix=0, depth=1, width=WIDTH)  # "0*"
    groups.append(KeyGroup(prefix=1, depth=1, width=WIDTH))  # "1*"
    for _ in range(8):
        left, right = current.split()
        groups.append(right)
        current = left
    groups.append(current)
    return groups


class TestDepthSearch:
    def test_finds_group_in_balanced_tree(self):
        router = TreeRouter(balanced_tree(4))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=6)
        key = IdentifierKey(value=0b101010101010, width=WIDTH)
        result = client.find_group(key)
        assert result.group.depth == 4
        assert result.group.contains_key(key)
        assert result.probes >= 1
        assert result.probes <= WIDTH + 1

    def test_first_probe_succeeds_with_exact_hint(self):
        router = TreeRouter(balanced_tree(5))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=5)
        result = client.find_group(IdentifierKey(value=123, width=WIDTH))
        assert result.probes == 1
        assert result.messages == 2

    def test_finds_groups_in_skewed_tree(self):
        groups = skewed_tree()
        router = TreeRouter(groups)
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=3)
        for value in range(0, 1 << WIDTH, 257):
            key = IdentifierKey(value=value, width=WIDTH)
            result = client.find_group(key, use_cache=False)
            expected = next(group for group in groups if group.contains_key(key))
            assert result.group == expected

    def test_convergence_bounded_by_key_bits_plus_one(self):
        router = TreeRouter(skewed_tree())
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=1)
        for value in range(0, 1 << WIDTH, 101):
            result = client.find_group(IdentifierKey(value=value, width=WIDTH), use_cache=False)
            assert result.probes <= WIDTH + 1

    def test_average_probe_count_beats_exhaustive_scan(self):
        """The paper claims convergence faster than log N on average."""
        router = TreeRouter(balanced_tree(6))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=6)
        total = 0
        samples = 100
        for value in range(samples):
            result = client.find_group(
                IdentifierKey(value=value * 37 % (1 << WIDTH), width=WIDTH), use_cache=False
            )
            total += result.probes
        assert total / samples < WIDTH / 2

    def test_probe_depths_are_recorded(self):
        router = TreeRouter(balanced_tree(4))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=9)
        result = client.find_group(IdentifierKey(value=999, width=WIDTH))
        assert len(result.probe_depths) == result.probes
        assert result.probe_depths[0] == 9


def next_untried_by_the_list_rule(estimate: int, low: int, high: int, tried: set[int]) -> int:
    """The rule ``ClashClient._next_untried`` short-cuts: build every
    candidate, take the closest to ``estimate``, the shallower on a tie."""
    candidates = [d for d in range(low, high + 1) if d not in tried]
    if not candidates:
        candidates = [d for d in range(0, max(high, low) + 1) if d not in tried]
    if not candidates:
        raise RuntimeError("no untried depths remain")
    return min(candidates, key=lambda d: (abs(d - estimate), d))


class TestNextUntried:
    def test_agrees_with_the_list_rule_on_every_small_input(self):
        depths = range(5)  # a 4-bit key space: depths 0..4
        for mask in range(1 << len(depths)):
            tried = {d for d in depths if mask >> d & 1}
            for estimate in depths:
                for low in depths:
                    for high in depths:
                        arguments = (estimate, low, high, tried)
                        try:
                            expected = next_untried_by_the_list_rule(*arguments)
                        except RuntimeError:
                            with pytest.raises(RuntimeError):
                                ClashClient._next_untried(*arguments)
                        else:
                            assert ClashClient._next_untried(*arguments) == expected, arguments


class TestCaching:
    def test_cache_hit_costs_nothing(self):
        router = TreeRouter(balanced_tree(4))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=4)
        key = IdentifierKey(value=77, width=WIDTH)
        first = client.find_group(key)
        probes_before = router.probes
        second = client.find_group(key)
        assert router.probes == probes_before
        assert second.probes == 0
        assert second.messages == 0
        assert second.group == first.group
        assert client.cache_hits == 1

    def test_cache_covers_sibling_keys_in_same_group(self):
        router = TreeRouter(balanced_tree(4))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=4)
        client.find_group(IdentifierKey(value=0b000000000000, width=WIDTH))
        result = client.find_group(IdentifierKey(value=0b000011111111, width=WIDTH))
        assert result.probes == 0

    def test_handle_redirect_invalidates_and_researches(self):
        router = TreeRouter(balanced_tree(4))
        client = ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=4)
        key = IdentifierKey(value=0b010101010101, width=WIDTH)
        first = client.find_group(key)
        # The group splits: replace the router with a deeper tree.
        new_groups = [group for group in balanced_tree(4) if not group.contains_key(key)]
        deeper = KeyGroup.from_key(key, 4)
        new_groups.extend(deeper.split())
        client._router = TreeRouter(new_groups)  # simulate redirection after a split
        result = client.handle_redirect(key)
        assert result.group.depth == 5
        assert result.group != first.group
        assert client.cached_server_for(key)[0] == result.group

    def test_invalidate_all(self):
        router = TreeRouter(balanced_tree(3))
        client = ClashClient(name="c", router=router, key_bits=WIDTH)
        client.find_group(IdentifierKey(value=1, width=WIDTH))
        assert client.cache
        client.invalidate_all()
        assert not client.cache


class TestValidation:
    def test_bad_constructor_arguments(self):
        router = TreeRouter(balanced_tree(2))
        with pytest.raises(ValueError):
            ClashClient(name="", router=router, key_bits=WIDTH)
        with pytest.raises(ValueError):
            ClashClient(name="c", router=router, key_bits=0)
        with pytest.raises(ValueError):
            ClashClient(name="c", router=router, key_bits=WIDTH, initial_depth_hint=13)

    def test_key_width_mismatch_rejected(self):
        client = ClashClient(name="c", router=TreeRouter(balanced_tree(2)), key_bits=WIDTH)
        with pytest.raises(ValueError):
            client.find_group(IdentifierKey(value=1, width=WIDTH + 1))
