"""The CLASH client: depth discovery and server caching.

A client wishing to insert or look up an object must first discover the
*current* depth of the key group its identifier key belongs to (Section 5).
It does so with a modified binary search over the depth range ``[0, N]``:

* probe an estimated depth ``d`` by sending ``ACCEPT_OBJECT`` for the virtual
  key of depth ``d`` (routed through the DHT);
* an ``OK`` (possibly with a corrected depth) ends the search;
* an ``INCORRECT_DEPTH(d_min)`` reply narrows the range using the paper's two
  rules: if ``d_min > d`` the true depth is at least ``d_min + 1`` (no new
  upper bound); if ``d_min < d`` the true depth lies in
  ``[d_min + 1, d - 1]``.

The paper's rules are heuristics — they are correct in the common case but the
information in a single ``INCORRECT_DEPTH`` reply does not always bound the
true depth (see EXPERIMENTS.md, E7).  The implementation therefore tracks the
set of depths already probed and, whenever the heuristic window empties or
repeats itself, falls back to probing the nearest untried depth.  Probing the
true depth always succeeds (the virtual key of the true group routes to the
server that manages it), so the search is guaranteed to converge within
``N + 1`` probes while remaining much faster on average — matching the paper's
"faster than log N in practice" claim.

Clients also cache the (group → server) binding they discover so that
subsequent packets of the same virtual stream are sent directly to the
managing server without any DHT traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.core.messages import AcceptObjectReply, ReplyStatus
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup
from repro.net.transport import DeliveryFailed

__all__ = ["ClashClient", "DepthSearchResult", "ObjectRouter"]


class ObjectRouter(Protocol):
    """The transport a client uses to probe servers.

    Implemented by :class:`~repro.core.protocol.ClashSystem`; the indirection
    keeps the client testable with a scripted router.
    """

    def route_accept_object(
        self, key: IdentifierKey, estimated_depth: int, sender: str
    ) -> tuple[AcceptObjectReply, int]:
        """Route an ``ACCEPT_OBJECT`` probe; returns (reply, messages charged)."""
        ...


@dataclass(frozen=True)
class DepthSearchResult:
    """Outcome of one depth-discovery search.

    Attributes:
        key: The identifier key that was resolved.
        group: The active key group the key currently belongs to.
        server: Name of the server managing that group.
        probes: Number of ``ACCEPT_OBJECT`` probes issued.
        messages: Total messages charged for the search (probes, replies and —
            depending on configuration — DHT routing hops).
        probe_depths: The sequence of depths probed, in order.
    """

    key: IdentifierKey
    group: KeyGroup
    server: str
    probes: int
    messages: int
    probe_depths: tuple[int, ...] = field(default_factory=tuple)


class ClashClient:
    """A client node that inserts objects into, and queries, a CLASH system.

    Args:
        name: Client name (used as the message sender).
        router: Transport used to deliver ``ACCEPT_OBJECT`` probes.
        key_bits: Identifier key width N.
        initial_depth_hint: Depth used as the first guess when nothing better
            is known; the paper's clients "estimate (e.g. pick at random)" —
            a stable hint equal to the system's initial depth converges faster
            and is what the reference simulation uses.
    """

    def __init__(
        self,
        name: str,
        router: ObjectRouter,
        key_bits: int,
        initial_depth_hint: int | None = None,
    ) -> None:
        if not name:
            raise ValueError("client name must be non-empty")
        if key_bits <= 0:
            raise ValueError(f"key_bits must be positive, got {key_bits}")
        if initial_depth_hint is not None and not 0 <= initial_depth_hint <= key_bits:
            raise ValueError(
                f"initial_depth_hint must be in [0, {key_bits}], got {initial_depth_hint}"
            )
        self._name = name
        self._router = router
        self._key_bits = key_bits
        self._initial_depth_hint = (
            initial_depth_hint if initial_depth_hint is not None else key_bits // 4
        )
        self._cache: dict[KeyGroup, str] = {}
        self.lookups_performed = 0
        self.cache_hits = 0

    @property
    def name(self) -> str:
        """The client's name."""
        return self._name

    @property
    def cache(self) -> dict[KeyGroup, str]:
        """The client's (key group → server) cache (read-only view by convention)."""
        return self._cache

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #

    def cached_server_for(self, key: IdentifierKey) -> tuple[KeyGroup, str] | None:
        """Return the cached (group, server) binding covering ``key``, if any."""
        for group, server in self._cache.items():
            if group.contains_key(key):
                return group, server
        return None

    def invalidate(self, group: KeyGroup) -> None:
        """Drop a cached binding (e.g. after being redirected by a split)."""
        self._cache.pop(group, None)

    def invalidate_all(self) -> None:
        """Drop every cached binding."""
        self._cache.clear()

    # ------------------------------------------------------------------ #
    # Depth discovery
    # ------------------------------------------------------------------ #

    def find_group(
        self, key: IdentifierKey, use_cache: bool = True
    ) -> DepthSearchResult:
        """Resolve the active key group (and server) for ``key``.

        Uses the cache when permitted and falls back to the modified binary
        search otherwise.  A cached resolution costs zero messages.
        """
        if key.width != self._key_bits:
            raise ValueError(
                f"key width {key.width} does not match client key_bits {self._key_bits}"
            )
        if use_cache:
            cached = self.cached_server_for(key)
            if cached is not None:
                group, server = cached
                self.cache_hits += 1
                return DepthSearchResult(
                    key=key,
                    group=group,
                    server=server,
                    probes=0,
                    messages=0,
                    probe_depths=(),
                )
        result = self._search_depth(key)
        self._cache[result.group] = result.server
        self.lookups_performed += 1
        return result

    def _search_depth(self, key: IdentifierKey) -> DepthSearchResult:
        """The modified binary search of Section 5."""
        low, high = 0, self._key_bits
        tried: set[int] = set()
        probe_depths: list[int] = []
        total_messages = 0
        failed_probes = 0
        estimate = min(max(self._initial_depth_hint, low), high)
        while True:
            estimate = self._next_untried(estimate, low, high, tried)
            tried.add(estimate)
            probe_depths.append(estimate)
            try:
                reply, cost = self._router.route_accept_object(key, estimate, self._name)
            except DeliveryFailed:
                # The probed server failed with the request in flight.  The
                # DHT re-stabilises before control returns, so the same depth
                # re-probes against a live owner; the bound keeps a cascading
                # failure from retrying forever.
                failed_probes += 1
                if failed_probes > self._key_bits:
                    raise
                total_messages += 1  # the lost probe still crossed the wire
                tried.discard(estimate)
                continue
            total_messages += cost
            if reply.status in (ReplyStatus.OK, ReplyStatus.OK_CORRECTED_DEPTH):
                depth = reply.correct_depth
                assert depth is not None
                group = KeyGroup.from_key(key, depth)
                return DepthSearchResult(
                    key=key,
                    group=group,
                    server=reply.server,
                    probes=len(probe_depths),
                    messages=total_messages,
                    probe_depths=tuple(probe_depths),
                )
            d_min = reply.longest_prefix_match
            assert d_min is not None
            if d_min > estimate:
                # Paper rule 1: the true depth is beyond d_min; no upper bound.
                low = max(low, d_min + 1)
            elif d_min < estimate:
                # Paper rule 2: the true depth lies in [d_min + 1, estimate - 1].
                low = max(low, d_min + 1)
                high = min(high, estimate - 1)
            else:
                # d_min == estimate: the guess itself is wrong, look deeper first.
                low = max(low, estimate + 1)
            if low > high or tried.issuperset(range(low, high + 1)):
                # The heuristic window is exhausted (its rules are not always
                # sound); widen back to every depth not yet probed.
                low, high = 0, self._key_bits
            if len(tried) > self._key_bits:
                raise RuntimeError(
                    f"depth search for key {key} did not converge after probing "
                    f"every depth; the system's group state is inconsistent"
                )
            estimate = (low + high) // 2

    @staticmethod
    def _next_untried(estimate: int, low: int, high: int, tried: set[int]) -> int:
        """The untried depth closest to ``estimate`` within ``[low, high]``.

        Falls back to any untried depth when the window is fully explored.
        """
        if low <= estimate <= high and estimate not in tried:
            return estimate  # distance 0: what the rule below would pick
        candidates = [d for d in range(low, high + 1) if d not in tried]
        if not candidates:
            candidates = [d for d in range(0, max(high, low) + 1) if d not in tried]
        if not candidates:
            raise RuntimeError("no untried depths remain")
        return min(candidates, key=lambda d: (abs(d - estimate), d))

    # ------------------------------------------------------------------ #
    # Object operations
    # ------------------------------------------------------------------ #

    def insert_object(self, key: IdentifierKey) -> DepthSearchResult:
        """Insert an object: resolve its group, then deliver it to the server.

        Returns the resolution result; the caller is responsible for any
        application-level handling of the stored object.
        """
        return self.find_group(key)

    def handle_redirect(self, key: IdentifierKey) -> DepthSearchResult:
        """Re-resolve a key after a split or merge redirected this client."""
        cached = self.cached_server_for(key)
        if cached is not None:
            self.invalidate(cached[0])
        return self.find_group(key, use_cache=False)
