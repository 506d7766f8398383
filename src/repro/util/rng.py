"""Deterministic random-number streams for reproducible simulations.

Every stochastic component of the simulator (workload generation, key churn,
query lifetimes, DHT node identifiers) draws from its own named stream derived
from a single master seed.  This keeps experiments reproducible while ensuring
that changing the number of draws in one component does not perturb another —
a standard practice for discrete-event simulation studies.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from typing import Iterable, Sequence

__all__ = ["RandomStream", "SeedSequenceFactory"]


class RandomStream:
    """A seeded random stream with the distributions the simulator needs.

    Thin wrapper over :class:`random.Random` adding the handful of
    distributions used by the workload model (exponential with mean,
    discrete pmf sampling, bounded integers) plus convenience helpers.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float uniformly distributed in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """An integer uniformly distributed in ``[low, high]`` (inclusive)."""
        if low > high:
            raise ValueError(f"low ({low}) must be <= high ({high})")
        return self._rng.randint(low, high)

    def randbits(self, width: int) -> int:
        """A ``width``-bit random integer (``width`` may be 0)."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if width == 0:
            return 0
        return self._rng.getrandbits(width)

    def exponential(self, mean: float) -> float:
        """An exponentially-distributed float with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def poisson(self, mean: float) -> int:
        """A Poisson-distributed integer with the given mean.

        Uses Knuth's algorithm for small means and a normal approximation for
        large means; the simulator only needs modest accuracy here (it is used
        for per-period event counts).
        """
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if mean == 0:
            return 0
        if mean > 50:
            value = int(round(self._rng.gauss(mean, math.sqrt(mean))))
            return max(0, value)
        threshold = math.exp(-mean)
        count = 0
        product = self._rng.random()
        while product > threshold:
            count += 1
            product *= self._rng.random()
        return count

    def choice(self, items: Sequence):
        """A uniformly random element of a non-empty sequence."""
        if len(items) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    @staticmethod
    def running_sums(weights: Sequence[float]) -> list[float]:
        """The left-to-right partial sums of an (unnormalised) weight vector.

        Validates the weights once, so a caller drawing repeatedly from one
        vector builds the sums once and hands them to :meth:`sample_sums`.
        """
        sums: list[float] = []
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError(f"weights must be non-negative, got {weight}")
            total += weight
            sums.append(total)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        return sums

    def sample_sums(self, sums: Sequence[float]) -> int:
        """Sample an index given the :meth:`running_sums` of its weights."""
        return min(bisect_right(sums, self._rng.random() * sums[-1]), len(sums) - 1)

    def sample_pmf(self, weights: Sequence[float]) -> int:
        """Sample an index from an (unnormalised) discrete weight vector."""
        return self.sample_sums(self.running_sums(weights))

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)

    def spawn(self, name: str) -> "RandomStream":
        """Derive an independent child stream labelled ``name``."""
        return SeedSequenceFactory(self._seed).stream(name)


class SeedSequenceFactory:
    """Derive independent, named :class:`RandomStream` objects from one master seed.

    Stream seeds are derived by hashing ``(master_seed, name)`` with SHA-256,
    so the mapping is stable across Python versions and process invocations.
    """

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, int) or isinstance(master_seed, bool):
            raise TypeError(
                f"master_seed must be an int, got {type(master_seed).__name__}"
            )
        self._master_seed = master_seed

    @property
    def master_seed(self) -> int:
        """The master seed all derived streams are based on."""
        return self._master_seed

    def seed_for(self, name: str) -> int:
        """The derived 63-bit seed for the stream called ``name``."""
        if not isinstance(name, str) or not name:
            raise ValueError("stream name must be a non-empty string")
        payload = f"{self._master_seed}:{name}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)

    def stream(self, name: str) -> RandomStream:
        """Create the named stream."""
        return RandomStream(self.seed_for(name))

    def streams(self, names: Iterable[str]) -> dict[str, RandomStream]:
        """Create several named streams at once."""
        return {name: self.stream(name) for name in names}
