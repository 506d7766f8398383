"""N-bit identifier keys (the paper's ``KeyGen()`` output).

An identifier key is a fixed-width bit string produced by an application
specific ``KeyGen()`` function; CLASH never interprets the key beyond treating
its bit prefix as a hierarchy.  :class:`IdentifierKey` is an immutable value
object; :class:`RandomKeyGenerator` produces keys with a configurable split
between "base" bits (drawn from a possibly skewed distribution) and uniformly
random remainder bits — exactly the structure used in the paper's simulations
(Section 6.1: N = 24 with an X = 8 bit skewed base portion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.bitops import common_prefix_length, extract_prefix, int_to_bits
from repro.util.rng import RandomStream
from repro.util.validation import check_positive, check_type

__all__ = ["IdentifierKey", "RandomKeyGenerator"]


@dataclass(frozen=True, order=True)
class IdentifierKey:
    """An immutable ``width``-bit identifier key.

    Attributes:
        value: The integer value of the key, in ``[0, 2**width)``.
        width: The number of bits (``N`` in the paper).
    """

    value: int
    width: int

    def __post_init__(self) -> None:
        check_type("value", self.value, int)
        check_type("width", self.width, int)
        check_positive("width", self.width)
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"key value {self.value} does not fit in {self.width} bits"
            )

    @classmethod
    def from_bits(cls, bits: str) -> "IdentifierKey":
        """Construct a key from an MSB-first binary string, e.g. ``'0110101'``."""
        if not bits:
            raise ValueError("bits must be a non-empty binary string")
        if any(ch not in "01" for ch in bits):
            raise ValueError(f"bits must contain only '0'/'1', got {bits!r}")
        return cls(value=int(bits, 2), width=len(bits))

    def bits(self) -> str:
        """The MSB-first binary representation of the key."""
        return int_to_bits(self.value, self.width)

    def prefix(self, depth: int) -> int:
        """The integer value of the first ``depth`` bits."""
        return extract_prefix(self.value, self.width, depth)

    def common_prefix_length(self, other: "IdentifierKey") -> int:
        """Length of the common prefix with another key of the same width."""
        if other.width != self.width:
            raise ValueError(
                f"cannot compare keys of different widths ({self.width} vs {other.width})"
            )
        return common_prefix_length(self.value, other.value, self.width)

    def with_base(self, base_value: int, base_bits: int) -> "IdentifierKey":
        """Return a copy with the first ``base_bits`` bits replaced by ``base_value``."""
        if not 0 <= base_bits <= self.width:
            raise ValueError(f"base_bits must be in [0, {self.width}], got {base_bits}")
        if not 0 <= base_value < (1 << base_bits):
            raise ValueError(
                f"base_value {base_value} does not fit in {base_bits} bits"
            )
        remainder_bits = self.width - base_bits
        remainder = self.value & ((1 << remainder_bits) - 1)
        return IdentifierKey(
            value=(base_value << remainder_bits) | remainder, width=self.width
        )

    def __str__(self) -> str:
        return self.bits()


class RandomKeyGenerator:
    """Generate identifier keys with a skewed base portion and uniform remainder.

    This is the paper's simulation key model: the first ``base_bits`` bits are
    drawn from a (possibly skewed) distribution over ``2**base_bits`` values,
    and the remaining ``width - base_bits`` bits are uniformly random.

    Args:
        width: Total key width N (the paper uses 24).
        base_bits: Number of skewed base bits X (the paper uses 8).
        base_weights: Unnormalised weights over the ``2**base_bits`` base
            values.  ``None`` means uniform.
        rng: Random stream to draw from.
    """

    def __init__(
        self,
        width: int,
        base_bits: int,
        rng: RandomStream,
        base_weights: Sequence[float] | None = None,
    ) -> None:
        check_type("width", width, int)
        check_type("base_bits", base_bits, int)
        check_positive("width", width)
        if not 0 <= base_bits <= width:
            raise ValueError(f"base_bits must be in [0, {width}], got {base_bits}")
        self._width = width
        self._base_bits = base_bits
        self._rng = rng
        self.set_base_weights(base_weights)

    @property
    def width(self) -> int:
        """Total key width in bits."""
        return self._width

    @property
    def base_bits(self) -> int:
        """Number of bits drawn from the base distribution."""
        return self._base_bits

    def set_base_weights(self, base_weights: Sequence[float] | None) -> None:
        """Replace the base-value distribution (used when the workload phase changes)."""
        if base_weights is not None and len(base_weights) != (1 << self._base_bits):
            raise ValueError(
                f"base_weights must have {1 << self._base_bits} entries, "
                f"got {len(base_weights)}"
            )
        self._base_sums = (
            RandomStream.running_sums(base_weights) if base_weights is not None else None
        )

    def generate(self) -> IdentifierKey:
        """Draw one identifier key."""
        if self._base_bits == 0:
            base_value = 0
        elif self._base_sums is None:
            base_value = self._rng.randbits(self._base_bits)
        else:
            base_value = self._rng.sample_sums(self._base_sums)
        remainder_bits = self._width - self._base_bits
        remainder = self._rng.randbits(remainder_bits)
        value = (base_value << remainder_bits) | remainder
        return IdentifierKey(value=value, width=self._width)

    def generate_many(self, count: int) -> list[IdentifierKey]:
        """Draw ``count`` identifier keys."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.generate() for _ in range(count)]
