"""Identifier-key to hash-key functions (the paper's ``f()``).

A DHT stores an object at the server owning ``Map(f(k'))`` where ``k'`` is the
(virtual) identifier key and ``f`` maps the N-bit identifier space into the
M-bit hash space.  CLASH requires nothing of ``f`` beyond determinism and good
mixing; we use SHA-1 (the hash Chord itself uses) truncated to M bits.
"""

from __future__ import annotations

import hashlib

from repro.keys.identifier import IdentifierKey
from repro.util.validation import check_positive, check_type

__all__ = ["Sha1HashFunction", "truncate_hash"]

_SHA1_BITS = 160


def truncate_hash(digest: bytes, bits: int) -> int:
    """Interpret the first bytes of a digest as an unsigned ``bits``-bit integer."""
    check_type("bits", bits, int)
    check_positive("bits", bits)
    needed_bytes = (bits + 7) // 8
    if len(digest) < needed_bytes:
        raise ValueError(
            f"digest of {len(digest)} bytes is too short for {bits} bits"
        )
    value = int.from_bytes(digest[:needed_bytes], "big")
    excess = needed_bytes * 8 - bits
    return value >> excess


class Sha1HashFunction:
    """SHA-1 based hash from identifier keys to an M-bit hash space.

    Args:
        hash_bits: Width M of the hash space (the paper's simulations use 24).
        salt: Optional salt mixed into the hash; different salts yield
            effectively independent functions.
    """

    def __init__(self, hash_bits: int, salt: int = 0) -> None:
        check_type("hash_bits", hash_bits, int)
        check_positive("hash_bits", hash_bits)
        check_type("salt", salt, int)
        if hash_bits > _SHA1_BITS:
            raise ValueError(f"hash_bits must be at most {_SHA1_BITS}, got {hash_bits}")
        self._hash_bits = hash_bits
        self._salt = salt
        # truncate_hash's byte count and shift, fixed once per function.
        self._digest_bytes = (hash_bits + 7) // 8
        self._digest_shift = self._digest_bytes * 8 - hash_bits

    @property
    def hash_bits(self) -> int:
        """Width of the hash space in bits."""
        return self._hash_bits

    @property
    def salt(self) -> int:
        """Salt value distinguishing this function within a family."""
        return self._salt

    def hash_key(self, key: IdentifierKey) -> int:
        """Hash an identifier key into the M-bit hash space."""
        return self.hash_value(key.value, key.width)

    def hash_value(self, value: int, width: int) -> int:
        """Hash a raw ``width``-bit integer into the M-bit hash space."""
        payload = f"{self._salt}:{width}:{value}".encode("utf-8")
        digest = hashlib.sha1(payload).digest()
        return int.from_bytes(digest[: self._digest_bytes], "big") >> self._digest_shift

    def hash_string(self, text: str) -> int:
        """Hash an arbitrary string (used for server node identifiers)."""
        payload = f"{self._salt}:str:{text}".encode("utf-8")
        digest = hashlib.sha1(payload).digest()
        return truncate_hash(digest, self._hash_bits)
