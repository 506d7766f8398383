"""Unit tests for repro.keys.hashing."""

from __future__ import annotations

import hashlib

import pytest

from repro.keys.hashing import Sha1HashFunction, truncate_hash
from repro.keys.identifier import IdentifierKey


class TestTruncateHash:
    def test_exact_byte_boundary(self):
        assert truncate_hash(bytes([0xAB, 0xCD]), 8) == 0xAB

    def test_sub_byte_truncation(self):
        assert truncate_hash(bytes([0b10110000]), 4) == 0b1011

    def test_requires_enough_bytes(self):
        with pytest.raises(ValueError):
            truncate_hash(bytes([0x01]), 16)

    def test_requires_positive_bits(self):
        with pytest.raises(ValueError):
            truncate_hash(bytes([0x01]), 0)


class TestSha1HashFunction:
    def test_deterministic(self):
        function = Sha1HashFunction(hash_bits=24)
        key = IdentifierKey(value=12345, width=24)
        assert function.hash_key(key) == function.hash_key(key)

    def test_output_within_hash_space(self):
        function = Sha1HashFunction(hash_bits=24)
        for value in range(0, 1 << 16, 997):
            hashed = function.hash_value(value, 24)
            assert 0 <= hashed < (1 << 24)

    def test_different_salts_give_different_functions(self):
        key = IdentifierKey(value=99, width=24)
        a = Sha1HashFunction(hash_bits=24, salt=0)
        b = Sha1HashFunction(hash_bits=24, salt=1)
        assert a.hash_key(key) != b.hash_key(key)

    def test_width_is_part_of_the_input(self):
        # The same numeric value at different key widths is a different key.
        function = Sha1HashFunction(hash_bits=24)
        assert function.hash_value(5, 8) != function.hash_value(5, 24)

    def test_hash_string(self):
        function = Sha1HashFunction(hash_bits=16)
        assert 0 <= function.hash_string("s25") < (1 << 16)
        assert function.hash_string("s25") != function.hash_string("s26")

    def test_mixing_over_consecutive_values(self):
        """Consecutive identifier keys should land far apart (no locality)."""
        function = Sha1HashFunction(hash_bits=24)
        outputs = [function.hash_value(value, 24) for value in range(64)]
        assert len(set(outputs)) == 64

    def test_invalid_hash_bits(self):
        with pytest.raises(ValueError):
            Sha1HashFunction(hash_bits=0)
        with pytest.raises(ValueError):
            Sha1HashFunction(hash_bits=161)  # wider than a SHA-1 digest

    @pytest.mark.parametrize("bits", [1, 7, 8, 13, 24, 160])
    def test_hash_value_is_the_truncated_digest(self, bits):
        function = Sha1HashFunction(hash_bits=bits, salt=2)
        for value in range(0, 5000, 211):
            digest = hashlib.sha1(f"2:24:{value}".encode("utf-8")).digest()
            assert function.hash_value(value, 24) == truncate_hash(digest, bits)

    def test_properties(self):
        function = Sha1HashFunction(hash_bits=24, salt=3)
        assert function.hash_bits == 24
        assert function.salt == 3
