"""Unit tests for repro.keys.identifier."""

from __future__ import annotations

import random

import pytest

from repro.keys.identifier import IdentifierKey, RandomKeyGenerator
from repro.util.rng import RandomStream
from repro.workload.distributions import workload_a, workload_b, workload_c


def linear_scan_pmf(rng: random.Random, weights) -> int:
    """``RandomStream.sample_pmf`` as first written: re-sum and scan on every draw."""
    total = 0.0
    for weight in weights:
        total += weight
    target = rng.random() * total
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if target < cumulative:
            return index
    return len(weights) - 1


class TestIdentifierKey:
    def test_construction_and_bits(self):
        key = IdentifierKey(value=0b0110101, width=7)
        assert key.bits() == "0110101"
        assert str(key) == "0110101"

    def test_from_bits_round_trip(self):
        key = IdentifierKey.from_bits("0110101")
        assert key.value == 0b0110101
        assert key.width == 7

    def test_from_bits_rejects_invalid(self):
        with pytest.raises(ValueError):
            IdentifierKey.from_bits("01x0")
        with pytest.raises(ValueError):
            IdentifierKey.from_bits("")

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IdentifierKey(value=128, width=7)
        with pytest.raises(ValueError):
            IdentifierKey(value=-1, width=7)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            IdentifierKey(value=0, width=0)

    def test_prefix(self):
        key = IdentifierKey.from_bits("0110101")
        assert key.prefix(4) == 0b0110
        assert key.prefix(0) == 0
        assert key.prefix(7) == key.value

    def test_common_prefix_length(self):
        a = IdentifierKey.from_bits("0110101")
        b = IdentifierKey.from_bits("0110111")
        assert a.common_prefix_length(b) == 5

    def test_common_prefix_length_requires_same_width(self):
        a = IdentifierKey.from_bits("0110101")
        b = IdentifierKey.from_bits("0110")
        with pytest.raises(ValueError):
            a.common_prefix_length(b)

    def test_with_base_replaces_leading_bits(self):
        key = IdentifierKey.from_bits("0000111")
        replaced = key.with_base(0b101, 3)
        assert replaced.bits() == "1010111"

    def test_with_base_validation(self):
        key = IdentifierKey.from_bits("0000111")
        with pytest.raises(ValueError):
            key.with_base(8, 3)
        with pytest.raises(ValueError):
            key.with_base(0, 8)

    def test_ordering_and_hashability(self):
        a = IdentifierKey(value=3, width=8)
        b = IdentifierKey(value=5, width=8)
        assert a < b
        assert len({a, b, IdentifierKey(value=3, width=8)}) == 2


class TestRandomKeyGenerator:
    def test_uniform_generation_fits_width(self):
        rng = RandomStream(1)
        generator = RandomKeyGenerator(width=24, base_bits=8, rng=rng)
        for _ in range(100):
            key = generator.generate()
            assert key.width == 24
            assert 0 <= key.value < (1 << 24)

    def test_skewed_base_respected(self):
        rng = RandomStream(2)
        weights = [0.0] * 256
        weights[17] = 1.0
        generator = RandomKeyGenerator(width=24, base_bits=8, rng=rng, base_weights=weights)
        for key in generator.generate_many(50):
            assert key.prefix(8) == 17

    def test_generate_many_count(self):
        rng = RandomStream(3)
        generator = RandomKeyGenerator(width=12, base_bits=4, rng=rng)
        assert len(generator.generate_many(7)) == 7
        assert generator.generate_many(0) == []
        with pytest.raises(ValueError):
            generator.generate_many(-1)

    def test_set_base_weights_switches_skew(self):
        rng = RandomStream(4)
        generator = RandomKeyGenerator(width=12, base_bits=4, rng=rng)
        weights = [0.0] * 16
        weights[3] = 1.0
        generator.set_base_weights(weights)
        assert all(key.prefix(4) == 3 for key in generator.generate_many(20))
        generator.set_base_weights(None)
        prefixes = {key.prefix(4) for key in generator.generate_many(200)}
        assert len(prefixes) > 1

    @pytest.mark.parametrize(
        "weights",
        [
            workload_a().weights,
            workload_b().weights,
            workload_c().weights,
            [0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 2.5, 0.0] * 32,  # zero entries, first one included
            [0.25] * 16 + [0.0] * 240,  # a zero tail
            [0.0] * 255 + [1e-12],  # everything on the last index
        ],
        ids=["A", "B", "C", "zero-entries", "zero-tail", "last-only"],
    )
    def test_bisection_draws_equal_the_linear_scan(self, weights):
        """Twin streams, 10 000 keys: the running-sum bisection picks the base
        value the per-draw linear scan picked, so no seeded number moves."""
        generator = RandomKeyGenerator(
            width=24, base_bits=8, rng=RandomStream(77), base_weights=weights
        )
        twin = random.Random(77)
        for _ in range(10_000):
            expected = linear_scan_pmf(twin, weights)
            remainder = twin.getrandbits(16)
            assert generator.generate().value == (expected << 16) | remainder

    def test_weights_are_validated_when_set(self):
        rng = RandomStream(5)
        with pytest.raises(ValueError):
            RandomKeyGenerator(width=12, base_bits=1, rng=rng, base_weights=[1.0, -1.0])
        generator = RandomKeyGenerator(width=12, base_bits=1, rng=rng)
        with pytest.raises(ValueError):
            generator.set_base_weights([0.0, 0.0])

    def test_weight_length_validation(self):
        rng = RandomStream(5)
        with pytest.raises(ValueError):
            RandomKeyGenerator(width=12, base_bits=4, rng=rng, base_weights=[1.0] * 15)
        generator = RandomKeyGenerator(width=12, base_bits=4, rng=rng)
        with pytest.raises(ValueError):
            generator.set_base_weights([1.0] * 3)

    def test_base_bits_bounds(self):
        rng = RandomStream(6)
        with pytest.raises(ValueError):
            RandomKeyGenerator(width=8, base_bits=9, rng=rng)
        generator = RandomKeyGenerator(width=8, base_bits=0, rng=rng)
        assert generator.generate().width == 8

    def test_zero_base_bits_is_fully_uniform(self):
        rng = RandomStream(7)
        generator = RandomKeyGenerator(width=10, base_bits=0, rng=rng)
        values = {generator.generate().value for _ in range(200)}
        assert len(values) > 50

    def test_properties(self):
        rng = RandomStream(8)
        generator = RandomKeyGenerator(width=24, base_bits=8, rng=rng)
        assert generator.width == 24
        assert generator.base_bits == 8
