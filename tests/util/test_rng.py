"""Unit tests for repro.util.rng."""

from __future__ import annotations

import pytest

from repro.util.rng import RandomStream, SeedSequenceFactory


class TestRandomStream:
    def test_determinism(self):
        a = RandomStream(7)
        b = RandomStream(7)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = RandomStream(7)
        b = RandomStream(8)
        assert [a.randbits(16) for _ in range(10)] != [b.randbits(16) for _ in range(10)]

    def test_seed_property(self):
        assert RandomStream(42).seed == 42

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStream("seed")

    def test_uniform_bounds(self):
        stream = RandomStream(1)
        for _ in range(100):
            value = stream.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_randint_bounds(self):
        stream = RandomStream(1)
        values = [stream.randint(3, 5) for _ in range(200)]
        assert set(values) == {3, 4, 5}

    def test_randint_invalid_range(self):
        with pytest.raises(ValueError):
            RandomStream(1).randint(5, 3)

    def test_randbits_width_zero(self):
        assert RandomStream(1).randbits(0) == 0

    def test_randbits_within_width(self):
        stream = RandomStream(1)
        for _ in range(100):
            assert 0 <= stream.randbits(8) < 256

    def test_randbits_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).randbits(-1)

    def test_exponential_mean(self):
        stream = RandomStream(2)
        samples = [stream.exponential(100.0) for _ in range(5000)]
        assert 90 < sum(samples) / len(samples) < 110

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomStream(1).exponential(0.0)

    def test_poisson_mean_small(self):
        stream = RandomStream(3)
        samples = [stream.poisson(3.0) for _ in range(5000)]
        assert 2.8 < sum(samples) / len(samples) < 3.2

    def test_poisson_mean_large_uses_normal_approximation(self):
        stream = RandomStream(3)
        samples = [stream.poisson(200.0) for _ in range(2000)]
        assert 195 < sum(samples) / len(samples) < 205

    def test_poisson_zero(self):
        assert RandomStream(1).poisson(0.0) == 0

    def test_poisson_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).poisson(-1.0)

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).choice([])

    def test_sample_pmf_respects_weights(self):
        stream = RandomStream(4)
        counts = [0, 0, 0]
        for _ in range(3000):
            counts[stream.sample_pmf([1.0, 0.0, 3.0])] += 1
        assert counts[1] == 0
        assert counts[2] > counts[0]

    def test_sample_pmf_is_one_draw_from_its_running_sums(self):
        weights = [1.0, 0.0, 3.0, 0.5, 0.0]
        sums = RandomStream.running_sums(weights)
        assert sums == [1.0, 1.0, 4.0, 4.5, 4.5]
        a, b = RandomStream(11), RandomStream(11)
        assert [a.sample_pmf(weights) for _ in range(500)] == [
            b.sample_sums(sums) for _ in range(500)
        ]

    def test_sample_pmf_rejects_zero_total(self):
        with pytest.raises(ValueError):
            RandomStream(1).sample_pmf([0.0, 0.0])

    def test_sample_pmf_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            RandomStream(1).sample_pmf([1.0, -0.5])

    def test_spawn_is_deterministic(self):
        a = RandomStream(9).spawn("child")
        b = RandomStream(9).spawn("child")
        assert a.randbits(32) == b.randbits(32)


class TestSeedSequenceFactory:
    def test_streams_are_independent_by_name(self):
        factory = SeedSequenceFactory(11)
        assert factory.seed_for("sources") != factory.seed_for("queries")

    def test_same_name_same_seed(self):
        assert SeedSequenceFactory(11).seed_for("x") == SeedSequenceFactory(11).seed_for("x")

    def test_master_seed_changes_everything(self):
        assert SeedSequenceFactory(11).seed_for("x") != SeedSequenceFactory(12).seed_for("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(11).seed_for("")

    def test_streams_helper(self):
        streams = SeedSequenceFactory(11).streams(["a", "b"])
        assert set(streams) == {"a", "b"}
        assert streams["a"].randbits(16) != streams["b"].randbits(16) or True

    def test_non_int_master_seed_rejected(self):
        with pytest.raises(TypeError):
            SeedSequenceFactory("nope")

    def test_master_seed_property(self):
        assert SeedSequenceFactory(5).master_seed == 5
