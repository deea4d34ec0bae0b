"""Tests for the file-system model and its distributions."""

import random

import pytest

from repro._units import BLOCK_SIZE, MB
from repro.errors import ConfigError
from repro.fsmodel.distributions import (
    WeightedSampler,
    pareto_sample,
    poisson_sample,
    truncated_lognormal_sample,
    zipf_popularity,
)
from repro.fsmodel.files import FileSpec, FileSystemModel
from repro.fsmodel.impressions import ImpressionsConfig, generate_filesystem


class TestPoisson:
    def test_zero_mean(self):
        assert poisson_sample(random.Random(1), 0) == 0

    def test_small_mean_statistics(self):
        rng = random.Random(2)
        samples = [poisson_sample(rng, 4.0) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(4.0, rel=0.05)

    def test_large_mean_uses_normal_approx(self):
        rng = random.Random(3)
        samples = [poisson_sample(rng, 200.0) for _ in range(5_000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(200.0, rel=0.05)
        assert min(samples) >= 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigError):
            poisson_sample(random.Random(1), -1.0)
        # a NaN mean would sample 0 every time; an infinite one breaks gauss
        for mean in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                poisson_sample(random.Random(1), mean)


class TestLognormalAndPareto:
    def test_lognormal_respects_cap(self):
        rng = random.Random(4)
        for _ in range(1000):
            assert truncated_lognormal_sample(rng, 10.0, 2.0, 5000.0) <= 5000.0

    def test_pareto_respects_minimum(self):
        rng = random.Random(5)
        for _ in range(1000):
            assert pareto_sample(rng, 1.3, 100.0) >= 100.0

    def test_pareto_validation(self):
        with pytest.raises(ConfigError):
            pareto_sample(random.Random(1), 0, 1)


class TestZipfPopularity:
    def test_range(self):
        rng = random.Random(6)
        values = [zipf_popularity(rng, 16, 1.5) for _ in range(5000)]
        assert min(values) >= 1
        assert max(values) <= 16

    def test_popularity_one_is_the_mode(self):
        # With s=1.5 truncated at 16, P(1) = 1/H_16(1.5) which is ~0.39:
        # popularity 1 is by far the most common value.
        rng = random.Random(7)
        values = [zipf_popularity(rng, 16, 1.5) for _ in range(5000)]
        ones = sum(1 for v in values if v == 1)
        twos = sum(1 for v in values if v == 2)
        assert ones / len(values) > 0.3
        assert ones > 2 * twos

    def test_validation(self):
        with pytest.raises(ConfigError):
            zipf_popularity(random.Random(1), 0)
        with pytest.raises(ConfigError):
            zipf_popularity(random.Random(1), 16, 0)


class TestWeightedSampler:
    def test_respects_weights(self):
        sampler = WeightedSampler([1.0, 9.0])
        rng = random.Random(8)
        picks = [sampler.sample(rng) for _ in range(10_000)]
        heavy = sum(1 for p in picks if p == 1)
        assert heavy / len(picks) == pytest.approx(0.9, abs=0.02)

    def test_single_item(self):
        sampler = WeightedSampler([3.0])
        assert sampler.sample(random.Random(9)) == 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            WeightedSampler([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            WeightedSampler([1.0, 0.0])


class TestFileSpec:
    def test_nbytes(self):
        assert FileSpec(0, 10).nbytes == 10 * BLOCK_SIZE

    def test_validation(self):
        with pytest.raises(ConfigError):
            FileSpec(0, 0)
        with pytest.raises(ConfigError):
            FileSpec(0, 1, popularity=0)


class TestFileSystemModel:
    def test_dense_ids_enforced(self):
        with pytest.raises(ConfigError):
            FileSystemModel([FileSpec(1, 10)])

    def test_totals(self):
        model = FileSystemModel([FileSpec(0, 10), FileSpec(1, 20)])
        assert model.total_blocks == 30
        assert model.total_bytes == 30 * BLOCK_SIZE
        assert model.file_blocks() == [10, 20]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            FileSystemModel([])

    def test_size_histogram(self):
        model = FileSystemModel([FileSpec(0, 5), FileSpec(1, 50), FileSpec(2, 500)])
        hist = model.size_histogram([10, 100])
        assert hist["<= 10"] == 1
        assert hist["11..100"] == 1
        assert hist["> 100"] == 1


class TestImpressionsGenerator:
    def test_total_close_to_target(self):
        config = ImpressionsConfig(total_bytes=32 * MB, seed=11)
        model = generate_filesystem(config)
        assert model.total_bytes == pytest.approx(32 * MB, rel=0.02)

    def test_many_files(self):
        model = generate_filesystem(ImpressionsConfig(total_bytes=32 * MB, seed=11))
        assert len(model) > 50

    def test_size_diversity(self):
        model = generate_filesystem(ImpressionsConfig(total_bytes=32 * MB, seed=11))
        sizes = sorted(spec.blocks for spec in model)
        assert sizes[0] < sizes[-1]  # not all the same size

    def test_max_file_cap_respected(self):
        config = ImpressionsConfig(total_bytes=32 * MB, max_file_bytes=1 * MB, seed=11)
        model = generate_filesystem(config)
        assert max(spec.nbytes for spec in model) <= 1 * MB

    def test_deterministic(self):
        config = ImpressionsConfig(total_bytes=8 * MB, seed=12)
        first = generate_filesystem(config).file_blocks()
        second = generate_filesystem(config).file_blocks()
        assert first == second

    def test_popularities_are_small_positive_ints(self):
        model = generate_filesystem(ImpressionsConfig(total_bytes=8 * MB, seed=13))
        for spec in model:
            assert 1 <= spec.popularity <= 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            ImpressionsConfig(total_bytes=0)
        with pytest.raises(ConfigError):
            ImpressionsConfig(tail_fraction=2.0)
