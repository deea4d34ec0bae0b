"""Tests for the synthetic trace generator (the §4 properties)."""

import random

import pytest

from repro._units import MB
from repro.errors import ConfigError
from repro.fsmodel.impressions import ImpressionsConfig, generate_filesystem
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.tracegen.workingset import build_working_set
from repro.traces.stats import compute_stats


def small_config(**overrides):
    defaults = dict(
        fs=ImpressionsConfig(total_bytes=64 * MB, max_file_bytes=4 * MB, seed=1),
        working_set_bytes=8 * MB,
        seed=77,
    )
    defaults.update(overrides)
    return TraceGenConfig(**defaults)


@pytest.fixture(scope="module")
def baseline():
    config = small_config()
    return config, generate_trace(config)


class TestVolumeAndWarmup:
    def test_volume_reaches_target(self, baseline):
        config, trace = baseline
        stats = compute_stats(trace)
        assert stats.total_blocks >= config.target_volume_blocks
        # ... but does not wildly overshoot (at most one extra request).
        assert stats.total_blocks < config.target_volume_blocks * 1.05

    def test_warmup_half_of_volume(self, baseline):
        config, trace = baseline
        warmup_blocks = sum(r.nblocks for r in trace.records[: trace.warmup_records])
        assert warmup_blocks == pytest.approx(
            0.5 * config.target_volume_blocks, rel=0.05
        )


class TestDistributions:
    def test_write_fraction(self, baseline):
        _config, trace = baseline
        stats = compute_stats(trace)
        assert stats.write_fraction == pytest.approx(0.30, abs=0.02)

    def test_io_size_poisson_mean(self, baseline):
        config, trace = baseline
        stats = compute_stats(trace)
        # Poisson(4) clamped below at 1 and above at piece size: the mean
        # lands near 4.
        assert stats.mean_io_blocks == pytest.approx(config.io_mean_blocks, rel=0.15)

    def test_working_set_concentration(self, baseline):
        """80% of I/Os target the working set, which is ~1/8 of the file
        server, so accesses must concentrate heavily."""
        _config, trace = baseline
        stats = compute_stats(trace)
        # The top 20% of unique blocks should absorb well over half the
        # accesses in a working-set-driven trace.
        assert stats.concentration[0.2] > 0.5

    def test_footprint_between_ws_and_server(self, baseline):
        config, trace = baseline
        stats = compute_stats(trace)
        assert stats.footprint_bytes > config.working_set_bytes * 0.5
        assert stats.footprint_bytes < config.fs.total_bytes


class TestHostsAndThreads:
    def test_single_host_default(self, baseline):
        _config, trace = baseline
        assert trace.hosts() == [0]
        assert len(trace.threads_of(0)) == 8

    def test_uniform_thread_distribution(self, baseline):
        _config, trace = baseline
        stats = compute_stats(trace)
        counts = list(stats.records_per_thread.values())
        assert max(counts) < 1.5 * min(counts)

    def test_two_hosts(self):
        trace = generate_trace(small_config(n_hosts=2))
        assert trace.hosts() == [0, 1]
        stats = compute_stats(trace)
        ratio = stats.records_per_host[0] / stats.records_per_host[1]
        assert 0.8 < ratio < 1.25

    def test_shared_working_set_overlaps(self):
        """With a shared working set, the two hosts' footprints overlap
        heavily; with separate working sets, much less."""

        def overlap(shared):
            trace = generate_trace(
                small_config(n_hosts=2, shared_working_set=shared, seed=5)
            )
            per_host = {0: set(), 1: set()}
            for record in trace.records:
                per_host[record.host].update(trace.record_blocks(record))
            union = per_host[0] | per_host[1]
            return len(per_host[0] & per_host[1]) / len(union)

        assert overlap(True) > overlap(False) * 1.5


class TestDeterminismAndValidation:
    def test_same_seed_same_trace(self):
        first = generate_trace(small_config())
        second = generate_trace(small_config())
        assert first.records == second.records

    def test_different_seed_different_trace(self):
        first = generate_trace(small_config(seed=1))
        second = generate_trace(small_config(seed=2))
        assert first.records != second.records

    def test_records_respect_file_bounds(self, baseline):
        # Trace construction validates; this re-checks explicitly.
        _config, trace = baseline
        for record in trace.records:
            assert record.offset + record.nblocks <= trace.file_blocks[record.file_id]

    def test_metadata_recorded(self, baseline):
        _config, trace = baseline
        assert trace.metadata["write_fraction"] == "0.3"
        assert trace.metadata["n_hosts"] == "1"

    def test_ws_larger_than_fs_rejected(self):
        with pytest.raises(ConfigError):
            small_config(working_set_bytes=128 * MB)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            small_config(write_fraction=1.5)
        with pytest.raises(ConfigError):
            small_config(warmup_fraction=1.0)
        # non-finite means and multiples would fail deep inside generation
        # or quietly shrink every I/O to one block
        for field in ("volume_multiple", "io_mean_blocks", "region_mean_blocks"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ConfigError, match=field):
                    small_config(**{field: value})
        # host and thread counts feed unchecked integer draws
        for field in ("n_hosts", "threads_per_host"):
            for value in (2.0, 2.5, True):
                with pytest.raises(ConfigError, match=field):
                    small_config(**{field: value})


class TestWorkingSet:
    def test_reaches_target_blocks(self):
        model = generate_filesystem(
            ImpressionsConfig(total_bytes=32 * MB, max_file_bytes=4 * MB, seed=2)
        )
        ws = build_working_set(model, 1000, 64.0, random.Random(3))
        assert ws.total_blocks >= 1000

    def test_pieces_within_files(self):
        model = generate_filesystem(
            ImpressionsConfig(total_bytes=32 * MB, max_file_bytes=4 * MB, seed=2)
        )
        ws = build_working_set(model, 1000, 64.0, random.Random(3))
        for piece in ws.pieces:
            assert piece.start + piece.nblocks <= model[piece.file_id].blocks

    def test_sample_piece_weighted(self):
        model = generate_filesystem(
            ImpressionsConfig(total_bytes=32 * MB, max_file_bytes=4 * MB, seed=2)
        )
        ws = build_working_set(model, 2000, 64.0, random.Random(3))
        rng = random.Random(4)
        for _ in range(100):
            assert ws.sample_piece(rng) in ws.pieces

    def test_target_validation(self):
        model = generate_filesystem(ImpressionsConfig(total_bytes=8 * MB, seed=2))
        with pytest.raises(ConfigError):
            build_working_set(model, 0, 64.0, random.Random(1))
