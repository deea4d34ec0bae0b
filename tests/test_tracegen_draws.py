"""The generator's inlined draws against the helpers they stand for.

``_iter_requests`` writes every per-request draw out in its loop (a
``getrandbits`` rejection loop, ``bisect_right`` with a last-index
clamp, Knuth's product loop).  :func:`oracle_requests` is the loop as
it read before, built only from ``Random.randrange``,
``poisson_sample``, ``WorkingSet.sample_piece`` and
``WeightedSampler.sample``; on generated configurations both must yield
the same request tuples.  The tests at the end check that trace
generation and replay leave the cyclic collector as they found it.
"""

from __future__ import annotations

import gc
import math
import random
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import MB
from repro.core.machine import System
from repro.engine.rng import RngStreams, derive_seed
from repro.fsmodel.distributions import WeightedSampler, poisson_sample
from repro.fsmodel.files import FileSystemModel
from repro.fsmodel.impressions import ImpressionsConfig, generate_filesystem
from repro.tracegen import generator
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import (
    Request,
    _build_working_sets,
    _iter_requests,
    generate_trace,
)
from tests.helpers import tiny_config

FS = ImpressionsConfig(total_bytes=16 * MB, max_file_bytes=1 * MB, seed=3)


@lru_cache(maxsize=None)
def _model() -> FileSystemModel:
    return generate_filesystem(FS)


def oracle_requests(
    config: TraceGenConfig, model: FileSystemModel, streams: RngStreams
) -> Iterator[Request]:
    """The request loop written with the sampling helpers."""
    io_rng = streams.stream("tracegen", "requests")
    file_sampler = WeightedSampler(model.popularities())
    working_sets = _build_working_sets(config, model, streams)
    target_blocks = config.target_volume_blocks
    warmup_boundary_blocks = int(target_blocks * config.warmup_fraction)

    volume_blocks = 0
    while volume_blocks < target_blocks:
        host = io_rng.randrange(config.n_hosts)
        thread = io_rng.randrange(config.threads_per_host)
        is_write = io_rng.random() < config.write_fraction

        if io_rng.random() < config.ws_fraction:
            piece = working_sets[host].sample_piece(io_rng)
            file_id, base, extent = piece.file_id, piece.start, piece.nblocks
        else:
            spec = model.files[file_sampler.sample(io_rng)]
            file_id, base, extent = spec.file_id, 0, spec.blocks
        length = poisson_sample(io_rng, config.io_mean_blocks)
        if length < 1:
            length = 1
        elif length > extent:
            length = extent
        start = base + io_rng.randrange(extent - length + 1)

        yield (
            is_write,
            host,
            thread,
            file_id,
            start,
            length,
            volume_blocks < warmup_boundary_blocks,
        )
        volume_blocks += length


CONFIGS = st.builds(
    lambda **fields: TraceGenConfig(fs=FS, **fields),
    working_set_bytes=st.sampled_from([256 * 1024, 1 * MB, 2 * MB]),
    n_hosts=st.integers(1, 9),
    threads_per_host=st.integers(1, 9),
    write_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    ws_fraction=st.sampled_from([0.0, 0.8, 1.0]),
    io_mean_blocks=st.sampled_from([0.5, 1.0, 4.0, 50.0, 50.5, 60.0]),
    region_mean_blocks=st.sampled_from([4.0, 64.0]),
    volume_multiple=st.sampled_from([0.5, 2.0]),
    shared_working_set=st.booleans(),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=150, deadline=None)
@given(config=CONFIGS)
def test_inlined_draws_equal_the_helpers(config):
    model = _model()
    inlined = list(_iter_requests(config, model, RngStreams(config.seed)))
    assert inlined == list(oracle_requests(config, model, RngStreams(config.seed)))


class BoundaryRandom(random.Random):
    """A stream that returns one of ``values`` in place of its own draw
    on a seeded quarter of its ``random()`` calls.  ``getrandbits`` is
    untouched, so ``randrange`` keeps its rejection loop."""

    def __init__(self, seed: int, values: Tuple[float, ...]) -> None:
        super().__init__(seed)
        self._values = values
        self._slots = random.Random(seed + 1)

    def random(self) -> float:
        slot = self._slots.randrange(4 * len(self._values))
        if slot < len(self._values):
            return self._values[slot]
        return super().random()

    def getrandbits(self, k: int) -> int:
        return super().getrandbits(k)


def _boundary_streams(config: TraceGenConfig) -> RngStreams:
    # 1.0, which random.Random never returns, takes a pick's point to
    # the total weight, where only the last-index clamp keeps the index
    # in range; a product of 1.0s and exp(-mean) sits exactly on the
    # bound where Knuth's loop stops.
    streams = RngStreams(config.seed)
    streams._streams[("tracegen", "requests")] = BoundaryRandom(
        derive_seed(config.seed, "tracegen", "requests"),
        (1.0, math.exp(-config.io_mean_blocks)),
    )
    return streams


@pytest.mark.parametrize("io_mean_blocks", [0.5, 1.0, 4.0, 50.0])
@pytest.mark.parametrize("ws_fraction", [0.0, 0.8, 1.0])
def test_boundary_draws_equal_the_helpers(io_mean_blocks, ws_fraction):
    # Means above 50 are left out: gauss() takes log(1.0 - random()).
    config = TraceGenConfig(
        fs=FS,
        working_set_bytes=1 * MB,
        n_hosts=2,
        ws_fraction=ws_fraction,
        io_mean_blocks=io_mean_blocks,
        seed=19,
    )
    model = _model()
    inlined = list(_iter_requests(config, model, _boundary_streams(config)))
    assert inlined == list(oracle_requests(config, model, _boundary_streams(config)))


# --- the collector pause ---------------------------------------------------


@contextmanager
def _collector(enabled: bool) -> Iterator[None]:
    """Run the block with the collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _small_config() -> TraceGenConfig:
    return TraceGenConfig(fs=FS, working_set_bytes=1 * MB, n_hosts=2, seed=5)


@pytest.mark.parametrize("enabled", [True, False])
def test_generate_trace_restores_the_collector(enabled):
    with _collector(enabled):
        trace = generate_trace(_small_config(), _model())
        assert gc.isenabled() is enabled
    assert len(trace) > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_generate_trace_restores_the_collector_when_it_raises(enabled, monkeypatch):
    states = []

    def failing(config, model, streams):
        for count, request in enumerate(_iter_requests(config, model, streams)):
            states.append(gc.isenabled())
            if count == 10:
                raise RuntimeError("part-way")
            yield request

    monkeypatch.setattr(generator, "_iter_requests", failing)
    with _collector(enabled):
        with pytest.raises(RuntimeError, match="part-way"):
            generate_trace(_small_config(), _model())
        assert gc.isenabled() is enabled
    # paused while the records were built
    assert states == [False] * 11


@pytest.mark.parametrize("enabled", [True, False])
def test_replay_restores_the_collector(enabled):
    trace = generate_trace(_small_config(), _model())
    system = System(tiny_config(), 2)
    with _collector(enabled):
        system.replay(trace)
        assert gc.isenabled() is enabled
    assert system.sim.now > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_replay_restores_the_collector_when_it_raises(enabled):
    trace = generate_trace(_small_config(), _model())
    system = System(tiny_config(), 2)
    run = system.sim.run
    states = []

    def run_then_fail(until=None):
        states.append(gc.isenabled())
        run(until=1_000_000)
        raise RuntimeError("part-way")

    system.sim.run = run_then_fail
    with _collector(enabled):
        with pytest.raises(RuntimeError, match="part-way"):
            system.replay(trace)
        assert gc.isenabled() is enabled
    assert states == [False]
    assert system.sim.now == 1_000_000
