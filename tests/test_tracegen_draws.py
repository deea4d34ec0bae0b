"""The generator's inlined draws against the helpers they stand for.

``_iter_requests`` writes every per-request draw out in its loop (a
``getrandbits`` rejection loop, ``bisect_right`` with a last-index
clamp, Knuth's product loop).  :func:`oracle_requests` is the loop as
it read before, built only from ``Random.randrange``,
``poisson_sample``, ``WorkingSet.sample_piece`` and
``WeightedSampler.sample``; on generated configurations both must yield
the same request tuples.

``generate_trace`` packs those requests straight into columns;
:func:`record_path_trace` builds the same trace one ``TraceRecord`` per
request, as the generator did before, and both must pack to the
same columns.  Further tests check that no record object is built from
generation to results, that a columns-backed trace pickles and rejects
bad rows as the record path does, and that trace generation and replay
leave the cyclic collector as they found it.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
from array import array
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import MB
from repro.core.machine import System
from repro.core.simulator import run_simulation
from repro.engine.rng import RngStreams, derive_seed
from repro.errors import TraceFormatError
from repro.fsmodel.distributions import WeightedSampler, poisson_sample
from repro.fsmodel.files import FileSystemModel
from repro.fsmodel.impressions import ImpressionsConfig, generate_filesystem
from repro.tracegen import generator
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.fleet import SCENARIOS, FleetSpec, fleet_trace
from repro.tracegen.generator import (
    Request,
    _build_working_sets,
    _iter_requests,
    _trace_metadata,
    generate_trace,
)
from repro.traces.records import ROW_TYPECODES, Trace, TraceOp, TraceRecord, records_from_rows
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


# --- packed columns against the record path -------------------------------


def record_path_trace(config: TraceGenConfig, model: FileSystemModel) -> Trace:
    """The trace built one ``TraceRecord`` per request."""
    records = []
    warmup_records = 0
    for is_write, host, thread, file_id, start, length, is_warmup in _iter_requests(
        config, model, RngStreams(config.seed)
    ):
        op = TraceOp.WRITE if is_write else TraceOp.READ
        records.append(TraceRecord(op, host, thread, file_id, start, length))
        warmup_records += is_warmup
    return Trace(records, model.file_blocks(), warmup_records, _trace_metadata(config))


@settings(max_examples=60, deadline=None)
@given(config=CONFIGS)
def test_packed_columns_equal_the_record_path(config):
    model = _model()
    packed = generate_trace(config, model)
    reference = record_path_trace(config, model)
    assert packed._records is None
    assert packed.warmup_records == reference.warmup_records
    assert packed.fingerprint == reference.fingerprint
    # the fingerprint leaves out the derived start column
    assert packed.start_blocks == reference.start_blocks
    assert packed.records == reference.records


def _small_config() -> TraceGenConfig:
    return TraceGenConfig(fs=FS, working_set_bytes=1 * MB, n_hosts=2, seed=5)


SMALL_FLEET = FleetSpec(n_hosts=4, n_tenants=2, ws_bytes=1 * MB, volume_multiple=1.0)


@pytest.mark.parametrize("cold_start", [False, True])
@pytest.mark.parametrize("source", ("generated",) + SCENARIOS)
def test_no_record_object_from_generation_to_results(source, cold_start, monkeypatch):
    built = []
    init = TraceRecord.__init__

    def counted(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(TraceRecord, "__init__", counted)
    if source == "generated":
        trace, n_hosts = generate_trace(_small_config(), _model()), 2
    else:
        trace, n_hosts = fleet_trace(SMALL_FLEET, source), SMALL_FLEET.n_hosts
    trace.issuer_plan()
    results = run_simulation(
        trace, tiny_config(), n_hosts=n_hosts, cold_start=cold_start, check_invariants=False
    )
    assert results.blocks_read + results.blocks_written > 0
    assert built == []
    # the hook sees records built on request
    assert len(trace.records) == len(built) == len(trace)


def test_pickle_keeps_a_trace_whose_records_were_never_built():
    trace = generate_trace(_small_config(), _model())
    clone = pickle.loads(pickle.dumps(trace))
    assert trace._records is None and clone._records is None
    assert clone.fingerprint == trace.fingerprint
    assert clone.warmup_records == trace.warmup_records
    assert clone.records == trace.records


#: Rows (op, host, thread, file_id, offset, nblocks) over files of 10 and
#: 20 blocks, each list with one or two bad rows after good ones.
BAD_ROWS = {
    "zero-length": [(0, 0, 0, 1, 4, 0)],
    "past-the-end": [(1, 0, 1, 0, 8, 3)],
    "missing-file": [(0, 1, 0, 2, 0, 1)],
    "past-the-end-then-missing-file": [(0, 0, 0, 1, 19, 2), (0, 0, 0, 5, 0, 1)],
    "missing-file-then-zero-length": [(0, 0, 0, 7, 0, 1), (0, 0, 0, 0, 0, 0)],
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
def test_columns_raise_the_record_path_errors(bad):
    rows = [(0, 0, 0, 0, 0, 10), (1, 1, 0, 1, 5, 15)] + BAD_ROWS[bad] + [(0, 0, 1, 1, 0, 1)]
    file_blocks = [10, 20]
    with pytest.raises(TraceFormatError) as by_records:
        Trace(records_from_rows(rows), file_blocks)
    columns = [array(typecode, field) for typecode, field in zip(ROW_TYPECODES, zip(*rows))]
    with pytest.raises(TraceFormatError) as by_columns:
        Trace.from_columns(*columns, file_blocks)
    assert str(by_columns.value) == str(by_records.value)


def test_a_field_too_large_for_its_column_is_a_format_error():
    # thread ids from 2**33 threads per host do not fit the 32-bit column
    config = TraceGenConfig(fs=FS, working_set_bytes=1 * MB, threads_per_host=2**33, seed=5)
    with pytest.raises(TraceFormatError, match="too large"):
        generate_trace(config, _model())


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
