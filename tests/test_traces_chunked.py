"""Tests for the bounded-memory chunked trace representation."""

import json
import pickle

import pytest

from repro.core.simulator import run_simulation
from repro.errors import TraceFormatError
from repro.tracegen import generate_trace, generate_trace_chunked
from repro.traces.chunked import (
    DEFAULT_CHUNK_RECORDS,
    ChunkedCompiledTrace,
    ChunkedTraceWriter,
)
from repro.traces.records import Trace, TraceOp, TraceRecord
from repro.validation.differential import full_signature, result_signature
from tests.helpers import tiny_config


def sample_trace(n=40, warmup=10, hosts=2, threads=2, files=(64, 128)):
    records = []
    for i in range(n):
        records.append(
            TraceRecord(
                TraceOp.WRITE if i % 3 == 0 else TraceOp.READ,
                i % hosts,
                (i // hosts) % threads,
                i % len(files),
                i % 32,
                1 + i % 4,
            )
        )
    return Trace(
        records,
        list(files),
        warmup_records=warmup,
        metadata={"source": "unit-test"},
    )


@pytest.fixture
def chunked_pair():
    trace = sample_trace()
    chunked = ChunkedCompiledTrace.from_trace(trace, chunk_records=7)
    yield trace, chunked
    chunked.delete()


class TestRoundTrip:
    def test_lengths_and_geometry(self, chunked_pair):
        trace, chunked = chunked_pair
        assert len(chunked) == len(trace)
        assert chunked.warmup_records == trace.warmup_records
        assert chunked.file_blocks == trace.file_blocks
        assert chunked.hosts() == trace.hosts()
        assert chunked.metadata == trace.metadata

    def test_fingerprint_matches_compile_trace(self, chunked_pair):
        trace, chunked = chunked_pair
        assert chunked.fingerprint == trace.fingerprint

    def test_iter_records_round_trips(self, chunked_pair):
        trace, chunked = chunked_pair
        expected = [
            (
                1 if r.is_write else 0,
                r.host,
                r.thread,
                r.file_id,
                r.offset,
                r.nblocks,
            )
            for r in trace.records
        ]
        assert list(chunked.iter_records()) == expected
        # Re-iterable, not a one-shot generator.
        assert list(chunked.iter_records()) == expected

    def test_to_trace_round_trips(self, chunked_pair):
        trace, chunked = chunked_pair
        revived = chunked.to_trace()
        # packed straight into columns: no record object until asked
        assert revived._records is None
        assert revived.fingerprint == trace.fingerprint
        assert list(revived.start_blocks) == list(trace.start_blocks)
        assert revived.records == trace.records
        assert revived.warmup_records == trace.warmup_records
        assert revived.file_blocks == trace.file_blocks

    def test_from_compiled_trace_equivalent(self, chunked_pair):
        # a trace built from columns spools like one built from records
        trace, chunked = chunked_pair
        from_columns = Trace.from_columns(
            *trace.row_columns(), trace.file_blocks, trace.warmup_records, trace.metadata
        )
        via_columns = ChunkedCompiledTrace.from_trace(from_columns, chunk_records=7)
        try:
            assert via_columns.fingerprint == chunked.fingerprint
            assert list(via_columns.iter_records()) == list(chunked.iter_records())
        finally:
            via_columns.delete()

    def test_chunk_size_does_not_change_content(self):
        trace = sample_trace()
        fingerprints = set()
        for chunk_records in (1, 3, 16, 1000):
            chunked = ChunkedCompiledTrace.from_trace(
                trace, chunk_records=chunk_records
            )
            try:
                fingerprints.add(chunked.fingerprint)
            finally:
                chunked.delete()
        assert len(fingerprints) == 1

    def test_replay_identical_to_materialized(self, chunked_pair):
        trace, chunked = chunked_pair
        config = tiny_config()
        materialized = run_simulation(trace, config)
        streamed = run_simulation(chunked, config)
        assert full_signature(streamed) == full_signature(materialized)


class TestWarmupSkip:
    def test_without_warmup_drops_rows(self, chunked_pair):
        trace, chunked = chunked_pair
        stripped = chunked.without_warmup()
        try:
            assert len(stripped) == len(trace) - trace.warmup_records
            assert stripped.warmup_records == 0
            expected = [
                (
                    1 if r.is_write else 0,
                    r.host,
                    r.thread,
                    r.file_id,
                    r.offset,
                    r.nblocks,
                )
                for r in trace.records[trace.warmup_records:]
            ]
            assert list(stripped.iter_records()) == expected
        finally:
            stripped.close()

    def test_without_warmup_fingerprint_parity(self, chunked_pair):
        trace, chunked = chunked_pair
        stripped = chunked.without_warmup()
        try:
            assert (
                stripped.fingerprint
                == trace.without_warmup().fingerprint
            )
        finally:
            stripped.close()

    def test_zero_warmup_without_warmup_is_self(self):
        trace = sample_trace(warmup=0)
        chunked = ChunkedCompiledTrace.from_trace(trace)
        try:
            assert chunked.without_warmup() is chunked
        finally:
            chunked.delete()

    def test_all_warmup_issuer_dropped_from_plan(self):
        # host 1's only record sits inside the warmup prefix; after the
        # skip its issuer must not appear in the replay plan at all.
        records = [
            TraceRecord(TraceOp.READ, 1, 0, 0, 0, 1),
            TraceRecord(TraceOp.READ, 0, 0, 0, 1, 1),
            TraceRecord(TraceOp.READ, 0, 0, 0, 2, 1),
        ]
        trace = Trace(records, [64], warmup_records=1)
        chunked = ChunkedCompiledTrace.from_trace(trace)
        stripped = chunked.without_warmup()
        try:
            issuers = [
                (host, thread)
                for host, thread, _warm, _measured in stripped.issuer_plan()
            ]
            assert (1, 0) not in issuers
            assert (0, 0) in issuers
        finally:
            stripped.close()
            chunked.delete()

    def test_full_warmup_yields_empty_replay(self):
        # warmup_records == n_records: the cold-start view is empty —
        # no crash, no issuers, and the chunked form must agree with
        # the in-memory trace on every surface.
        trace = sample_trace(n=20, warmup=20)
        memory_stripped = trace.without_warmup()
        chunked = ChunkedCompiledTrace.from_trace(trace, chunk_records=7)
        stripped = chunked.without_warmup()
        try:
            assert len(stripped) == len(memory_stripped) == 0
            assert stripped.warmup_records == 0
            assert stripped.warmup_blocks() == 0
            assert stripped.issuer_plan() == []
            assert stripped.hosts() == memory_stripped.hosts() == []
            assert list(stripped.iter_records()) == []
            assert stripped.fingerprint == memory_stripped.fingerprint
        finally:
            stripped.close()
            chunked.delete()

    def test_full_warmup_empty_replay_runs(self):
        # The empty cold-start view must still replay end to end.
        trace = sample_trace(n=20, warmup=20)
        chunked = ChunkedCompiledTrace.from_trace(trace, chunk_records=7)
        stripped = chunked.without_warmup()
        try:
            results = run_simulation(stripped, tiny_config())
            assert results.blocks_read == 0
            assert results.blocks_written == 0
        finally:
            stripped.close()
            chunked.delete()

    def test_without_warmup_of_stripped_is_self(self, chunked_pair):
        _, chunked = chunked_pair
        stripped = chunked.without_warmup()
        try:
            assert stripped.without_warmup() is stripped
        finally:
            stripped.close()

    def test_reopen_of_reopen_preserves_skip_view(self, chunked_pair):
        # A stripped view reopened from its own spool path (what a
        # pickled worker of a pickled worker does) must keep the same
        # content, fingerprint, and warmup accounting as the original.
        trace, chunked = chunked_pair
        stripped = chunked.without_warmup()
        first = ChunkedCompiledTrace.open(
            stripped.spool_dir, skip=trace.warmup_records
        )
        second = ChunkedCompiledTrace.open(
            first.spool_dir, skip=trace.warmup_records
        )
        try:
            assert second.fingerprint == stripped.fingerprint
            assert len(second) == len(stripped)
            assert second.warmup_records == 0
            assert list(second.iter_records()) == list(stripped.iter_records())
        finally:
            stripped.close()
            first.close()
            second.close()

    def test_double_pickle_preserves_skip_view(self, chunked_pair):
        trace, chunked = chunked_pair
        stripped = chunked.without_warmup()
        once = pickle.loads(pickle.dumps(stripped))
        twice = pickle.loads(pickle.dumps(once))
        try:
            assert twice.fingerprint == stripped.fingerprint
            assert len(twice) == len(stripped)
            assert twice.warmup_records == 0
            assert (
                twice.fingerprint
                == trace.without_warmup().fingerprint
            )
        finally:
            stripped.close()
            once.close()
            twice.close()


class TestPersistence:
    def test_open_existing_spool(self, tmp_path, chunked_pair):
        trace, _ = chunked_pair
        spool = tmp_path / "spool"
        first = ChunkedCompiledTrace.from_trace(trace, spool_dir=spool)
        fingerprint = first.fingerprint
        first.close()
        reopened = ChunkedCompiledTrace.open(spool)
        try:
            assert reopened.fingerprint == fingerprint
            assert len(reopened) == len(trace)
        finally:
            reopened.delete()

    def test_pickle_round_trip(self, chunked_pair):
        _, chunked = chunked_pair
        clone = pickle.loads(pickle.dumps(chunked))
        try:
            assert clone.fingerprint == chunked.fingerprint
            assert list(clone.iter_records()) == list(chunked.iter_records())
        finally:
            clone.close()

    def test_pickle_preserves_skip(self, chunked_pair):
        _, chunked = chunked_pair
        stripped = chunked.without_warmup()
        try:
            clone = pickle.loads(pickle.dumps(stripped))
            try:
                assert len(clone) == len(stripped)
                assert clone.warmup_records == 0
            finally:
                clone.close()
        finally:
            stripped.close()

    def test_open_rejects_non_spool(self, tmp_path):
        with pytest.raises(TraceFormatError, match="not a chunked trace spool"):
            ChunkedCompiledTrace.open(tmp_path)

    def test_open_rejects_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(TraceFormatError, match="corrupt"):
            ChunkedCompiledTrace.open(tmp_path)

    def test_truncated_chunks_detected(self, tmp_path, chunked_pair):
        trace, _ = chunked_pair
        spool = tmp_path / "spool"
        chunked = ChunkedCompiledTrace.from_trace(trace, spool_dir=spool)
        chunked.close()
        chunks = spool / "chunks.bin"
        chunks.write_bytes(chunks.read_bytes()[:-8])
        reopened = ChunkedCompiledTrace.open(spool)
        try:
            with pytest.raises(TraceFormatError, match="truncated"):
                list(reopened.iter_records())
        finally:
            reopened.close()

    def test_truncated_rows_detected(self, tmp_path, chunked_pair):
        trace, _ = chunked_pair
        spool = tmp_path / "spool"
        chunked = ChunkedCompiledTrace.from_trace(trace, spool_dir=spool)
        chunked.close()
        rows = spool / "rows.bin"
        rows.write_bytes(rows.read_bytes()[:-8])
        reopened = ChunkedCompiledTrace.open(spool)
        try:
            with pytest.raises(TraceFormatError, match="truncated row"):
                for _host, _thread, warm, measured in reopened.issuer_plan():
                    list(warm)
                    list(measured)
        finally:
            reopened.close()

    def test_manifest_is_versioned_json(self, tmp_path, chunked_pair):
        trace, _ = chunked_pair
        spool = tmp_path / "spool"
        chunked = ChunkedCompiledTrace.from_trace(trace, spool_dir=spool)
        try:
            manifest = json.loads((spool / "manifest.json").read_text())
            assert manifest["version"] == 1
            assert manifest["n_records"] == len(trace)
            assert manifest["fingerprint"] == chunked.fingerprint
        finally:
            chunked.delete()


class TestWriter:
    def test_spool_reuse_rejected(self, tmp_path, chunked_pair):
        trace, _ = chunked_pair
        spool = tmp_path / "spool"
        first = ChunkedCompiledTrace.from_trace(trace, spool_dir=spool)
        first.close()
        with pytest.raises(TraceFormatError, match="already holds"):
            ChunkedTraceWriter([64], spool_dir=spool)

    def test_append_after_freeze_rejected(self):
        writer = ChunkedTraceWriter([64])
        writer.append(False, 0, 0, 0, 0, 1)
        trace = writer.freeze()
        try:
            with pytest.raises(TraceFormatError, match="frozen"):
                writer.append(False, 0, 0, 0, 1, 1)
            with pytest.raises(TraceFormatError, match="already frozen"):
                writer.freeze()
        finally:
            trace.delete()

    def test_frozen_geometry_validates(self):
        writer = ChunkedTraceWriter([8])
        try:
            with pytest.raises(TraceFormatError, match="references file"):
                writer.append(False, 0, 0, 1, 0, 1)
            with pytest.raises(TraceFormatError, match="overruns"):
                writer.append(False, 0, 0, 0, 7, 2)
            with pytest.raises(TraceFormatError, match="non-negative"):
                writer.append(False, 0, 0, 0, -1, 1)
            with pytest.raises(TraceFormatError, match=">= 1 block"):
                writer.append(False, 0, 0, 0, 0, 0)
        finally:
            writer.abort()

    def test_deferred_geometry_grows(self):
        writer = ChunkedTraceWriter()
        writer.append(False, 0, 0, 2, 10, 4)
        trace = writer.freeze()
        try:
            assert trace.file_blocks == [1, 1, 14]
        finally:
            trace.delete()

    def test_warmup_out_of_range_rejected(self):
        writer = ChunkedTraceWriter([64])
        writer.append(False, 0, 0, 0, 0, 1)
        with pytest.raises(TraceFormatError, match="out of range"):
            writer.freeze(warmup_records=2)
        writer.abort()

    def test_empty_trace(self):
        trace = ChunkedTraceWriter([4]).freeze()
        try:
            assert len(trace) == 0
            assert list(trace.iter_records()) == []
            assert trace.fingerprint == Trace([], [4]).fingerprint
        finally:
            trace.delete()

    def test_abort_removes_temp_spool(self):
        writer = ChunkedTraceWriter([64])
        spool = writer.spool_dir
        writer.append(False, 0, 0, 0, 0, 1)
        writer.abort()
        assert not spool.exists()


class TestChunkSizeKnob:
    def test_default(self):
        writer = ChunkedTraceWriter([64], chunk_records=None)
        writer.append(False, 0, 0, 0, 0, 1)
        trace = writer.freeze()
        try:
            manifest = json.loads((trace.spool_dir / "manifest.json").read_text())
            assert manifest["chunk_records"] == DEFAULT_CHUNK_RECORDS
        finally:
            trace.delete()

    def test_writer_rejects_bad_chunk_records(self):
        with pytest.raises(TraceFormatError, match=">= 1"):
            ChunkedTraceWriter([64], chunk_records=0)


class TestGenerateChunked:
    def test_matches_materialized_generation(self):
        from repro.fsmodel.impressions import ImpressionsConfig
        from repro.tracegen import TraceGenConfig

        config = TraceGenConfig(
            fs=ImpressionsConfig(total_bytes=16 << 20),
            working_set_bytes=4 << 20,
            n_hosts=2,
            threads_per_host=2,
            volume_multiple=1.0,
            seed=7,
        )
        materialized = generate_trace(config)
        chunked = generate_trace_chunked(config, chunk_records=512)
        try:
            assert chunked.fingerprint == materialized.fingerprint
            sim = tiny_config()
            assert result_signature(
                run_simulation(chunked, sim)
            ) == result_signature(run_simulation(materialized, sim))
        finally:
            chunked.delete()
