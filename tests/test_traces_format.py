"""Tests for trace serialization (text and binary round trips)."""

import json
import struct

import pytest

from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.simulator import run_simulation
from repro.errors import TraceFormatError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.tracegen import TraceGenConfig, generate_trace
from repro.traces.format import load_trace, save_trace
from repro.traces.importers import load_any
from repro.traces.records import Trace, TraceOp, TraceRecord
from repro.validation.differential import full_signature


def sample_trace():
    records = [
        TraceRecord(TraceOp.READ, 0, 3, 1, 42, 8),
        TraceRecord(TraceOp.WRITE, 1, 0, 0, 0, 1),
        TraceRecord(TraceOp.READ, 0, 7, 2, 999, 2),
    ]
    return Trace(
        records,
        [100, 250, 1024],
        warmup_records=1,
        metadata={"seed": "42", "generator": "test"},
    )


class TestTextRoundTrip:
    def test_records_survive(self, tmp_path):
        path = tmp_path / "t.trace"
        original = sample_trace()
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.records == original.records

    def test_geometry_and_metadata_survive(self, tmp_path):
        path = tmp_path / "t.trace"
        original = sample_trace()
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.file_blocks == original.file_blocks
        assert loaded.warmup_records == original.warmup_records
        assert loaded.metadata == original.metadata

    def test_file_is_human_readable(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(sample_trace(), path)
        text = path.read_text()
        assert text.startswith("%REPRO-TRACE v1")
        assert "R 0 3 1 42 8" in text

    def test_unknown_directives_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(sample_trace(), path)
        patched = path.read_text().replace(
            "@files", "#future directive we do not understand\n@files"
        )
        path.write_text(patched)
        assert len(load_trace(path)) == 3


class TestBinaryRoundTrip:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "t.btrace"
        original = sample_trace()
        save_trace(original, path, binary=True)
        loaded = load_trace(path)
        assert loaded.records == original.records
        assert loaded.file_blocks == original.file_blocks
        assert loaded.warmup_records == original.warmup_records
        assert loaded.metadata == original.metadata

    def test_big_trace_round_trips(self, tmp_path):
        records = [
            TraceRecord(TraceOp.READ, 0, i % 8, 0, i % 1000, 1 + i % 7)
            for i in range(5000)
        ]
        trace = Trace(records, [2000])
        bin_path = tmp_path / "t.btrace"
        save_trace(trace, bin_path, binary=True)
        loaded = load_trace(bin_path)
        assert loaded.records == records

    def test_record_size_is_fixed_width(self, tmp_path):
        small = Trace([TraceRecord(TraceOp.READ, 0, 0, 0, 0, 1)], [10])
        big = Trace([TraceRecord(TraceOp.WRITE, 9, 7, 0, 7, 3)], [10])
        small_path, big_path = tmp_path / "s", tmp_path / "b"
        save_trace(small, small_path, binary=True)
        save_trace(big, big_path, binary=True)
        assert small_path.stat().st_size == big_path.stat().st_size

    def test_autodetect_by_magic(self, tmp_path):
        text_path = tmp_path / "a"
        bin_path = tmp_path / "b"
        save_trace(sample_trace(), text_path)
        save_trace(sample_trace(), bin_path, binary=True)
        assert load_trace(text_path).records == load_trace(bin_path).records


@pytest.fixture(scope="module")
def saved_pair(tmp_path_factory):
    """A generated trace saved as text and as binary."""
    trace = generate_trace(
        TraceGenConfig(
            fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
            working_set_bytes=4 * MB,
            n_hosts=2,
            seed=9,
        )
    )
    directory = tmp_path_factory.mktemp("saved")
    text_path, bin_path = directory / "t.trace", directory / "t.btrace"
    save_trace(trace, text_path)
    save_trace(trace, bin_path, binary=True)
    return trace, text_path, bin_path


class TestBinaryIsThePackedTrace:
    def test_load_builds_no_record(self, saved_pair):
        trace, _text_path, bin_path = saved_pair
        assert bin_path.read_bytes() == trace.to_bytes()
        loaded = load_trace(bin_path)
        assert loaded._records is None
        assert loaded.fingerprint == trace.fingerprint

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_replays_like_the_text_file(self, saved_pair, arch):
        _trace, text_path, bin_path = saved_pair
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB, architecture=arch)
        from_text = full_signature(run_simulation(load_trace(text_path), config))
        assert full_signature(run_simulation(load_trace(bin_path), config)) == from_text

    def test_the_row_major_format_is_gone(self, tmp_path):
        # The former ``.btrace`` layout: magic, JSON header, then one
        # ``<BIIIQI>`` per record.
        header = json.dumps(
            {"warmup": 0, "metadata": {}, "file_blocks": [8], "n_records": 1}
        ).encode("utf-8")
        path = tmp_path / "old.btrace"
        path.write_bytes(
            b"RPTRC\x00v1"
            + struct.pack("<I", len(header))
            + header
            + struct.pack("<BIIIQI", 0, 0, 0, 0, 0, 1)
        )
        with pytest.raises(TraceFormatError):
            load_trace(path)
        with pytest.raises(TraceFormatError):
            load_any(path)


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_malformed_record_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("%REPRO-TRACE v1\n@files 10\nR zero 0 0 0 1\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "t.btrace"
        save_trace(sample_trace(), path, binary=True)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_binary_garbage_header(self, tmp_path):
        path = tmp_path / "t.btrace"
        save_trace(sample_trace(), path, binary=True)
        data = bytearray(path.read_bytes())
        data[15] ^= 0xFF  # corrupt the JSON header
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.trace"
        save_trace(Trace([], [5]), path)
        loaded = load_trace(path)
        assert len(loaded) == 0
        assert loaded.file_blocks == [5]
