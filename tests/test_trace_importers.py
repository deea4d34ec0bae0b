"""Tests for the foreign-trace importers."""

import pytest

from repro.errors import TraceFormatError
from repro.traces.format import save_trace
from repro.traces.importers import (
    import_blkparse,
    import_blkparse_chunked,
    import_msr_csv,
    import_msr_csv_chunked,
    import_spc,
    import_spc_chunked,
    load_any,
    load_any_chunked,
)
from repro.traces.importers.base import StreamingTraceBuilder, TraceBuilder
from repro.traces.importers.detect import detect_format
from repro.traces.records import Trace, TraceOp, TraceRecord

MSR_SAMPLE = """\
128166372003061629,usr,0,Read,7014609920,24576,41286
128166372016382155,usr,0,Write,2517696512,4096,73610
128166372026382245,src1,1,Read,1000,8192,11111
not,a,valid,line
128166372026382245,src1,1,Flush,1000,8192,11111
"""

BLKPARSE_SAMPLE = """\
  8,0    1        1     0.000000000  4510  Q   R 1953128 + 8 [fio]
  8,0    1        2     0.000123456  4510  C   R 1953128 + 8 [fio]
  8,0    2        3     0.000223456  4511  C   W 2048 + 16 [postgres]
  8,0    2        4     0.000323456  4511  C   N 0 + 0 [postgres]
garbage line that does not parse
  8,16   3        5     0.000423456  4512  C   R 4096 + 8 [fio]
"""

SPC_SAMPLE = """\
0,20941264,8192,W,0.000000
0,20939840,8192,W,0.026214
1,3436288,15872,r,0.112264
2,100,512,X,0.2
"""


@pytest.fixture
def msr_file(tmp_path):
    path = tmp_path / "msr.csv"
    path.write_text(MSR_SAMPLE)
    return path


@pytest.fixture
def blkparse_file(tmp_path):
    path = tmp_path / "trace.blkparse"
    path.write_text(BLKPARSE_SAMPLE)
    return path


@pytest.fixture
def spc_file(tmp_path):
    path = tmp_path / "trace.spc"
    path.write_text(SPC_SAMPLE)
    return path


class TestMsrImporter:
    def test_counts(self, msr_file):
        trace, stats = import_msr_csv(msr_file)
        assert stats.records_imported == 3
        assert stats.lines_skipped == 2  # bad line + Flush
        assert len(trace) == 3

    def test_ops_and_extents(self, msr_file):
        trace, _stats = import_msr_csv(msr_file)
        first = trace.records[0]
        assert first.op is TraceOp.READ
        assert first.offset == 7014609920 // 4096
        # 24576 bytes = 6 blocks, but the byte offset is unaligned, so
        # the extent touches 7 blocks.
        assert first.nblocks == 7

    def test_hosts_mapped(self, msr_file):
        trace, _stats = import_msr_csv(msr_file)
        assert trace.hosts() == [0, 1]  # usr, src1

    def test_single_host_fold(self, msr_file):
        trace, _stats = import_msr_csv(msr_file, single_host=True)
        assert trace.hosts() == [0]

    def test_warmup_fraction(self, msr_file):
        trace, _stats = import_msr_csv(msr_file, warmup_fraction=0.5)
        assert trace.warmup_records == 1  # floor(3 * 0.5)

    def test_geometry_covers_extents(self, msr_file):
        trace, _stats = import_msr_csv(msr_file)
        for record in trace.records:
            assert record.offset + record.nblocks <= trace.file_blocks[record.file_id]


class TestBlkparseImporter:
    def test_only_completions_kept(self, blkparse_file):
        trace, stats = import_blkparse(blkparse_file)
        assert len(trace) == 3  # the Q, N, and garbage lines are skipped
        assert stats.skip_reasons["other action"] == 1

    def test_sector_to_block_conversion(self, blkparse_file):
        trace, _stats = import_blkparse(blkparse_file)
        first = trace.records[0]
        # sector 1953128 * 512 bytes / 4096 = block 244141
        assert first.offset == 1953128 * 512 // 4096
        assert first.nblocks == 1  # 8 sectors = 4 KB

    def test_devices_become_files(self, blkparse_file):
        trace, _stats = import_blkparse(blkparse_file)
        assert len(trace.file_blocks) == 2  # 8,0 and 8,16

    def test_write_detection(self, blkparse_file):
        trace, _stats = import_blkparse(blkparse_file)
        assert [r.op.value for r in trace.records] == ["R", "W", "R"]

    def test_queue_events_selectable(self, blkparse_file):
        trace, _stats = import_blkparse(blkparse_file, action="Q")
        assert len(trace) == 1


class TestSpcImporter:
    def test_counts_and_ops(self, spc_file):
        trace, stats = import_spc(spc_file)
        assert len(trace) == 3
        assert stats.skip_reasons["unknown opcode 'X'"] == 1
        assert [r.op.value for r in trace.records] == ["W", "W", "R"]

    def test_asu_becomes_file_and_thread(self, spc_file):
        trace, _stats = import_spc(spc_file)
        assert len(trace.file_blocks) == 2  # ASU 0 and 1
        assert trace.records[2].file_id == 1

    def test_lba_is_sectors(self, spc_file):
        trace, _stats = import_spc(spc_file)
        assert trace.records[0].offset == 20941264 * 512 // 4096


class TestDetect:
    def test_detects_each_format(self, msr_file, blkparse_file, spc_file):
        assert detect_format(msr_file) == "msr"
        assert detect_format(blkparse_file) == "blkparse"
        assert detect_format(spc_file) == "spc"

    def test_detects_native(self, tmp_path):
        path = tmp_path / "native.trace"
        save_trace(Trace([TraceRecord(TraceOp.READ, 0, 0, 0, 0, 1)], [8]), path)
        assert detect_format(path) == "native"
        bin_path = tmp_path / "native.btrace"
        save_trace(Trace([], [8]), bin_path, binary=True)
        assert detect_format(bin_path) == "native"

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "mystery.txt"
        path.write_text("hello world\nthis is not a trace\n")
        with pytest.raises(TraceFormatError):
            detect_format(path)

    def test_load_any_round_trips(self, msr_file, spc_file):
        trace, stats = load_any(msr_file)
        assert len(trace) == 3
        assert stats is not None
        trace2, _ = load_any(spc_file)
        assert len(trace2) == 3

    def test_load_any_native_has_no_stats(self, tmp_path):
        path = tmp_path / "native.trace"
        save_trace(Trace([TraceRecord(TraceOp.READ, 0, 0, 0, 0, 1)], [8]), path)
        trace, stats = load_any(path)
        assert stats is None
        assert len(trace) == 1


class TestBuilder:
    def test_rejects_negative_extent(self):
        builder = TraceBuilder()
        assert not builder.add_bytes_extent(False, 0, 0, "d", -1, 4096)
        assert not builder.add_bytes_extent(False, 0, 0, "d", 0, 0)

    def test_partial_block_rounds_out(self):
        builder = TraceBuilder()
        builder.add_bytes_extent(False, 0, 0, "d", 100, 200)  # within block 0
        trace = builder.build()
        assert trace.records[0].offset == 0
        assert trace.records[0].nblocks == 1

    def test_extent_spanning_blocks(self):
        builder = TraceBuilder()
        builder.add_bytes_extent(False, 0, 0, "d", 4000, 200)  # crosses 4096
        trace = builder.build()
        assert trace.records[0].nblocks == 2

    def test_imported_trace_replays(self, tmp_path):
        """End to end: import a foreign trace and run the simulator."""
        from repro.core.simulator import run_simulation
        from tests.helpers import tiny_config

        path = tmp_path / "msr.csv"
        path.write_text(MSR_SAMPLE)
        trace, _stats = import_msr_csv(path, single_host=True)
        results = run_simulation(trace, tiny_config())
        assert results.read_latency.count + results.write_latency.count == sum(
            r.nblocks for r in trace.records
        )


class TestAccountingInvariant:
    """Every importer must satisfy ``records_imported + lines_skipped ==
    lines_total`` at build time; a parser that drops a line without
    accounting for it now raises instead of silently shrinking the
    trace."""

    def test_consistent_imports_pass(self, msr_file, blkparse_file, spc_file):
        for importer, path in (
            (import_msr_csv, msr_file),
            (import_blkparse, blkparse_file),
            (import_spc, spc_file),
        ):
            _trace, stats = importer(path)
            assert stats.lines_total > 0
            assert stats.records_imported + stats.lines_skipped == stats.lines_total

    def test_deliberate_drift_raises(self):
        builder = TraceBuilder()
        builder.stats.lines_total = 5  # parser claims 5 lines read...
        builder.add_bytes_extent(False, 0, 0, "d", 0, 4096)  # ...1 imported
        builder.stats.skip("bad")  # ...1 skipped; 3 unaccounted
        with pytest.raises(TraceFormatError, match="accounting drift"):
            builder.build()

    def test_streaming_builder_drift_raises(self):
        builder = StreamingTraceBuilder()
        builder.stats.lines_total = 3
        builder.add_bytes_extent(False, 0, 0, "d", 0, 4096)
        with pytest.raises(TraceFormatError, match="accounting drift"):
            builder.build()
        builder.abort()

    def test_direct_builder_use_unaffected(self):
        # TraceBuilder used programmatically (lines_total never set)
        # must keep working — the invariant only applies to line-fed
        # imports.
        builder = TraceBuilder()
        builder.add_bytes_extent(False, 0, 0, "d", 0, 4096)
        assert len(builder.build()) == 1


class TestChunkedImporters:
    """The streaming ``*_chunked`` importers must be record-for-record
    and stats-for-stats identical to the materialized ones — including
    on inputs that exercise the skip paths."""

    @pytest.mark.parametrize(
        "plain,chunked",
        [
            (import_msr_csv, import_msr_csv_chunked),
            (import_blkparse, import_blkparse_chunked),
            (import_spc, import_spc_chunked),
        ],
        ids=["msr", "blkparse", "spc"],
    )
    def test_parity_with_materialized(self, plain, chunked, msr_file,
                                      blkparse_file, spc_file):
        path = {
            import_msr_csv: msr_file,
            import_blkparse: blkparse_file,
            import_spc: spc_file,
        }[plain]
        trace, stats = plain(path, warmup_fraction=0.4)
        streamed, streamed_stats = chunked(path, warmup_fraction=0.4)
        try:
            assert streamed.fingerprint == trace.fingerprint
            rows = [
                (1 if r.is_write else 0, r.host, r.thread, r.file_id,
                 r.offset, r.nblocks)
                for r in trace.records
            ]
            assert rows == list(streamed.iter_records())
            assert streamed.warmup_records == trace.warmup_records
            assert streamed.file_blocks == trace.file_blocks
            assert streamed_stats.records_imported == stats.records_imported
            assert streamed_stats.lines_skipped == stats.lines_skipped
            assert streamed_stats.lines_total == stats.lines_total
            assert stats.lines_skipped > 0  # skip paths exercised
        finally:
            streamed.delete()

    def test_chunked_import_replays(self, msr_file):
        from repro.core.simulator import run_simulation
        from repro.validation.differential import full_signature
        from tests.helpers import tiny_config

        trace, _ = import_msr_csv(msr_file, single_host=True)
        streamed, _ = import_msr_csv_chunked(msr_file, single_host=True)
        try:
            assert full_signature(
                run_simulation(trace, tiny_config())
            ) == full_signature(run_simulation(streamed, tiny_config()))
        finally:
            streamed.delete()

    def test_explicit_spool_dir(self, msr_file, tmp_path):
        spool = tmp_path / "spool"
        streamed, _ = import_msr_csv_chunked(msr_file, spool_dir=spool)
        assert spool.is_dir()
        streamed.close()
        # Explicit spools are owned by the caller: close() keeps them.
        assert (spool / "manifest.json").exists()

    def test_load_any_chunked_foreign_and_native(self, msr_file, tmp_path):
        streamed, stats = load_any_chunked(msr_file)
        trace, _ = load_any(msr_file)
        try:
            assert stats is not None
            assert streamed.fingerprint == trace.fingerprint
        finally:
            streamed.delete()
        native = tmp_path / "native.trace"
        save_trace(Trace([TraceRecord(TraceOp.READ, 0, 0, 0, 0, 1)], [8]), native)
        loaded, native_stats = load_any_chunked(native)
        assert native_stats is None
        assert len(loaded) == 1


class TestDetectStrictDecoding:
    """Regression tests for detect_format's decode handling: before the
    fix, a lenient errors="replace" decode let binary garbage
    masquerade as text and *mis*detect as a text trace format."""

    def test_binary_garbage_resembling_spc_raises(self, tmp_path):
        # Invalid UTF-8 bytes whose replacement-decoded text matches the
        # SPC line shape: pre-fix this "detected" as spc.
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"1,100,4096,r,0.1\xff\xfe\n" * 8)
        with pytest.raises(TraceFormatError, match="UTF-8"):
            detect_format(path)

    def test_binary_garbage_resembling_msr_raises(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_bytes(b"128166372003061629,usr\x80,0,Read,7014609920,24576\n" * 8)
        with pytest.raises(TraceFormatError, match="UTF-8"):
            detect_format(path)

    def test_utf8_split_at_window_boundary_still_detects(self, tmp_path):
        # 4096-byte sniff window splitting a multi-byte character must
        # not reject an otherwise valid file.
        line = "0,20941264,8192,W,0.000000\n"
        body = line * ((4094 // len(line)) + 1)
        payload = body.encode("utf-8")[: 4096 - 1] + "é".encode("utf-8")
        assert payload[:4096] != payload  # char straddles the boundary
        path = tmp_path / "boundary.spc"
        path.write_bytes(payload + b"\n" + line.encode("utf-8") * 4)
        assert detect_format(path) == "spc"

    def test_error_names_the_bad_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"abc\xffdef")
        with pytest.raises(TraceFormatError, match="offset 3"):
            detect_format(path)


class TestMalformedHeaders:
    """A foreign trace whose first line is a stray header must still
    detect and import (the header is skipped, counted in stats)."""

    def test_msr_with_header_line(self, tmp_path):
        body = "\n".join(
            line for line in MSR_SAMPLE.splitlines()
            if line.split(",")[3].strip().lower() in ("read", "write")
        )
        path = tmp_path / "hdr.csv"
        path.write_text("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"
                        + body + "\n")
        assert detect_format(path) == "msr"
        trace, stats = load_any(path)
        assert len(trace) == 3
        assert stats.lines_skipped >= 1

    def test_blkparse_with_header_line(self, tmp_path):
        path = tmp_path / "hdr.blkparse"
        path.write_text("# blktrace output for sda, CPU 0\n" + BLKPARSE_SAMPLE)
        assert detect_format(path) == "blkparse"
        trace, stats = load_any(path)
        assert len(trace) == 3

    def test_spc_with_header_line(self, tmp_path):
        path = tmp_path / "hdr.spc"
        path.write_text("ASU,LBA,Size,Opcode,Timestamp\n" + SPC_SAMPLE)
        assert detect_format(path) == "spc"
        trace, stats = load_any(path)
        assert len(trace) == 3
