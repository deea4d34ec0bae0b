"""Tests for the packed columns of a :class:`~repro.traces.records.Trace`.

The contract under test: a trace built from records and one built from
columns hold the same columns, fingerprint and issuer plan; the binary
format round-trips exactly (owning and zero-copy attach alike) and
rejects every malformed header with :class:`TraceFormatError`; loading
checks every row and derives the start column afresh; the fingerprint
is a pure function of trace content; and replay of either build is
**bit-identical** on every architecture and option path.
"""

from __future__ import annotations

import gc
import json
import pickle
import struct
import tracemalloc

import pytest

from repro import CompiledTrace, compile_trace, run_simulation
from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.errors import TraceFormatError
from repro.experiments.common import DEFAULT_SCALE, baseline_config
from repro.fsmodel.impressions import ImpressionsConfig
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.format import load_trace
from repro.traces.records import COMPILED_MAGIC, Trace, TraceOp, TraceRecord
from repro.validation.differential import full_signature, result_signature

from tests.helpers import make_trace, tiny_config


@pytest.fixture(scope="module")
def gen_trace():
    """A multi-host, multi-thread trace with a warmup prefix, built
    from columns."""
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
        working_set_bytes=4 * MB,
        n_hosts=2,
        threads_per_host=2,
        seed=11,
    )
    return generate_trace(config)


@pytest.fixture(scope="module")
def gen_records(gen_trace):
    """The same trace built from its records."""
    return Trace(
        gen_trace.records, gen_trace.file_blocks, gen_trace.warmup_records, gen_trace.metadata
    )


def micro_trace(warmup: int = 0) -> Trace:
    return make_trace(
        [("w", 0), ("r", 0), ("w", 5, 1), ("r", 5, 1), ("r", 3)],
        file_blocks=64,
        warmup=warmup,
    )


def all_columns(trace: Trace):
    return [list(column) for column in trace.row_columns() + (trace.start_blocks,)]


def plan_rows(trace: Trace):
    return [
        (host, thread, list(warm), list(measured))
        for host, thread, warm, measured in trace.issuer_plan()
    ]


class TestCompile:
    def test_columns_match_records(self, gen_trace, gen_records):
        ct = gen_records
        assert ct._records is not None
        assert len(ct) == len(gen_trace)
        assert ct.hosts() == gen_trace.hosts()
        bases = [0]
        for blocks in gen_trace.file_blocks[:-1]:
            bases.append(bases[-1] + blocks)
        for i, record in enumerate(gen_trace.records):
            assert ct.ops[i] == (1 if record.op is TraceOp.WRITE else 0)
            assert ct.hosts_col[i] == record.host
            assert ct.threads_col[i] == record.thread
            assert ct.file_ids[i] == record.file_id
            assert ct.offsets[i] == record.offset
            assert ct.nblocks[i] == record.nblocks
            assert ct.start_blocks[i] == bases[record.file_id] + record.offset

    def test_records_and_columns_build_the_same_trace(self, gen_trace, gen_records):
        assert gen_records.fingerprint == gen_trace.fingerprint
        assert all_columns(gen_records) == all_columns(gen_trace)
        assert plan_rows(gen_records) == plan_rows(gen_trace)
        assert gen_records.warmup_records == gen_trace.warmup_records
        assert gen_records.file_blocks == gen_trace.file_blocks
        assert gen_records.metadata == gen_trace.metadata

    def test_compile_of_compiled_is_identity(self, gen_trace, gen_records):
        assert CompiledTrace is Trace
        assert compile_trace(gen_trace) is gen_trace
        assert compile_trace(gen_records) is gen_records

    def test_total_file_blocks(self, gen_trace):
        assert gen_trace.total_file_blocks == sum(gen_trace.file_blocks)

    def test_warmup_blocks(self, gen_trace):
        expected = sum(
            record.nblocks for record in gen_trace.records[: gen_trace.warmup_records]
        )
        assert gen_trace.warmup_blocks() == expected

    def test_oversized_field_is_a_format_error(self):
        # a host id past the 32-bit column fails when the trace is built
        with pytest.raises(TraceFormatError, match="too large"):
            Trace([TraceRecord(TraceOp.READ, 2**40, 0, 0, 0, 1)], [64])

    def test_records_are_built_on_first_read(self, gen_trace):
        clone = Trace.from_columns(
            *gen_trace.row_columns(), gen_trace.file_blocks, gen_trace.warmup_records
        )
        assert clone._records is None
        assert clone.records == gen_trace.records
        assert clone.records is clone.records


class TestWithoutWarmup:
    def test_no_warmup_returns_self(self):
        ct = micro_trace(warmup=0)
        assert ct.without_warmup() is ct

    def test_warmup_stripped(self):
        trace = micro_trace(warmup=2)
        stripped = trace.without_warmup()
        assert stripped.warmup_records == 0
        assert len(stripped) == len(trace) - 2
        assert list(stripped.ops) == list(trace.ops[2:])
        assert list(stripped.start_blocks) == list(trace.start_blocks[2:])
        assert stripped.records == trace.records[2:]

    def test_trace_without_warmup_no_copy(self):
        trace = micro_trace(warmup=0)
        assert trace.without_warmup() is trace


class TestFingerprint:
    def test_stable_across_pickle(self, gen_trace, gen_records):
        for trace in (gen_trace, gen_records):
            clone = pickle.loads(pickle.dumps(trace))
            assert clone.fingerprint == gen_trace.fingerprint

    def test_content_sensitivity(self):
        base = micro_trace().fingerprint
        flipped = make_trace(
            [("r", 0), ("r", 0), ("w", 5, 1), ("r", 5, 1), ("r", 3)], file_blocks=64
        )
        assert flipped.fingerprint != base
        warmed = micro_trace(warmup=1)
        assert warmed.fingerprint != base

    def test_survives_wire_round_trip(self, gen_trace):
        clone = Trace.from_bytes(gen_trace.to_bytes())
        assert clone.fingerprint == gen_trace.fingerprint
        assert list(clone.start_blocks) == list(gen_trace.start_blocks)


class TestWireFormat:
    def test_from_bytes_round_trip(self, gen_trace):
        clone = Trace.from_bytes(gen_trace.to_bytes())
        assert all_columns(clone) == all_columns(gen_trace)
        assert clone.file_blocks == gen_trace.file_blocks
        assert clone.warmup_records == gen_trace.warmup_records
        assert clone.metadata == gen_trace.metadata
        assert clone._records is None

    def test_from_buffer_is_zero_copy(self, gen_trace):
        blob = gen_trace.to_bytes()
        attached = Trace.from_buffer(blob)
        try:
            assert isinstance(attached.ops, memoryview)
            assert attached.fingerprint == gen_trace.fingerprint
            assert list(attached.nblocks) == list(gen_trace.nblocks)
        finally:
            attached.release()

    def test_release_allows_reuse_of_buffer(self, gen_trace):
        blob = bytearray(gen_trace.to_bytes())
        attached = Trace.from_buffer(blob)
        attached.release()
        # Releasing dropped every exported pointer: mutating the backing
        # buffer must not raise.
        blob[len(blob) - 1] = 0

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            Trace.from_buffer(b"NOTATRACEBLOB\x00\x00\x00" * 4)

    def test_truncated_blob(self, gen_trace):
        blob = gen_trace.to_bytes()
        with pytest.raises(TraceFormatError, match="truncated"):
            Trace.from_bytes(blob[: len(blob) - 8])

    def test_corrupt_header(self, gen_trace):
        blob = bytearray(gen_trace.to_bytes())
        # Smash the JSON header, keeping magic and length intact.
        start = len(COMPILED_MAGIC) + 4
        blob[start : start + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(TraceFormatError):
            Trace.from_buffer(bytes(blob))

    def test_pickle_round_trip(self, gen_trace):
        clone = pickle.loads(pickle.dumps(gen_trace))
        assert clone.fingerprint == gen_trace.fingerprint
        assert list(clone.start_blocks) == list(gen_trace.start_blocks)

    def test_record_built_trace_pickles_through_the_wire_format(self, gen_records):
        assert gen_records.__reduce__() == (Trace.from_bytes, (gen_records.to_bytes(),))
        payload = pickle.dumps(gen_records)
        assert COMPILED_MAGIC in payload
        clone = pickle.loads(payload)
        assert clone._records is None
        assert clone.fingerprint == gen_records.fingerprint
        assert clone.records == gen_records.records


# --- the binary header and the load path's row checks ----------------------


def split_blob(blob: bytes):
    """``(header, body)`` of a binary trace."""
    cursor = len(COMPILED_MAGIC)
    (header_len,) = struct.unpack_from("<I", blob, cursor)
    cursor += 4
    header = json.loads(blob[cursor : cursor + header_len])
    cursor += header_len
    cursor += (-cursor) % 8
    return header, bytearray(blob[cursor:])


def join_blob(header, body) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    head = COMPILED_MAGIC + struct.pack("<I", len(raw)) + raw
    return head + b"\x00" * ((-len(head)) % 8) + bytes(body)


def edited(blob: bytes, edit) -> bytes:
    header, body = split_blob(blob)
    edit(header, body)
    return join_blob(header, body)


def _column(header, name):
    return next(entry for entry in header["columns"] if entry[0] == name)


def _drop(key):
    return lambda header, body: header.pop(key)


def _ops_as(entry):
    def edit(header, body):
        header["columns"][0] = entry
    return edit


def _short_hosts(header, body):
    _column(header, "hosts")[3] = 3


def _ops_before_the_body(header, body):
    _column(header, "ops")[2] = -8


def _duplicated_column(header, body):
    header["columns"].append(list(header["columns"][0]))


#: Malformed headers of a 2-record blob; each must raise TraceFormatError.
BAD_HEADERS = {
    "no-warmup": _drop("warmup"),
    "no-columns": _drop("columns"),
    "no-n_records": _drop("n_records"),
    "short-column-entry": _ops_as(["ops", "B"]),
    "column-at-an-unknown-typecode": _ops_as(["ops", "Q", 0, 16]),
    "unknown-column": _ops_as(["sizes", "B", 0, 2]),
    "three-byte-hosts-column": _short_hosts,
    "ops-at-offset-minus-8": _ops_before_the_body,
    "duplicated-column": _duplicated_column,
}


def two_record_blob() -> bytes:
    return make_trace([("w", 0), ("r", 1)], file_blocks=16).to_bytes()


def bad_blobs():
    """Every malformed blob, by name."""
    blobs = {name: edited(two_record_blob(), edit) for name, edit in BAD_HEADERS.items()}
    blobs["cut-after-magic-plus-one-byte"] = two_record_blob()[: len(COMPILED_MAGIC) + 1]
    blobs["header-not-an-object"] = COMPILED_MAGIC + struct.pack("<I", 2) + b"[]"
    return blobs


@pytest.mark.parametrize("via", ["from_buffer", "load_trace"])
@pytest.mark.parametrize("name", sorted(bad_blobs()))
def test_a_malformed_header_is_a_format_error(name, via, tmp_path):
    blob = bad_blobs()[name]
    if via == "from_buffer":
        with pytest.raises(TraceFormatError):
            Trace.from_buffer(blob)
    else:
        path = tmp_path / "t.btrace"
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError):
            load_trace(path)


@pytest.fixture(scope="module")
def blob_trace():
    """200 rows of a generated trace."""
    trace = generate_trace(
        TraceGenConfig(
            fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
            working_set_bytes=4 * MB,
            seed=3,
        )
    )
    return Trace.from_columns(
        *(column[:200] for column in trace.row_columns()), trace.file_blocks, 0, trace.metadata
    )


def _zero_starts(header, body):
    _name, _typecode, offset, length = _column(header, "start_blocks")
    body[offset : offset + length] = bytes(length)


def _load(blob: bytes, via: str, tmp_path) -> Trace:
    if via == "from_bytes":
        return Trace.from_bytes(blob)
    path = tmp_path / "t.btrace"
    path.write_bytes(blob)
    return load_trace(path)


class TestLoadChecksRows:
    @pytest.mark.parametrize("via", ["from_bytes", "load_trace"])
    def test_a_zeroed_start_column_is_derived_again(self, blob_trace, via, tmp_path):
        loaded = _load(edited(blob_trace.to_bytes(), _zero_starts), via, tmp_path)
        assert loaded.fingerprint == blob_trace.fingerprint
        assert list(loaded.start_blocks) == list(blob_trace.start_blocks)
        config = baseline_config(scale=DEFAULT_SCALE)
        assert full_signature(run_simulation(loaded, config)) == full_signature(
            run_simulation(blob_trace, config)
        )

    @pytest.mark.parametrize("via", ["from_bytes", "load_trace"])
    def test_a_geometry_the_rows_overrun_is_a_format_error(self, blob_trace, via, tmp_path):
        def shrink(header, body):
            header["file_blocks"] = [0]

        with pytest.raises(TraceFormatError):
            _load(edited(blob_trace.to_bytes(), shrink), via, tmp_path)


class TestIssuerPlan:
    def test_matches_split_by_issuer(self, gen_trace):
        plan = gen_trace.issuer_plan()
        split = gen_trace.split_by_issuer()
        assert [(h, t) for h, t, _, _ in plan] == sorted(split)
        bases = [0]
        for blocks in gen_trace.file_blocks[:-1]:
            bases.append(bases[-1] + blocks)
        warmup = gen_trace.warmup_records
        for host, thread, warm_rows, measured_rows in plan:
            entries = split[(host, thread)]
            rows = list(warm_rows) + list(measured_rows)
            assert len(rows) == len(entries)
            for position, ((op, start, nb), (index, record)) in enumerate(
                zip(rows, entries)
            ):
                assert op == (1 if record.op is TraceOp.WRITE else 0)
                assert start == bases[record.file_id] + record.offset
                assert nb == record.nblocks
                assert (position < len(warm_rows)) == (index < warmup)

    def test_warmup_split_boundary(self):
        trace = make_trace(
            [("w", 0), ("w", 1, 1), ("r", 0), ("r", 1, 1)], file_blocks=64, warmup=2
        )
        for _host, _thread, warm_rows, measured_rows in trace.issuer_plan():
            assert len(warm_rows) == 1
            assert len(measured_rows) == 1

    def test_memoized(self, gen_trace):
        assert gen_trace.issuer_plan() is gen_trace.issuer_plan()

    def test_plan_memory_per_row(self):
        """The plan packs each row into 13 bytes of typed columns; a
        list of ``(op, start, nblocks)`` tuples took about 100 bytes."""
        trace = generate_trace(
            TraceGenConfig(
                fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
                working_set_bytes=4 * MB,
                n_hosts=2,
                threads_per_host=2,
                volume_multiple=192.0,
                seed=11,
            )
        )
        rows = len(trace)
        assert rows >= 50_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = trace.issuer_plan()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(w) + len(m) for _h, _t, w, m in plan) == rows
        assert (after - before) / rows <= 16
        # Building it holds at most one 8-byte index per row on top.
        assert (peak - before) / rows <= 32

    def test_plan_outlives_release(self, gen_trace):
        """A plan built on an attached trace owns its rows: the segment
        can be released and even cleared, and the rows still iterate."""
        expected = plan_rows(gen_trace)
        blob = bytearray(gen_trace.to_bytes())
        attached = Trace.from_buffer(blob)
        plan = attached.issuer_plan()
        attached.release()
        # Resizing raises BufferError while any view into blob is alive.
        del blob[:]
        assert [
            (host, thread, list(warm), list(measured))
            for host, thread, warm, measured in plan
        ] == expected


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_architectures(self, gen_trace, gen_records, arch):
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB, architecture=arch)
        expected = result_signature(run_simulation(gen_records, config))
        actual = result_signature(run_simulation(gen_trace, config))
        assert actual == expected

    def test_cold_start(self, gen_trace, gen_records):
        config = tiny_config()
        expected = run_simulation(gen_records, config, cold_start=True)
        actual = run_simulation(gen_trace, config, cold_start=True)
        assert result_signature(actual) == result_signature(expected)

    def test_generic_paths_match(self, gen_trace, gen_records):
        """Invariant checking and timelines route the replay through the
        generic measured loop — still bit-identical."""
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        plain = result_signature(run_simulation(gen_trace, config))
        checked = result_signature(
            run_simulation(gen_trace, config, check_invariants=True)
        )
        timed = run_simulation(gen_trace, config, timeline_bucket_ns=10_000_000)
        assert checked == plain
        assert result_signature(timed) == plain
        assert result_signature(run_simulation(gen_records, config)) == plain

    def test_micro_trace_counts(self):
        trace = micro_trace(warmup=2)
        config = tiny_config()
        packed = run_simulation(trace, config)
        rebuilt = Trace.from_columns(*trace.row_columns(), trace.file_blocks, 2)
        assert result_signature(run_simulation(rebuilt, config)) == result_signature(packed)
        assert packed.read_latency.count == 2
        assert packed.write_latency.count == 1


class TestAutoCompile:
    def test_replay_compiles_a_plain_trace_once(self, gen_records):
        # A record-built trace is packed when it is built: replays read
        # its columns and share one memoized plan.  check_invariants=
        # False: this multi-host trace ends inside an async-writeback
        # window where the end-of-run placement invariant does not hold.
        trace = Trace(gen_records.records, gen_records.file_blocks, gen_records.warmup_records)
        config = tiny_config()
        first = run_simulation(trace, config, check_invariants=False)
        plan = trace.issuer_plan()
        second = run_simulation(trace, config, check_invariants=False)
        assert trace.issuer_plan() is plan
        assert result_signature(first) == result_signature(second)
