"""Tests for the packed columnar trace form (``repro.traces.compiled``).

The contract under test: compilation is content-preserving, the wire
format round-trips exactly (owning and zero-copy attach alike), the
fingerprint is a pure function of trace content, and replay over a
compiled trace is **bit-identical** to replay over the object form on
every architecture and option path.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from repro import CompiledTrace, compile_trace, run_simulation
from repro._units import MB
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.errors import TraceFormatError
from repro.fsmodel.impressions import ImpressionsConfig
from repro.tracegen.config import TraceGenConfig
from repro.tracegen.generator import generate_trace
from repro.traces.compiled import COMPILED_MAGIC
from repro.traces.records import Trace, TraceOp
from repro.validation.differential import result_signature

from tests.helpers import make_trace, tiny_config


@pytest.fixture(scope="module")
def gen_trace():
    """A multi-host, multi-thread trace with a warmup prefix."""
    config = TraceGenConfig(
        fs=ImpressionsConfig(total_bytes=48 * MB, max_file_bytes=4 * MB),
        working_set_bytes=4 * MB,
        n_hosts=2,
        threads_per_host=2,
        seed=11,
    )
    return generate_trace(config)


@pytest.fixture(scope="module")
def gen_compiled(gen_trace):
    return compile_trace(gen_trace)


def micro_trace(warmup: int = 0) -> Trace:
    return make_trace(
        [("w", 0), ("r", 0), ("w", 5, 1), ("r", 5, 1), ("r", 3)],
        file_blocks=64,
        warmup=warmup,
    )


class TestCompile:
    def test_columns_match_records(self, gen_trace, gen_compiled):
        ct = gen_compiled
        assert len(ct) == len(gen_trace)
        assert ct.warmup_records == gen_trace.warmup_records
        assert ct.file_blocks == list(gen_trace.file_blocks)
        assert ct.metadata == gen_trace.metadata
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

    def test_compile_is_memoized_per_trace(self, gen_trace):
        assert compile_trace(gen_trace) is compile_trace(gen_trace)

    def test_compile_of_compiled_is_identity(self, gen_compiled):
        assert compile_trace(gen_compiled) is gen_compiled

    def test_total_file_blocks(self, gen_trace, gen_compiled):
        assert gen_compiled.total_file_blocks == gen_trace.total_file_blocks

    def test_warmup_blocks(self, gen_trace, gen_compiled):
        expected = sum(
            record.nblocks for record in gen_trace.records[: gen_trace.warmup_records]
        )
        assert gen_compiled.warmup_blocks() == expected

    def test_oversized_field_is_a_format_error(self):
        trace = make_trace([("r", 0)], file_blocks=64)
        trace.records[0] = trace.records[0].__class__(
            TraceOp.READ, 2**40, 0, 0, 0, 1
        )
        with pytest.raises(TraceFormatError):
            compile_trace(trace)

    def test_to_trace_round_trip(self, gen_trace, gen_compiled):
        back = gen_compiled.to_trace()
        assert back.records == gen_trace.records
        assert list(back.file_blocks) == list(gen_trace.file_blocks)
        assert back.warmup_records == gen_trace.warmup_records
        assert back.metadata == gen_trace.metadata


class TestWithoutWarmup:
    def test_no_warmup_returns_self(self):
        ct = compile_trace(micro_trace(warmup=0))
        assert ct.without_warmup() is ct

    def test_warmup_stripped(self):
        trace = micro_trace(warmup=2)
        stripped = compile_trace(trace).without_warmup()
        assert stripped.warmup_records == 0
        assert len(stripped) == len(trace) - 2
        assert list(stripped.ops) == list(compile_trace(trace).ops[2:])
        assert list(stripped.start_blocks) == list(
            compile_trace(trace).start_blocks[2:]
        )

    def test_trace_without_warmup_no_copy(self):
        trace = micro_trace(warmup=0)
        assert trace.without_warmup() is trace


class TestFingerprint:
    def test_stable_across_pickle(self, gen_trace, gen_compiled):
        clone = pickle.loads(pickle.dumps(gen_trace))
        clone.__dict__.pop("_compiled_trace", None)
        assert compile_trace(clone).fingerprint == gen_compiled.fingerprint

    def test_content_sensitivity(self):
        base = compile_trace(micro_trace()).fingerprint
        flipped = make_trace(
            [("r", 0), ("r", 0), ("w", 5, 1), ("r", 5, 1), ("r", 3)], file_blocks=64
        )
        assert compile_trace(flipped).fingerprint != base
        warmed = micro_trace(warmup=1)
        assert compile_trace(warmed).fingerprint != base

    def test_survives_wire_round_trip(self, gen_compiled):
        clone = CompiledTrace.from_bytes(gen_compiled.to_bytes())
        assert clone.fingerprint == gen_compiled.fingerprint
        assert clone == gen_compiled


class TestWireFormat:
    def test_from_bytes_round_trip(self, gen_compiled):
        clone = CompiledTrace.from_bytes(gen_compiled.to_bytes())
        for col in ("ops", "hosts", "threads", "file_ids", "offsets", "nblocks",
                    "start_blocks"):
            assert list(clone._column(col)) == list(gen_compiled._column(col))
        assert clone.file_blocks == gen_compiled.file_blocks
        assert clone.warmup_records == gen_compiled.warmup_records
        assert clone.metadata == gen_compiled.metadata

    def test_from_buffer_is_zero_copy(self, gen_compiled):
        blob = gen_compiled.to_bytes()
        attached = CompiledTrace.from_buffer(blob)
        try:
            assert isinstance(attached.ops, memoryview)
            assert attached.fingerprint == gen_compiled.fingerprint
            assert list(attached.nblocks) == list(gen_compiled.nblocks)
        finally:
            attached.release()

    def test_release_allows_reuse_of_buffer(self, gen_compiled):
        blob = bytearray(gen_compiled.to_bytes())
        attached = CompiledTrace.from_buffer(blob)
        attached.release()
        # Releasing dropped every exported pointer: mutating the backing
        # buffer must not raise.
        blob[len(blob) - 1] = 0

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            CompiledTrace.from_buffer(b"NOTATRACEBLOB\x00\x00\x00" * 4)

    def test_truncated_blob(self, gen_compiled):
        blob = gen_compiled.to_bytes()
        with pytest.raises(TraceFormatError, match="truncated"):
            CompiledTrace.from_bytes(blob[: len(blob) - 8])

    def test_corrupt_header(self, gen_compiled):
        blob = bytearray(gen_compiled.to_bytes())
        # Smash the JSON header, keeping magic and length intact.
        start = len(COMPILED_MAGIC) + 4
        blob[start : start + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(TraceFormatError):
            CompiledTrace.from_buffer(bytes(blob))

    def test_pickle_round_trip(self, gen_compiled):
        clone = pickle.loads(pickle.dumps(gen_compiled))
        assert clone.fingerprint == gen_compiled.fingerprint
        assert list(clone.start_blocks) == list(gen_compiled.start_blocks)


class TestIssuerPlan:
    def test_matches_split_by_issuer(self, gen_trace, gen_compiled):
        plan = gen_compiled.issuer_plan()
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
        plan = compile_trace(trace).issuer_plan()
        for _host, _thread, warm_rows, measured_rows in plan:
            assert len(warm_rows) == 1
            assert len(measured_rows) == 1

    def test_memoized(self, gen_compiled):
        assert gen_compiled.issuer_plan() is gen_compiled.issuer_plan()

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
        compiled = compile_trace(trace)
        rows = len(compiled)
        assert rows >= 50_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = compiled.issuer_plan()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(w) + len(m) for _h, _t, w, m in plan) == rows
        assert (after - before) / rows <= 16
        # Building it holds at most one 8-byte index per row on top.
        assert (peak - before) / rows <= 32

    def test_plan_outlives_release(self, gen_compiled):
        """A plan built on an attached trace owns its rows: the segment
        can be released and even cleared, and the rows still iterate."""
        expected = [
            (host, thread, list(warm), list(measured))
            for host, thread, warm, measured in gen_compiled.issuer_plan()
        ]
        blob = bytearray(gen_compiled.to_bytes())
        attached = CompiledTrace.from_buffer(blob)
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
    def test_architectures(self, gen_trace, gen_compiled, arch):
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB, architecture=arch)
        expected = result_signature(run_simulation(gen_trace, config))
        actual = result_signature(run_simulation(gen_compiled, config))
        assert actual == expected

    def test_cold_start(self, gen_trace, gen_compiled):
        config = tiny_config()
        expected = run_simulation(gen_trace, config, cold_start=True)
        actual = run_simulation(gen_compiled, config, cold_start=True)
        assert result_signature(actual) == result_signature(expected)

    def test_generic_paths_match(self, gen_trace, gen_compiled):
        """Invariant checking and timelines route the compiled replay
        through the generic measured loop — still bit-identical."""
        config = SimConfig(ram_bytes=1 * MB, flash_bytes=4 * MB)
        plain = result_signature(run_simulation(gen_compiled, config))
        checked = result_signature(
            run_simulation(gen_compiled, config, check_invariants=True)
        )
        timed = run_simulation(
            gen_compiled, config, timeline_bucket_ns=10_000_000
        )
        assert checked == plain
        assert result_signature(timed) == plain
        assert result_signature(run_simulation(gen_trace, config)) == plain

    def test_micro_trace_counts(self):
        trace = micro_trace(warmup=2)
        config = tiny_config()
        obj = run_simulation(trace, config)
        packed = run_simulation(compile_trace(trace), config)
        assert result_signature(packed) == result_signature(obj)
        assert packed.read_latency.count == 2
        assert packed.write_latency.count == 1


class TestAutoCompile:
    def test_replay_compiles_a_plain_trace_once(self, gen_trace):
        # check_invariants=False: this multi-host trace ends inside an
        # async-writeback window where the end-of-run placement
        # invariant does not hold; the subject here is compilation.
        config = tiny_config()
        first = run_simulation(gen_trace, config, check_invariants=False)
        compiled = gen_trace.__dict__.get("_compiled_trace")
        assert isinstance(compiled, CompiledTrace)
        second = run_simulation(gen_trace, config, check_invariants=False)
        assert compile_trace(gen_trace) is compiled
        packed = run_simulation(compiled, config, check_invariants=False)
        assert (
            result_signature(first)
            == result_signature(second)
            == result_signature(packed)
        )
