"""Tests for the inline RAM-hit run.

The application-thread driver serves RAM hits inline when
:func:`repro.engine.compiled.kernel_eligible` holds; it exists purely
for speed, so it must not move a single result.  The reference for
every identity below is the same replay with a breakdown-only
Observation attached, which sends every block through the host
generators (with a span) and never takes the inline run.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.architectures import Architecture
from repro.core.machine import System
from repro.core.policies import WritebackPolicy
from repro.core.restart import RestartSpec
from repro.core.simulator import run_simulation
from repro.engine.compiled import kernel_eligible
from repro.experiments.common import DEFAULT_SCALE, baseline_config, baseline_trace
from repro.net.directory import DirectoryTiming
from repro.obs import Observation
from repro.validation.differential import check_inline_hit_identity, full_signature
from tests.helpers import make_trace, tiny_config

#: Coarse geometry for test speed; identities are scale-independent.
FAST_SCALE = DEFAULT_SCALE * 4


def _compiled_baseline(**trace_kwargs):
    trace_kwargs.setdefault("scale", FAST_SCALE)
    return baseline_trace(**trace_kwargs)


def _run_both(trace, config, **kwargs):
    """Replay ``trace`` through the generators and with the inline run,
    returning both signatures."""
    reference = full_signature(
        run_simulation(trace, config, obs=Observation(events=False), **kwargs)
    )
    candidate = full_signature(run_simulation(trace, config, **kwargs))
    return reference, candidate


class TestEligibility:
    def test_baseline_is_eligible(self):
        system = System(baseline_config(scale=FAST_SCALE), n_hosts=1)
        assert kernel_eligible(system)

    def test_env_opt_out(self, monkeypatch):
        # The REPRO_COMPILE_KERNEL and REPRO_COMPILE_MIN_RECORDS knobs
        # are gone: the environment cannot take a replay off the inline
        # run or change what it computes.
        config = baseline_config(scale=FAST_SCALE)
        trace = _compiled_baseline()
        expected = full_signature(run_simulation(trace, config))
        monkeypatch.setenv("REPRO_COMPILE_KERNEL", "0")
        monkeypatch.setenv("REPRO_COMPILE_MIN_RECORDS", "lots")
        assert kernel_eligible(System(config, n_hosts=1))
        assert full_signature(run_simulation(trace, config)) == expected

    def test_observation_falls_back(self):
        system = System(
            baseline_config(scale=FAST_SCALE), n_hosts=1, obs=Observation()
        )
        assert not kernel_eligible(system)

    def test_restart_stays_eligible(self):
        system = System(
            baseline_config(scale=FAST_SCALE),
            n_hosts=1,
            restart=RestartSpec(volatile_flash=True),
        )
        assert kernel_eligible(system)

    def test_timeline_falls_back(self):
        system = System(
            baseline_config(scale=FAST_SCALE),
            n_hosts=1,
            timeline_bucket_ns=1_000_000,
        )
        assert not kernel_eligible(system)

    def test_exclusive_architecture_falls_back(self):
        system = System(
            baseline_config(scale=FAST_SCALE, architecture=Architecture.EXCLUSIVE),
            n_hosts=1,
        )
        assert not kernel_eligible(system)

    def test_channel_limited_flash_stays_eligible(self):
        system = System(
            baseline_config(scale=FAST_SCALE, flash_parallelism=4), n_hosts=1
        )
        assert kernel_eligible(system)

    def test_invariants_stay_eligible(self):
        system = System(
            baseline_config(scale=FAST_SCALE), n_hosts=1, check_invariants=True
        )
        assert kernel_eligible(system)

    def test_admission_controller_falls_back(self):
        config = baseline_config(scale=FAST_SCALE, flash_admission="probationary:2")
        assert not kernel_eligible(System(config, n_hosts=1))

    def test_modeled_directory_latency_falls_back(self):
        base = baseline_config(scale=FAST_SCALE)
        timing = base.timing.with_directory(DirectoryTiming(lookup_ns=500))
        assert not kernel_eligible(System(replace(base, timing=timing), n_hosts=1))

    @pytest.mark.parametrize("spec", ["s", "a", "d30"])
    def test_flushing_ram_policy_stays_eligible(self, spec):
        config = baseline_config(
            scale=FAST_SCALE, ram_policy=WritebackPolicy.parse(spec)
        )
        assert kernel_eligible(System(config, n_hosts=1))


def _counting(monkeypatch, stack, name, store):
    """Patch ``stack``'s class so each call of the ``name`` generator
    records its block, asserting the block is absent from ``store``
    unless ``store`` is None; returns the list of recorded blocks."""
    original = getattr(type(stack), name)
    called = []

    def counting(self, block, *args, **kwargs):
        assert store is None or block not in store
        called.append(block)
        return original(self, block, *args, **kwargs)

    monkeypatch.setattr(type(stack), name, counting)
    return called


class TestInlineHits:
    @pytest.mark.parametrize(
        "architecture", [Architecture.NAIVE, Architecture.UNIFIED]
    )
    def test_read_block_runs_only_for_ram_misses(self, architecture, monkeypatch):
        # 64 blocks read four times over with no flash tier: all of
        # them stay RAM-resident after their first read.
        blocks = range(64)
        trace = make_trace([("r", block) for _ in range(4) for block in blocks])
        config = tiny_config(
            architecture=architecture,
            flash_bytes=0,
            ram_policy=WritebackPolicy.periodic(1),
        )
        system = System(config, n_hosts=1)
        assert kernel_eligible(system)
        stack = system.hosts[0]
        store = stack.cache if architecture is Architecture.UNIFIED else stack.ram
        called = _counting(monkeypatch, stack, "read_block", store)
        system.replay(trace)
        assert called == list(blocks)
        assert store.stats.hits == 3 * len(blocks)
        assert system.metrics.blocks_read == 4 * len(blocks)

    @pytest.mark.parametrize(
        "spec, generator_writes", [("p1", 0), ("n", 0), ("s", 128), ("a", 128), ("d1", 128)]
    )
    def test_write_hits_take_the_generators_only_when_they_flush(
        self, spec, generator_writes, monkeypatch
    ):
        # Read 64 blocks into RAM, then write each of them twice: every
        # write is a RAM hit.
        blocks = list(range(64))
        trace = make_trace([("r", b) for b in blocks] + [("w", b) for b in blocks * 2])
        config = tiny_config(flash_bytes=0, ram_policy=WritebackPolicy.parse(spec))
        system = System(config, n_hosts=1)
        called = _counting(monkeypatch, system.hosts[0], "write_block", None)
        system.replay(trace)
        assert len(called) == generator_writes
        assert system.metrics.blocks_written == 128


class TestKernelIdentity:
    def test_differential_check_passes(self):
        check = check_inline_hit_identity(scale=FAST_SCALE)
        assert check.passed, check.detail
        assert check.detail.startswith("69 points")

    def test_chunked_trace_replays_identically(self, tmp_path):
        from repro.traces.chunked import ChunkedCompiledTrace

        trace = baseline_trace(n_hosts=2, scale=FAST_SCALE, volume_multiple=2.0)
        chunked = ChunkedCompiledTrace.from_trace(trace, spool_dir=tmp_path)
        reference, candidate = _run_both(chunked, baseline_config(scale=FAST_SCALE))
        assert reference == candidate

    def test_cold_start_replays_identically(self):
        reference, candidate = _run_both(
            _compiled_baseline(),
            baseline_config(scale=FAST_SCALE),
            cold_start=True,
        )
        assert reference == candidate

    @pytest.mark.parametrize("volatile_flash", [True, False])
    @pytest.mark.parametrize(
        "architecture", [Architecture.NAIVE, Architecture.LOOKASIDE]
    )
    def test_restart_replays_identically(self, architecture, volatile_flash):
        reference, candidate = _run_both(
            _compiled_baseline(n_hosts=2, volume_multiple=2.0),
            baseline_config(scale=FAST_SCALE, architecture=architecture),
            restart=RestartSpec(volatile_flash=volatile_flash),
        )
        assert reference == candidate

    def test_invariant_checking_replays_identically(self):
        reference, candidate = _run_both(
            _compiled_baseline(n_hosts=3, shared_working_set=True, volume_multiple=2.0),
            baseline_config(scale=FAST_SCALE, model_invalidation_traffic=True),
            check_invariants=True,
        )
        assert reference == candidate


#: The knob space the randomized property sweep draws from.
_ARCHITECTURES = (
    Architecture.NAIVE,
    Architecture.LOOKASIDE,
    Architecture.UNIFIED,
    Architecture.EXCLUSIVE,  # ineligible: both runs take the generators
)
_POLICIES = ("s", "a", "n", "p10", "p30", "p60", "t30", "d30")
_ADMISSIONS = ("always", "always", "probationary:2", "budget:8M")
_CLEANINGS = ("periodic", "periodic", "alru:30", "acp:0.5:0.25")


class TestKernelPropertySweep:
    """Randomized mini replay programs with and without the inline run.

    Each case draws a trace shape (hosts, write mix, sharing, seed) and
    a config point (architecture, tier sizes, writeback policies,
    admission/cleaning controllers, FTL model, invalidation traffic,
    invariants) from a seeded RNG and asserts the two replays produce
    identical full signatures — timelines, histogram buckets, cache and
    device counters, per-host breakdowns.
    """

    @pytest.mark.parametrize("case_seed", range(10))
    def test_random_point_is_bit_identical(self, case_seed):
        rng = random.Random(0xC0DE + case_seed)
        trace = baseline_trace(
            ws_gb=rng.choice((20.0, 60.0)),
            write_fraction=rng.choice((0.0, 0.1, 0.3, 0.6)),
            n_hosts=rng.choice((1, 2, 3)),
            shared_working_set=rng.random() < 0.7,
            seed=rng.randrange(1 << 16),
            scale=FAST_SCALE,
            volume_multiple=2.0,
        )
        architecture = rng.choice(_ARCHITECTURES)
        overrides = {
            "architecture": architecture,
            "ram_policy": WritebackPolicy.parse(rng.choice(_POLICIES)),
            "flash_policy": WritebackPolicy.parse(rng.choice(_POLICIES)),
        }
        ram_gb, flash_gb = rng.choice(((8.0, 64.0), (2.0, 16.0), (8.0, 0.0), (0.0, 64.0)))
        if architecture is Architecture.EXCLUSIVE and (
            flash_gb == 0.0 or ram_gb == 0.0
        ):
            ram_gb, flash_gb = 8.0, 64.0
        if flash_gb > 0.0:
            if architecture in (Architecture.NAIVE, Architecture.LOOKASIDE):
                overrides["flash_admission"] = rng.choice(_ADMISSIONS)
                overrides["flash_cleaning"] = rng.choice(_CLEANINGS)
            if rng.random() < 0.3:
                overrides["ftl_model"] = True
                overrides["flash_parallelism"] = 0
        if rng.random() < 0.3:
            overrides["model_invalidation_traffic"] = True
        config = baseline_config(
            ram_gb=ram_gb, flash_gb=flash_gb, scale=FAST_SCALE, **overrides
        )
        reference, candidate = _run_both(
            trace,
            config,
            check_invariants=rng.random() < 0.5,
        )
        assert reference == candidate, [
            key for key in reference if reference[key] != candidate[key]
        ]
