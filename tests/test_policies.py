"""The unified policy registry and the flash admission/cleaning axes."""

import dataclasses
import pickle
import random

import pytest

import repro
import repro.policies as policies
from tests.helpers import make_trace, tiny_config
from repro._units import BLOCK_SIZE, MB, SECOND
from repro.core.architectures import Architecture
from repro.core.config import SimConfig
from repro.core.policies import WritebackPolicy
from repro.core.simulator import run_simulation
from repro.errors import ConfigError
from repro.policies.admission import (
    AlwaysAdmit,
    ProbationaryAdmit,
    WriteBudgetAdmit,
)
from repro.policies.cleaning import (
    AggressiveClean,
    AgedClean,
    PeriodicClean,
)


def mixed_trace(n=4000, blocks=512, seed=7, warmup=1000, write_fraction=0.5):
    rng = random.Random(seed)
    ops = [
        ("w" if rng.random() < write_fraction else "r", rng.randrange(blocks))
        for _ in range(n)
    ]
    return make_trace(ops, file_blocks=4096, warmup=warmup)


class TestRegistryGet:
    def test_kinds(self):
        assert policies.KINDS == ("eviction", "admission", "cleaning", "writeback")

    def test_admission_constructors(self):
        assert policies.get("admission", "always").is_always
        assert policies.get("admission", "probationary", min_refs=4).min_refs == 4
        budget = policies.get("admission", "budget", bytes_per_second=8 * MB)
        assert budget.bytes_per_second == 8 * MB

    def test_cleaning_constructors(self):
        assert policies.get("cleaning", "periodic").is_periodic
        assert policies.get("cleaning", "alru", idle_ns=SECOND).idle_ns == SECOND
        acp = policies.get("cleaning", "acp", high_fraction=0.4, low_fraction=0.1)
        assert (acp.high_fraction, acp.low_fraction) == (0.4, 0.1)

    def test_eviction_returns_instances(self):
        from repro.cache.policy import ClockPolicy, SLRUPolicy

        assert isinstance(policies.get("eviction", "clock"), ClockPolicy)
        slru = policies.get(
            "eviction", "slru", capacity_blocks=100, protected_fraction=0.25
        )
        assert isinstance(slru, SLRUPolicy)
        assert slru.protected_capacity == 25

    def test_writeback_long_and_short_names(self):
        assert policies.get("writeback", "sync").label == "s"
        assert policies.get("writeback", "periodic", seconds=5).label == "p5"
        assert policies.get("writeback", "d2").label == "d2"

    def test_unknown_kind_and_name_rejected(self):
        with pytest.raises(ConfigError):
            policies.get("compression", "lz4")
        with pytest.raises(ConfigError):
            policies.get("admission", "tarot")
        with pytest.raises(ConfigError):
            policies.get("writeback", "sync", seconds=1, extra=2)


class TestRegistryResolve:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("always", AlwaysAdmit()),
            ("probationary", ProbationaryAdmit(min_refs=2)),
            ("probationary:3", ProbationaryAdmit(min_refs=3)),
            ("budget:8M", WriteBudgetAdmit(bytes_per_second=8 * MB)),
            (
                "budget:1M:64K",
                WriteBudgetAdmit(bytes_per_second=MB, burst_bytes=64 * 1024),
            ),
        ],
    )
    def test_admission_specs(self, spec, expected):
        assert policies.resolve("admission", spec) == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("periodic", PeriodicClean()),
            ("alru", AgedClean()),
            ("alru:5", AgedClean(idle_ns=5 * SECOND)),
            ("acp", AggressiveClean()),
            ("acp:0.4", AggressiveClean(high_fraction=0.4)),
            ("acp:0.4:0.1", AggressiveClean(high_fraction=0.4, low_fraction=0.1)),
        ],
    )
    def test_cleaning_specs(self, spec, expected):
        assert policies.resolve("cleaning", spec) == expected

    def test_instances_pass_through(self):
        spec = ProbationaryAdmit(min_refs=5)
        assert policies.resolve("admission", spec) is spec
        wb = WritebackPolicy.periodic(3)
        assert policies.resolve("writeback", wb) is wb

    def test_eviction_resolves_to_string(self):
        assert policies.resolve("eviction", "LRU") == "lru"
        with pytest.raises(Exception):
            policies.resolve("eviction", "arc")

    @pytest.mark.parametrize(
        "kind,spec",
        [
            ("admission", "probationary:0"),
            ("admission", "budget"),
            ("admission", "budget:0"),
            ("admission", "budget:nope"),
            ("cleaning", "acp:1.5"),
            ("cleaning", "acp:0.5:0.6"),
            ("cleaning", "alru:x"),
            ("writeback", "periodic"),
            ("writeback", "q9"),
        ],
    )
    def test_bad_specs_rejected(self, kind, spec):
        with pytest.raises(ConfigError):
            policies.resolve(kind, spec)

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigError):
            policies.resolve("admission", 42)


class TestAvailable:
    def test_catalog_covers_all_kinds(self):
        catalog = policies.available()
        assert set(catalog) == set(policies.KINDS)
        for names in catalog.values():
            assert names  # never an empty kind

    def test_single_kind(self):
        assert list(policies.available("admission")) == ["admission"]


class TestSpecSemantics:
    SPECS = [
        AlwaysAdmit(),
        ProbationaryAdmit(min_refs=3),
        WriteBudgetAdmit(bytes_per_second=MB),
        PeriodicClean(),
        AgedClean(idle_ns=2 * SECOND),
        AggressiveClean(high_fraction=0.3),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    def test_pickle_roundtrip_preserves_equality(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_value_semantics(self):
        assert ProbationaryAdmit(min_refs=2) == ProbationaryAdmit(min_refs=2)
        assert ProbationaryAdmit(min_refs=2) != ProbationaryAdmit(min_refs=3)
        assert AlwaysAdmit() != PeriodicClean()

    def test_specs_are_immutable(self):
        spec = ProbationaryAdmit(min_refs=2)
        with pytest.raises(AttributeError):
            spec.min_refs = 5
        clean = AggressiveClean()
        with pytest.raises(AttributeError):
            clean.high_fraction = 0.9

    def test_labels(self):
        assert AlwaysAdmit().label == "always"
        assert ProbationaryAdmit(min_refs=3).label == "probationary:3"
        assert AgedClean(idle_ns=30 * SECOND).label == "alru:30s"
        assert WriteBudgetAdmit(bytes_per_second=8 * MB).label.startswith("budget:")


class TestControllers:
    def test_probationary_controller_counts_verdicts(self):
        ctrl = ProbationaryAdmit(min_refs=2).controller()
        assert ctrl.needs_ref_ledger
        assert not ctrl.admit_fill(1, 0, now=0)
        assert not ctrl.admit_fill(1, 1, now=10)
        assert ctrl.admit_fill(1, 2, now=20)
        assert ctrl.counters() == {"checks": 3, "admits": 1, "rejects": 2}
        assert ctrl.promote_on_hit(2) and not ctrl.promote_on_hit(1)

    def test_budget_controller_refills_over_time(self):
        spec = WriteBudgetAdmit(
            bytes_per_second=BLOCK_SIZE, burst_bytes=BLOCK_SIZE
        )
        ctrl = spec.controller()
        assert not ctrl.needs_ref_ledger
        assert ctrl.admit_fill(1, 0, now=0)  # full bucket
        assert not ctrl.admit_fill(2, 0, now=0)  # drained
        assert ctrl.admit_fill(3, 0, now=SECOND)  # one second refills one block
        assert ctrl.counters()["rejects"] == 1

    def test_budget_updates_starve_fills(self):
        spec = WriteBudgetAdmit(
            bytes_per_second=BLOCK_SIZE, burst_bytes=BLOCK_SIZE
        )
        ctrl = spec.controller()
        ctrl.note_update(0)
        ctrl.note_update(0)  # balance now -1 block
        assert not ctrl.admit_fill(1, 0, now=0)
        # Two seconds of refill cover the debt plus one fill.
        assert ctrl.admit_fill(1, 0, now=2 * SECOND)

    def test_always_and_periodic_compile_to_none(self):
        assert AlwaysAdmit().controller() is None
        assert PeriodicClean().controller(None) is None


class TestConfigIntegration:
    def test_defaults_are_paper_policies(self):
        config = SimConfig()
        assert config.flash_admission == AlwaysAdmit()
        assert config.flash_cleaning == PeriodicClean()
        assert "admission" not in config.describe()
        assert "cleaning" not in config.describe()

    def test_spec_strings_normalize_to_instances(self):
        config = SimConfig(
            flash_admission="probationary:3", flash_cleaning="acp:0.4:0.1"
        )
        assert config.flash_admission == ProbationaryAdmit(min_refs=3)
        assert config.flash_cleaning == AggressiveClean(
            high_fraction=0.4, low_fraction=0.1
        )
        described = config.describe()
        assert "admission=probationary:3" in described
        assert "cleaning=acp:0.4:0.1" in described

    def test_with_policies_keywords(self):
        config = SimConfig().with_policies(
            flash_admission="budget:8M",
            flash_cleaning="alru:5",
            ram_writeback=WritebackPolicy.sync(),
        )
        assert config.flash_admission == WriteBudgetAdmit(bytes_per_second=8 * MB)
        assert config.flash_cleaning == AgedClean(idle_ns=5 * SECOND)
        assert config.ram_policy.label == "s"

    def test_config_pickles_with_policies(self):
        config = SimConfig(
            flash_admission="probationary:2", flash_cleaning="acp:0.5"
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.flash_admission == config.flash_admission
        assert clone.flash_cleaning == config.flash_cleaning

    @pytest.mark.parametrize(
        "architecture", [Architecture.UNIFIED, Architecture.EXCLUSIVE]
    )
    def test_integrated_architectures_reject_new_axes(self, architecture):
        kwargs = dict(ram_bytes=8 * MB, flash_bytes=8 * MB)
        with pytest.raises(ConfigError):
            SimConfig(
                architecture=architecture,
                flash_admission="probationary:2",
                **kwargs,
            )
        with pytest.raises(ConfigError):
            SimConfig(
                architecture=architecture, flash_cleaning="acp:0.5", **kwargs
            )

    def test_rated_erase_cycles_validated(self):
        assert SimConfig(ftl_rated_erase_cycles=100).ftl_rated_erase_cycles == 100
        with pytest.raises(ConfigError):
            SimConfig(ftl_rated_erase_cycles=0)

    def test_eviction_instances_rejected_on_config(self):
        from repro.cache.policy import LRUPolicy

        with pytest.raises(ConfigError):
            SimConfig(eviction_policy=LRUPolicy())


class TestDeprecationShims:
    def test_top_level_writeback_import_is_gone(self):
        assert not hasattr(repro, "WritebackPolicy")
        assert "WritebackPolicy" not in repro.__all__

    def test_registry_reexports_writeback(self):
        assert policies.WritebackPolicy is WritebackPolicy


class TestSimulationBehavior:
    def test_default_controllers_absent(self):
        trace = mixed_trace(n=600, warmup=100)
        results = run_simulation(trace, tiny_config(), check_invariants=True)
        assert results.flash_admission_stats is None

    def test_probationary_reduces_program_bytes(self):
        trace = mixed_trace()
        base = tiny_config()
        always = run_simulation(trace, base, check_invariants=True)
        probation = run_simulation(
            trace,
            base.with_policies(flash_admission="probationary:2"),
            check_invariants=True,
        )
        assert probation.flash_admission_stats["rejects"] > 0
        assert probation.flash_program_bytes < always.flash_program_bytes

    def test_budget_bounds_program_bytes(self):
        trace = mixed_trace()
        base = tiny_config()
        results = run_simulation(
            trace,
            base.with_policies(flash_admission="budget:1M"),
            check_invariants=True,
        )
        stats = results.flash_admission_stats
        assert stats["checks"] == stats["admits"] + stats["rejects"]
        assert stats["rejects"] > 0

    def test_acp_drains_dirty_backlog(self):
        trace = mixed_trace(write_fraction=0.8)
        base = tiny_config(flash_policy=WritebackPolicy.parse("d5"))
        lazy = run_simulation(trace, base, check_invariants=True)
        acp = run_simulation(
            trace,
            base.with_policies(flash_cleaning="acp:0.02:0.01"),
            check_invariants=True,
        )
        # Draining flushes dirty blocks that the d5 policy would still
        # be sitting on at the end of the run.
        assert acp.filer_writes >= lazy.filer_writes

    def test_alru_flushes_idle_blocks(self):
        trace = mixed_trace(write_fraction=0.8)
        base = tiny_config(flash_policy=WritebackPolicy.parse("d5"))
        lazy = run_simulation(trace, base, check_invariants=True)
        alru = run_simulation(
            trace,
            base.with_policies(flash_cleaning="alru:0.0001"),
            check_invariants=True,
        )
        assert alru.filer_writes >= lazy.filer_writes

    def test_obs_twin_matches_plain_run(self):
        trace = mixed_trace()
        config = tiny_config(
            ftl_model=True,
        ).with_policies(
            flash_admission="probationary:2", flash_cleaning="acp:0.05"
        )
        plain = run_simulation(trace, config, check_invariants=True)
        observed = run_simulation(
            trace,
            dataclasses.replace(config, trace_events=True),
            check_invariants=True,
        )
        assert plain.simulated_ns == observed.simulated_ns
        assert plain.read_latency.mean_us == observed.read_latency.mean_us
        assert plain.flash_program_bytes == observed.flash_program_bytes
        assert plain.flash_admission_stats == observed.flash_admission_stats

    def test_endurance_metrics_with_ftl(self):
        trace = mixed_trace()
        results = run_simulation(
            trace, tiny_config(ftl_model=True), check_invariants=True
        )
        assert results.flash_program_bytes > 0
        assert results.flash_write_amp >= 1.0
        assert results.device_lifetime_days is not None
        assert results.device_lifetime_days > 0
        payload = results.as_dict()
        assert payload["flash_program_bytes"] == results.flash_program_bytes
        assert payload["flash_write_amp"] == results.flash_write_amp

    def test_lifetime_scales_with_rated_cycles(self):
        trace = mixed_trace()
        lo = run_simulation(
            trace, tiny_config(ftl_model=True, ftl_rated_erase_cycles=1000)
        )
        hi = run_simulation(
            trace, tiny_config(ftl_model=True, ftl_rated_erase_cycles=3000)
        )
        if lo.flash_erase_count > 0:
            assert hi.device_lifetime_days == pytest.approx(
                3 * lo.device_lifetime_days
            )
        else:
            assert lo.device_lifetime_days == float("inf")

    def test_endurance_metrics_without_ftl(self):
        trace = mixed_trace(n=600, warmup=100)
        results = run_simulation(trace, tiny_config())
        assert results.flash_program_bytes > 0  # host traffic only
        assert results.flash_erase_count == 0
        assert results.flash_write_amp is None
        assert results.device_lifetime_days is None
