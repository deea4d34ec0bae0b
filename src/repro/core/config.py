"""Simulation configuration: Table 1's timing model plus the design-space knobs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from repro import policies as policy_registry
from repro._units import GB, NS, blocks_for_bytes, format_bytes
from repro.core.architectures import Architecture
from repro.core.policies import WritebackPolicy
from repro.errors import ConfigError
from repro.filer.timing import FilerTiming
from repro.flash.timing import FlashTiming
from repro.net.directory import DirectoryTiming
from repro.net.link import NetworkTiming
from repro.policies.admission import AdmissionPolicy
from repro.policies.cleaning import CleaningPolicy


@dataclass(frozen=True)
class TimingModel:
    """All device timings (Table 1 of the paper).

    RAM is 400 ns per 4 KB block ("corresponding to roughly 10 GB/sec
    memory bandwidth"); the flash, network, and filer components carry
    their own timing dataclasses.
    """

    ram_read_ns: int = 400 * NS
    ram_write_ns: int = 400 * NS
    flash: FlashTiming = field(default_factory=FlashTiming.paper_default)
    network: NetworkTiming = field(default_factory=NetworkTiming.paper_default)
    filer: FilerTiming = field(default_factory=FilerTiming.paper_default)
    #: consistency-directory latencies (§3.8 extension); both zero by
    #: default — the paper's instant-invalidation model.
    directory: DirectoryTiming = field(default_factory=DirectoryTiming.paper_default)

    def __post_init__(self) -> None:
        if self.ram_read_ns < 0 or self.ram_write_ns < 0:
            raise ConfigError("RAM latencies must be non-negative")

    @classmethod
    def paper_default(cls) -> "TimingModel":
        """Exactly Table 1."""
        return cls()

    def with_flash(self, flash: FlashTiming) -> "TimingModel":
        return replace(self, flash=flash)

    def with_prefetch_rate(self, rate: float) -> "TimingModel":
        return replace(self, filer=self.filer.with_prefetch_rate(rate))

    def with_directory(self, directory: DirectoryTiming) -> "TimingModel":
        return replace(self, directory=directory)

    def as_table(self) -> str:
        """Render Table 1 ("Timing Model Parameters")."""
        rows = [
            ("RAM read", "%d ns / 4K block" % self.ram_read_ns),
            ("RAM write", "%d ns / 4K block" % self.ram_write_ns),
            ("Flash read", "%.1f us / 4K block" % (self.flash.read_ns / 1000)),
            ("Flash write", "%.1f us / 4K block" % (self.flash.write_ns / 1000)),
            ("Network base latency", "%.1f us / packet" % (self.network.base_latency_ns / 1000)),
            ("Network data latency", "%g ns / bit" % self.network.per_bit_ns),
            ("File server fast read", "%.1f us / 4K block" % (self.filer.fast_read_ns / 1000)),
            ("File server slow read", "%.1f us / 4K block" % (self.filer.slow_read_ns / 1000)),
            ("File server write", "%.1f us / 4K block" % (self.filer.write_ns / 1000)),
            ("File server fast read rate", "%d%%" % round(100 * self.filer.fast_read_rate)),
        ]
        if not self.directory.is_instant:
            # Extension rows — Table 1 proper stays ten lines at the
            # paper default (the directory is instant there).
            rows.append(
                ("Directory lookup", "%.1f us / write" % (self.directory.lookup_ns / 1000))
            )
            rows.append(
                ("Directory invalidate", "%.1f us / copy" % (self.directory.invalidate_ns / 1000))
            )
        width = max(len(name) for name, _value in rows)
        return "\n".join("%-*s  %s" % (width, name, value) for name, value in rows)


@dataclass(frozen=True)
class SimConfig:
    """One point in the paper's design space.

    Defaults are the paper's baseline: the naive architecture, 8 GB of
    RAM available for file caching, 64 GB of flash, a one-second
    periodic RAM writeback policy, asynchronous write-through for the
    flash (§7.1's chosen combination), Table 1 timings, and a
    non-persistent flash cache.
    """

    #: an :class:`Architecture` or its value string (``"naive"``,
    #: ``"lookaside"``, ``"unified"``, ``"exclusive"``); normalized to
    #: the enum member.
    architecture: Union[str, Architecture] = Architecture.NAIVE
    ram_bytes: int = 8 * GB
    flash_bytes: int = 64 * GB
    ram_policy: WritebackPolicy = field(default_factory=lambda: WritebackPolicy.periodic(1))
    flash_policy: WritebackPolicy = field(default_factory=WritebackPolicy.asynchronous)
    timing: TimingModel = field(default_factory=TimingModel.paper_default)
    #: §7.8: charge two flash writes per block (data + metadata)
    persistent_flash: bool = False
    #: 0 = unlimited internal parallelism (pure latency server)
    flash_parallelism: int = 0
    #: Extension (§8 future work): model the flash translation layer
    #: explicitly — garbage-collection relocations and erases inflate
    #: write latency instead of being free.  Implies parallelism 0.
    ftl_model: bool = False
    #: Overprovisioned fraction of the FTL-modeled device.
    ftl_overprovision: float = 0.07
    #: Extension (§3.8): charge each cross-host invalidation one
    #: notification packet on the victim host's filer→host wire (the
    #: consistency-protocol traffic the paper deliberately leaves
    #: unmodeled; it only counts invalidations).
    model_invalidation_traffic: bool = False
    #: eviction policy name for all stores ("lru" is the paper's choice)
    eviction_policy: str = "lru"
    #: flash admission policy — a ``repro.policies`` spec string
    #: (``"always"``, ``"probationary:2"``, ``"budget:8M"``) or an
    #: :class:`~repro.policies.admission.AdmissionPolicy` instance;
    #: normalized to the instance.  The paper default admits everything.
    flash_admission: Union[str, AdmissionPolicy] = "always"
    #: flash cleaning policy — spec string (``"periodic"``,
    #: ``"alru:30"``, ``"acp:0.5:0.25"``) or a
    #: :class:`~repro.policies.cleaning.CleaningPolicy` instance;
    #: normalized to the instance.  The paper default keeps the flash
    #: writeback policy's own periodic syncer.
    flash_cleaning: Union[str, CleaningPolicy] = "periodic"
    #: rated program/erase cycles per flash block for the
    #: ``device_lifetime_days`` estimate (MLC-class default; only
    #: meaningful with ``ftl_model``).
    ftl_rated_erase_cycles: int = 3000
    #: run the :mod:`repro.invariants` sanitizer during replay (also
    #: enabled by REPRO_CHECK_INVARIANTS=1 or the CLI's ``--check``)
    check_invariants: bool = False
    #: trace records between interval checks when the sanitizer is on
    invariant_check_interval: int = 256
    #: attach a :class:`repro.obs.Observation` to the run — structured
    #: event tracing plus the per-request latency breakdown, returned on
    #: ``SimulationResults.breakdown`` / ``.obs_counters``.  Use this
    #: (rather than ``run_simulation(obs=...)``) when the run happens in
    #: a sweep worker process and the observation must travel back
    #: inside the picklable results.
    trace_events: bool = False
    #: master seed for the simulator's stochastic choices (filer prefetch)
    seed: int = 7
    #: replay warmup records but exclude them from statistics (the
    #: paper's default).  The cold-start experiments instead remove the
    #: warmup with Trace.without_warmup().
    name: str = ""

    def __post_init__(self) -> None:
        # Normalize the architecture and policy fields: strings and
        # instances are both accepted, instances are stored (strings for
        # eviction, which is a per-store mutable object).
        if not isinstance(self.architecture, Architecture):
            object.__setattr__(
                self, "architecture", Architecture.parse(self.architecture)
            )
        object.__setattr__(
            self, "ram_policy",
            policy_registry.resolve("writeback", self.ram_policy),
        )
        object.__setattr__(
            self, "flash_policy",
            policy_registry.resolve("writeback", self.flash_policy),
        )
        if not isinstance(self.eviction_policy, str):
            raise ConfigError(
                "SimConfig.eviction_policy takes the spec string (eviction "
                "policies are per-store mutable objects); got %r"
                % type(self.eviction_policy).__name__
            )
        object.__setattr__(
            self, "eviction_policy",
            policy_registry.resolve("eviction", self.eviction_policy),
        )
        object.__setattr__(
            self, "flash_admission",
            policy_registry.resolve("admission", self.flash_admission),
        )
        object.__setattr__(
            self, "flash_cleaning",
            policy_registry.resolve("cleaning", self.flash_cleaning),
        )
        if self.ram_bytes < 0 or self.flash_bytes < 0:
            raise ConfigError("cache sizes must be non-negative")
        if self.ram_bytes == 0 and self.flash_bytes == 0:
            # Permitted: a cacheless client (useful as an extreme baseline).
            pass
        if self.flash_parallelism < 0:
            raise ConfigError("flash parallelism must be >= 0")
        if not 0.0 <= self.ftl_overprovision < 1.0:
            raise ConfigError("FTL overprovision must be in [0, 1)")
        if self.invariant_check_interval < 1:
            raise ConfigError("invariant check interval must be >= 1")
        if self.ftl_rated_erase_cycles < 1:
            raise ConfigError("rated erase cycles must be >= 1")
        if self.architecture.needs_integrated_management:
            # Unified/exclusive manage flash inside the single LRU chain;
            # the admission/cleaning hooks live in the layered stacks.
            if not self.flash_admission.is_always:
                raise ConfigError(
                    "flash admission policies apply to the layered "
                    "architectures (naive, lookaside); the %s architecture "
                    "has no separate flash fill path" % self.architecture
                )
            if not self.flash_cleaning.is_periodic:
                raise ConfigError(
                    "flash cleaning policies apply to the layered "
                    "architectures (naive, lookaside); the %s architecture "
                    "has no separate flash syncer" % self.architecture
                )
        if self.ftl_model and self.flash_parallelism > 0:
            raise ConfigError("the FTL model serializes internally; "
                              "flash_parallelism must be 0 with ftl_model")
        if (
            self.architecture.ram_is_subset_of_flash
            and self.flash_bytes > 0
            and self.flash_blocks < self.ram_blocks
        ):
            raise ConfigError(
                "the %s architecture keeps RAM a subset of flash, so flash "
                "(%s) must be at least as large as RAM (%s)"
                % (
                    self.architecture,
                    format_bytes(self.flash_bytes),
                    format_bytes(self.ram_bytes),
                )
            )

    # --- derived geometry ---------------------------------------------

    @property
    def ram_blocks(self) -> int:
        return blocks_for_bytes(self.ram_bytes)

    @property
    def flash_blocks(self) -> int:
        return blocks_for_bytes(self.flash_bytes)

    @property
    def has_flash(self) -> bool:
        return self.flash_bytes > 0

    @property
    def has_ram(self) -> bool:
        return self.ram_bytes > 0

    # --- variants ---------------------------------------------------------

    def with_policies(
        self,
        *,
        eviction: object = None,
        ram_writeback: object = None,
        flash_writeback: object = None,
        flash_admission: object = None,
        flash_cleaning: object = None,
    ) -> "SimConfig":
        """A copy with any subset of the policy axes replaced.

        Each axis accepts a spec string or a policy instance (see
        :mod:`repro.policies`)::

            config.with_policies(ram_writeback="p1", flash_writeback="a",
                                 flash_admission="probationary:2",
                                 flash_cleaning="alru:30")
        """
        overrides = {}
        if eviction is not None:
            overrides["eviction_policy"] = eviction
        if ram_writeback is not None:
            overrides["ram_policy"] = ram_writeback
        if flash_writeback is not None:
            overrides["flash_policy"] = flash_writeback
        if flash_admission is not None:
            overrides["flash_admission"] = flash_admission
        if flash_cleaning is not None:
            overrides["flash_cleaning"] = flash_cleaning
        return replace(self, **overrides)

    def with_architecture(self, architecture: Architecture) -> "SimConfig":
        return replace(self, architecture=architecture)

    def with_sizes(self, ram_bytes: int, flash_bytes: int) -> "SimConfig":
        return replace(self, ram_bytes=ram_bytes, flash_bytes=flash_bytes)

    def with_timing(self, timing: TimingModel) -> "SimConfig":
        return replace(self, timing=timing)

    def with_overrides(self, **overrides: object) -> "SimConfig":
        """A copy with the named fields replaced, validated.

        The sweep-friendly variant constructor: unknown field names
        raise :class:`~repro.errors.ConfigError` (instead of
        ``dataclasses.replace``'s ``TypeError``) and the copy re-runs
        the full ``__post_init__`` consistency validation, so a sweep
        over generated override dictionaries fails loudly at the bad
        point rather than simulating a config it never meant to build.
        """
        valid = self.__dataclass_fields__
        unknown = [name for name in overrides if name not in valid]
        if unknown:
            raise ConfigError(
                "unknown SimConfig field(s) %s; valid fields: %s"
                % (", ".join(sorted(unknown)), ", ".join(sorted(valid)))
            )
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line description for experiment logs.

        Byte-identical to the pre-registry format at the paper-default
        admission/cleaning policies (the differential harness folds this
        string into result signatures).
        """
        extras = " persistent" if self.persistent_flash else ""
        if not self.flash_admission.is_always:
            extras += " admission=%s" % self.flash_admission.label
        if not self.flash_cleaning.is_periodic:
            extras += " cleaning=%s" % self.flash_cleaning.label
        return "%s ram=%s flash=%s ram_policy=%s flash_policy=%s%s" % (
            self.architecture,
            format_bytes(self.ram_bytes),
            format_bytes(self.flash_bytes),
            self.ram_policy,
            self.flash_policy,
            extras,
        )

    # --- presets ----------------------------------------------------------

    @classmethod
    def baseline(cls) -> "SimConfig":
        """The paper's full-size baseline (8 GB RAM, 64 GB flash)."""
        return cls()

    @classmethod
    def baseline_scaled(cls, scale: int = 1024) -> "SimConfig":
        """The baseline with every capacity divided by ``scale``.

        Latency constants are untouched; only the geometry shrinks, so
        crossovers fall at the same cache/working-set ratios.  The
        default scale (1024) maps GB → MB.
        """
        if scale < 1:
            raise ConfigError("scale must be >= 1")
        return cls(ram_bytes=8 * GB // scale, flash_bytes=64 * GB // scale)
