"""Trace-generator configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro._units import GB, MB, blocks_for_bytes
from repro.errors import ConfigError
from repro.fsmodel.impressions import ImpressionsConfig


@dataclass(frozen=True)
class TraceGenConfig:
    """All knobs of the synthetic trace generator.

    Defaults follow the paper's baseline (§4): one host, eight threads,
    80 % of I/Os from the working set, 30 % writes, total volume four
    times the working-set size with the first half as warmup, 4 KB
    blocks, and a 1.4 TB Impressions file-server model.  Experiments
    vary one or more parameters via :func:`dataclasses.replace` or the
    ``with_*`` helpers.
    """

    fs: ImpressionsConfig = field(default_factory=ImpressionsConfig)
    working_set_bytes: int = 60 * GB
    n_hosts: int = 1
    threads_per_host: int = 8
    write_fraction: float = 0.30
    ws_fraction: float = 0.80
    #: Poisson mean of I/O request sizes, in blocks
    io_mean_blocks: float = 4.0
    #: Poisson mean of working-set subregion sizes, in blocks
    region_mean_blocks: float = 64.0
    #: total data volume as a multiple of the working-set size
    volume_multiple: float = 4.0
    #: leading fraction of the volume that is warmup (stats not collected)
    warmup_fraction: float = 0.5
    #: True: all hosts share one working set (the consistency worst case);
    #: False: each host samples its own working set.
    shared_working_set: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        if self.working_set_bytes <= 0:
            raise ConfigError("working set must be positive")
        for name in ("n_hosts", "threads_per_host"):
            value = getattr(self, name)
            # the generator draws hosts and threads with Random._randbelow,
            # which skips randrange's integer check
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("%s must be an int, got %r" % (name, value))
        if self.n_hosts < 1 or self.threads_per_host < 1:
            raise ConfigError("need at least one host and one thread")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write fraction must be in [0, 1]")
        if not 0.0 <= self.ws_fraction <= 1.0:
            raise ConfigError("working-set fraction must be in [0, 1]")
        for name in ("io_mean_blocks", "region_mean_blocks", "volume_multiple"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails this too
                raise ConfigError("%s must be finite and positive, got %r" % (name, value))
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup fraction must be in [0, 1)")
        if self.working_set_bytes > self.fs.total_bytes:
            raise ConfigError(
                "working set (%d) larger than the file-server model (%d)"
                % (self.working_set_bytes, self.fs.total_bytes)
            )

    # --- derived quantities ------------------------------------------

    @property
    def working_set_blocks(self) -> int:
        return blocks_for_bytes(self.working_set_bytes)

    @property
    def target_volume_blocks(self) -> int:
        """Total block accesses the generated trace should contain."""
        return int(self.working_set_blocks * self.volume_multiple)

    # --- convenient variants ---------------------------------------------

    def with_write_fraction(self, fraction: float) -> "TraceGenConfig":
        return replace(self, write_fraction=fraction)

    def with_working_set(self, nbytes: int) -> "TraceGenConfig":
        return replace(self, working_set_bytes=nbytes)

    def with_hosts(self, n_hosts: int) -> "TraceGenConfig":
        return replace(self, n_hosts=n_hosts)

    def with_seed(self, seed: int) -> "TraceGenConfig":
        return replace(self, seed=seed)

    # --- presets -----------------------------------------------------------

    @classmethod
    def small_example(cls) -> "TraceGenConfig":
        """A laptop-friendly configuration for examples and quick tests:
        a 64 MB file-server model with an 8 MB working set."""
        return cls(
            fs=ImpressionsConfig(total_bytes=64 * MB, max_file_bytes=4 * MB),
            working_set_bytes=8 * MB,
        )
