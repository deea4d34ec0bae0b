"""The three cache architectures of §3.3.

* **Naive** — "The flash cache is treated as an independent cache layer
  beneath the RAM cache; the RAM cache is always a subset of the flash
  cache, requiring no integrated management."
* **Lookaside** — "Based on Mercury, writes go directly from RAM to the
  file server instead of being routed through the flash.  The flash is
  updated after the file server and never contains dirty data. [...]
  The RAM cache is a subset of the flash cache."
* **Unified** — "RAM and flash are managed together using a single LRU
  chain.  Data blocks are placed into the least recently used buffer,
  whether RAM or flash, and are never migrated.  No attempt is made to
  prefer RAM to flash.  Here the RAM cache is not a subset of the
  flash, so integrated management is needed."
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError


class Architecture(enum.Enum):
    """Flash–RAM integration and placement choice (§3.1–§3.3).

    ``EXCLUSIVE`` is an extension: §3.2 sketches (without evaluating)
    an alternative placement that would "place blocks initially into
    RAM and then migrate less recently (or less frequently) used blocks
    down to flash".  Blocks live in exactly one tier: fills land in
    RAM, RAM evictions demote to flash, flash hits promote back to RAM.
    """

    NAIVE = "naive"
    LOOKASIDE = "lookaside"
    UNIFIED = "unified"
    EXCLUSIVE = "exclusive"

    def __str__(self) -> str:
        return self.value

    @property
    def ram_is_subset_of_flash(self) -> bool:
        """Whether the architecture keeps RAM contents duplicated in flash."""
        return self in (Architecture.NAIVE, Architecture.LOOKASIDE)

    @property
    def needs_integrated_management(self) -> bool:
        """Whether the OS buffer manager must manage the flash (§3.1)."""
        return self in (Architecture.UNIFIED, Architecture.EXCLUSIVE)

    @classmethod
    def parse(cls, name: str) -> "Architecture":
        """Parse an architecture name, case-insensitively.

        >>> Architecture.parse("Naive")
        <Architecture.NAIVE: 'naive'>

        Anything else, a non-string included, raises ``ConfigError``.
        """
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise ConfigError(
                "unknown architecture %r (choose from %s)"
                % (name, ", ".join(a.value for a in cls))
            ) from None
