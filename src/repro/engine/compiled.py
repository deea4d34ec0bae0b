"""When a replay serves its RAM hits inline.

Every replay, traced or not, runs one driver generator per application
thread (``System._thread_process`` in :mod:`repro.core.machine`).  When
:func:`kernel_eligible` holds, a block that hits in RAM is served inside
that loop — store effects, then a clock fast-forward or one yielded
delay — instead of a round trip through the ``read_block``/
``write_block`` generators of :mod:`repro.core.host`; every other block
takes those generators, so host semantics are written once.  DESIGN.md
§9 has the contract and the measurements behind it.
"""

from __future__ import annotations

from repro.core.architectures import Architecture

#: Architectures whose RAM hit path the inline run transcribes: the
#: layered RAM tier and the unified cache's RAM-medium buffers.
_INLINE_ARCHITECTURES = (Architecture.NAIVE, Architecture.LOOKASIDE, Architecture.UNIFIED)


def kernel_eligible(system) -> bool:
    """Whether ``system``'s replay serves its RAM hits inline.

    The inline run does what the host generators do on a plain RAM hit
    and nothing more, so it is off — every block takes the generators —
    when a RAM hit would do more: with an attached Observation (events
    and spans per block), a latency timeline (records per block), the
    exclusive architecture, or a flash admission controller (reference
    counting and promotion on a hit).  Modeled directory latency turns
    it off too: a write then stalls on the directory, and such fleets
    spend their time in those stalls and the invalidations behind them.
    Under a sync, async or delayed RAM writeback policy the run stays on
    for read hits; write hits, which start a flush, take the generators.
    """
    config = system.config
    return (
        system.obs is None
        and system.metrics.read_timeline is None
        and config.architecture in _INLINE_ARCHITECTURES
        and config.flash_admission.is_always
        and config.timing.directory.is_instant
    )
