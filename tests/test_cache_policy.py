"""Tests for eviction policies (LRU, FIFO, CLOCK)."""

import random

import pytest

import repro.policies as policies
from repro.cache.policy import (
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    SLRUPolicy,
)
from repro.errors import CacheError


def make_policy(name, capacity_blocks=0):
    """Tests build evictors through the unified registry."""
    return policies.get("eviction", name, capacity_blocks=capacity_blocks)


class TestLRU:
    def test_victim_is_least_recently_used(self):
        lru = LRUPolicy()
        for key in (1, 2, 3):
            lru.insert(key)
        assert lru.victim() == 1

    def test_touch_promotes(self):
        lru = LRUPolicy()
        for key in (1, 2, 3):
            lru.insert(key)
        lru.touch(1)
        assert lru.victim() == 2

    def test_remove(self):
        lru = LRUPolicy()
        for key in (1, 2):
            lru.insert(key)
        lru.remove(1)
        assert lru.victim() == 2
        assert len(lru) == 1

    def test_skip_filter(self):
        lru = LRUPolicy()
        for key in (1, 2, 3):
            lru.insert(key)
        assert lru.victim(skip=lambda k: k == 1) == 2

    def test_all_skipped_returns_none(self):
        lru = LRUPolicy()
        lru.insert(1)
        assert lru.victim(skip=lambda k: True) is None

    def test_empty_victim_is_none(self):
        assert LRUPolicy().victim() is None

    def test_duplicate_insert_rejected(self):
        lru = LRUPolicy()
        lru.insert(1)
        with pytest.raises(CacheError):
            lru.insert(1)

    def test_iteration_order_lru_first(self):
        lru = LRUPolicy()
        for key in (1, 2, 3):
            lru.insert(key)
        lru.touch(1)
        assert list(lru) == [2, 3, 1]


class TestFIFO:
    def test_victim_is_oldest_insert(self):
        fifo = FIFOPolicy()
        for key in (1, 2, 3):
            fifo.insert(key)
        fifo.touch(1)  # FIFO ignores touches
        assert fifo.victim() == 1

    def test_touch_of_absent_key_rejected(self):
        with pytest.raises(CacheError):
            FIFOPolicy().touch(99)

    def test_remove_and_reinsert(self):
        fifo = FIFOPolicy()
        fifo.insert(1)
        fifo.insert(2)
        fifo.remove(1)
        fifo.insert(1)
        assert fifo.victim() == 2


class TestClock:
    def test_untouched_entry_is_victim(self):
        clock = ClockPolicy()
        for key in (1, 2, 3):
            clock.insert(key)
        assert clock.victim() == 1

    def test_touched_entry_gets_second_chance(self):
        clock = ClockPolicy()
        for key in (1, 2, 3):
            clock.insert(key)
        clock.touch(1)
        assert clock.victim() == 2

    def test_all_touched_still_finds_victim(self):
        clock = ClockPolicy()
        for key in (1, 2, 3):
            clock.insert(key)
            clock.touch(key)
        assert clock.victim() is not None

    def test_empty(self):
        assert ClockPolicy().victim() is None

    def test_skip_filter(self):
        clock = ClockPolicy()
        for key in (1, 2):
            clock.insert(key)
        assert clock.victim(skip=lambda k: k == 1) == 2


class TestSLRU:
    def test_new_keys_are_probationary_victims(self):
        slru = SLRUPolicy(protected_capacity=2)
        for key in (1, 2, 3):
            slru.insert(key)
        assert slru.victim() == 1  # oldest probationary

    def test_touch_promotes_to_protected(self):
        slru = SLRUPolicy(protected_capacity=2)
        for key in (1, 2, 3):
            slru.insert(key)
        slru.touch(1)  # promoted
        assert slru.victim() == 2  # 1 now protected

    def test_scan_resistance(self):
        """A one-pass scan of new keys never evicts the protected set."""
        slru = SLRUPolicy(protected_capacity=2)
        slru.insert(100)
        slru.insert(101)
        slru.touch(100)
        slru.touch(101)  # both protected
        for key in range(10):
            slru.insert(key)
            victim = slru.victim()
            assert victim not in (100, 101)
            slru.remove(victim)

    def test_protected_overflow_demotes(self):
        slru = SLRUPolicy(protected_capacity=1)
        slru.insert(1)
        slru.insert(2)
        slru.touch(1)  # protected = {1}
        slru.touch(2)  # protected full -> demotes 1 to probationary MRU
        assert len(slru) == 2
        # 1 is back in probation, so it's a victim candidate again;
        # but it is *MRU* of probation, so an older probationary key
        # would go first if present.
        slru.insert(3)
        assert slru.victim() == 1  # 1 (demoted) entered probation before 3

    def test_victims_fall_back_to_protected(self):
        slru = SLRUPolicy(protected_capacity=4)
        slru.insert(1)
        slru.touch(1)  # probation empty, 1 protected
        assert slru.victim() == 1

    def test_remove_from_either_segment(self):
        slru = SLRUPolicy(protected_capacity=2)
        slru.insert(1)
        slru.insert(2)
        slru.touch(1)
        slru.remove(1)  # protected
        slru.remove(2)  # probationary
        assert len(slru) == 0

    def test_touch_absent_rejected(self):
        with pytest.raises(CacheError):
            SLRUPolicy().touch(9)

    def test_duplicate_insert_rejected(self):
        slru = SLRUPolicy()
        slru.insert(1)
        with pytest.raises(CacheError):
            slru.insert(1)

    def test_iteration_covers_both_segments(self):
        slru = SLRUPolicy(protected_capacity=2)
        for key in (1, 2, 3):
            slru.insert(key)
        slru.touch(3)
        assert set(slru) == {1, 2, 3}

    def test_skip_filter(self):
        slru = SLRUPolicy(protected_capacity=2)
        for key in (1, 2):
            slru.insert(key)
        assert slru.victim(skip=lambda k: k == 1) == 2

    def test_works_inside_block_store(self):
        from repro.cache.store import BlockStore

        store = BlockStore(4, policy="slru:0.5")
        for block in range(4):
            store.put(block)
        store.get(3)  # protect
        victim = store.pop_victim()
        assert victim.block == 0


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [("lru", LRUPolicy), ("fifo", FIFOPolicy), ("clock", ClockPolicy)],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_policy("LRU"), LRUPolicy)

    def test_slru_with_capacity(self):
        policy = make_policy("slru", capacity_blocks=100)
        assert isinstance(policy, SLRUPolicy)
        assert policy.protected_capacity == 80  # default 80% protected

    def test_slru_explicit_fraction(self):
        policy = make_policy("slru:0.25", capacity_blocks=100)
        assert policy.protected_capacity == 25

    def test_slru_bad_fraction(self):
        with pytest.raises(CacheError):
            make_policy("slru:1.5")
        with pytest.raises(CacheError):
            make_policy("slru:abc")

    def test_unknown_rejected(self):
        with pytest.raises(CacheError):
            make_policy("arc")

    def test_legacy_entry_point_is_gone(self):
        import repro.cache
        import repro.cache.policy as cache_policy

        assert not hasattr(cache_policy, "make_policy")
        assert not hasattr(repro.cache, "make_policy")


class TestVictimContract:
    """The EvictionPolicy.victim(skip) contract, exercised the same way
    across every unparameterized policy:

    * empty policy -> victim() is None, with or without a skip filter;
    * skip everything -> None (never an excluded key, never a crash);
    * skip some -> the victim is a tracked, non-skipped key;
    * no filter -> the victim is a tracked key;
    * remove(victim) always succeeds afterwards (the store's usage).
    """

    POLICIES = [LRUPolicy, FIFOPolicy, ClockPolicy]

    @pytest.mark.parametrize("cls", POLICIES)
    def test_empty_policy_returns_none(self, cls):
        policy = cls()
        assert policy.victim() is None
        assert policy.victim(skip=lambda k: False) is None
        assert policy.victim(skip=lambda k: True) is None

    @pytest.mark.parametrize("cls", POLICIES)
    def test_all_pinned_returns_none(self, cls):
        policy = cls()
        for key in range(8):
            policy.insert(key)
        assert policy.victim(skip=lambda k: True) is None
        # The scan must not disturb membership.
        assert sorted(policy) == list(range(8))

    @pytest.mark.parametrize("cls", POLICIES)
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_random_workload_respects_skip(self, cls, seed):
        rng = random.Random(seed)
        policy = cls()
        tracked = set()
        for step in range(400):
            action = rng.random()
            if action < 0.45 or not tracked:
                key = rng.randrange(64)
                if key not in tracked:
                    policy.insert(key)
                    tracked.add(key)
            elif action < 0.65:
                policy.touch(rng.choice(sorted(tracked)))
            elif action < 0.8:
                key = rng.choice(sorted(tracked))
                policy.remove(key)
                tracked.discard(key)
            else:
                pinned = {k for k in tracked if rng.random() < 0.5}
                victim = policy.victim(skip=lambda k: k in pinned)
                if pinned == tracked:
                    assert victim is None
                else:
                    assert victim in tracked - pinned
                    policy.remove(victim)
                    tracked.discard(victim)
            assert len(policy) == len(tracked)
        assert set(policy) == tracked


class TestRefLedgerEvictionInterplay:
    """The probationary admission ledger must track store membership:
    eviction resets a block's reference count, so a block that cycles
    out of RAM starts probation from scratch when it returns."""

    def _store(self, capacity=4):
        from repro.cache.store import BlockStore

        store = BlockStore(capacity, policy="lru")
        store.enable_ref_ledger()
        return store

    def test_touches_count_refs(self):
        store = self._store()
        store.put(1)
        assert store.ref_count(1) == 0
        store.get(1)
        store.get(1)
        assert store.ref_count(1) == 2

    def test_eviction_resets_refs(self):
        store = self._store(capacity=2)
        store.put(1)
        store.get(1)
        store.get(1)
        store.put(2)  # LRU order: 1 (older insert+touch), then 2 (MRU)
        assert store.ref_count(1) == 2
        victim = store.pop_victim()
        assert victim.block == 1
        assert store.ref_count(1) == 0
        # Re-inserting starts probation from scratch.
        store.put(1)
        assert store.ref_count(1) == 0

    def test_explicit_remove_resets_refs(self):
        store = self._store()
        store.put(5)
        store.get(5)
        assert store.ref_count(5) == 1
        store.remove(5)
        assert store.ref_count(5) == 0

    def test_ledger_disabled_reports_zero(self):
        from repro.cache.store import BlockStore

        store = BlockStore(4, policy="lru")
        store.put(1)
        store.get(1)
        assert store.ref_count(1) == 0

    def test_enable_is_idempotent(self):
        store = self._store()
        touch = store._touch
        store.enable_ref_ledger()
        assert store._touch is touch
