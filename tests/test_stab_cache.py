"""The stab cache: only a frozen index caches, and it never goes stale.

A mutable index caches nothing.  ``freeze()`` turns on an append-only
cache of up to ``STAB_CACHE_SIZE`` answers per relation, keyed on
``(attribute, value)``: a frozen tree never changes, so nothing is
ever invalidated.  The snapshot facade's bases and overlays are
frozen, so the coherence tests run there: a write lands in a new
overlay, a tombstone or a fresh base, and must never leave a cached
answer stale.  Tree epochs still grow monotonically across tree
generations; the epoch-snapshot layer and the disk tier's segment
currency rely on that.
"""

import random

import pytest

from repro import (
    ConcurrentPredicateIndex,
    IBSTree,
    Interval,
    IntervalClause,
    Predicate,
    PredicateIndex,
)
from repro.match.store import STAB_CACHE_SIZE
from repro.predicates import PredicateBuilder
from tests.conftest import SteeredEstimator

BACKENDS = [IBSTree]


def interval_pred(ident, low, high, attribute="x", relation="r"):
    return Predicate(
        relation, [IntervalClause(attribute, Interval.closed(low, high))], ident=ident
    )


def idents(predicates):
    return sorted(p.ident for p in predicates)


def frozen_index(count, factory=IBSTree, width=15):
    idx = PredicateIndex(tree_factory=factory)
    for i in range(count):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + width))
    idx.freeze()
    return idx


def base_hits(facade):
    """Stab-cache hits of the facade's current frozen base."""
    return facade.snapshot("r").base.stats.stab_cache_hits


@pytest.mark.parametrize("factory", BACKENDS)
def test_repeated_stabs_hit_the_cache(factory):
    idx = frozen_index(6, factory)
    baseline = idx.stats.trees_searched
    first = idx.match("r", {"x": 12})
    assert idx.stats.trees_searched == baseline + 1
    second = idx.match("r", {"x": 12})
    assert idents(first) == idents(second)
    assert idx.stats.stab_cache_hits == 1
    # a cache hit does not probe the tree again
    assert idx.stats.trees_searched == baseline + 1


def test_cache_disabled_by_default():
    idx = PredicateIndex()
    idx.add(interval_pred("p0", 0, 10))
    idx.match("r", {"x": 5})
    idx.match("r", {"x": 5})
    assert idx.stats.stab_cache_hits == 0
    assert idx.stats.trees_searched == 2


@pytest.mark.parametrize("factory", BACKENDS)
def test_mutable_index_never_caches(factory):
    idx = PredicateIndex(tree_factory=factory)
    for i in range(6):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 15))
    tuples = [{"x": 12}, {"x": 40}, {"x": 12}]
    for _ in range(3):
        idx.match("r", {"x": 12})
        idx.match_batch("r", tuples)
    assert idx.stats.stab_cache_hits == 0
    # every per-tuple match and every batch descended the tree
    assert idx.stats.trees_searched == 6
    assert idx._relations["r"].stab_cache is None


def test_freeze_turns_the_cache_on():
    idx = PredicateIndex()
    for i in range(4):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 15))
    idx.match("r", {"x": 12})
    idx.match("r", {"x": 12})
    assert idx.stats.stab_cache_hits == 0
    idx.freeze()
    assert idents(idx.match("r", {"x": 12})) == ["p0", "p1"]
    assert idents(idx.match("r", {"x": 12})) == ["p0", "p1"]
    assert idx.stats.stab_cache_hits == 1
    assert idx.stats.trees_searched == 3


def test_cache_stops_adding_at_stab_cache_size():
    idx = frozen_index(1, width=2 * STAB_CACHE_SIZE)
    # fill it through the batch path, past the cap
    values = range(STAB_CACHE_SIZE + 10)
    rows = idx.match_batch("r", [{"x": v} for v in values])
    assert all(idents(row) == ["p0"] for row in rows)
    cache = idx._relations["r"].stab_cache
    assert len(cache) == STAB_CACHE_SIZE
    # nothing is evicted: the first values still hit, a later one
    # descends the tree again and is still not added
    hits = idx.stats.stab_cache_hits
    assert idents(idx.match("r", {"x": 0})) == ["p0"]
    assert idx.stats.stab_cache_hits == hits + 1
    searched = idx.stats.trees_searched
    assert idents(idx.match("r", {"x": STAB_CACHE_SIZE + 5})) == ["p0"]
    assert idx.stats.trees_searched == searched + 1
    assert len(cache) == STAB_CACHE_SIZE


@pytest.mark.parametrize("factory", BACKENDS)
def test_insert_invalidates_cached_answer(factory):
    idx = ConcurrentPredicateIndex(tree_factory=factory)
    idx.add_many([interval_pred("p0", 0, 10)])  # folded into the base
    assert idents(idx.match("r", {"x": 5})) == ["p0"]
    idx.add(interval_pred("p1", 4, 6))  # lands in the overlay
    assert idents(idx.match("r", {"x": 5})) == ["p0", "p1"]
    # the base answered from its cache; the overlay added the write
    assert base_hits(idx) == 1


@pytest.mark.parametrize("factory", BACKENDS)
def test_delete_invalidates_cached_answer(factory):
    idx = ConcurrentPredicateIndex(tree_factory=factory)
    idx.add_many([interval_pred("p0", 0, 10), interval_pred("p1", 4, 6)])
    assert idents(idx.match("r", {"x": 5})) == ["p0", "p1"]
    idx.remove("p1")  # a tombstone over the cached answer
    assert idents(idx.match("r", {"x": 5})) == ["p0"]
    assert base_hits(idx) == 1
    idx.remove("p0")
    assert idx.match("r", {"x": 5}) == []


@pytest.mark.parametrize("factory", BACKENDS)
def test_rebuild_invalidates_cache(factory):
    idx = ConcurrentPredicateIndex(tree_factory=factory)
    idx.add_many([interval_pred(f"p{i}", i, i + 20) for i in range(8)])
    before = idents(idx.match("r", {"x": 10}))
    old_base = idx.snapshot("r").base
    idx.shard("r").rebuild()
    assert idx.snapshot("r").base is not old_base
    assert idents(idx.match("r", {"x": 10})) == before
    # the fresh base starts with a cold cache of its own
    assert base_hits(idx) == 0


def test_migration_invalidates_cache():
    estimator = SteeredEstimator()
    idx = ConcurrentPredicateIndex(estimator=estimator)
    pred = PredicateBuilder("r").eq("a", 5).between("b", 0, 100).build()
    [ident] = idx.add_many([pred])
    # warm the cache on the "a" tree, then let the estimates shift
    for _ in range(10):
        assert idx.match("r", {"a": 5, "b": 500}) == []
    assert base_hits(idx) == 9
    estimator.preferred = "b"
    assert idx.retune("r") == [ident]
    assert idx.snapshot("r").base.indexed_attributes(ident) == ("b",)
    # post-migration answers are correct on both the old and new attribute
    assert idents(idx.match("r", {"a": 5, "b": 50})) == [ident]
    assert idx.match("r", {"a": 5, "b": 500}) == []


@pytest.mark.parametrize("factory", BACKENDS)
def test_batch_path_uses_and_fills_the_cache(factory):
    idx = frozen_index(6, factory)
    tuples = [{"x": 12}, {"x": 40}, {"x": 12}]
    first = idx.match_batch("r", tuples)
    # within one batch duplicates are deduped, not cache hits; a second
    # batch over the same values is all hits
    hits_after_first = idx.stats.stab_cache_hits
    second = idx.match_batch("r", tuples)
    assert idx.stats.stab_cache_hits > hits_after_first
    assert [idents(r) for r in first] == [idents(r) for r in second]
    # and the single-tuple path shares the same cache
    assert idents(idx.match("r", {"x": 40})) == idents(first[1])


@pytest.mark.parametrize("factory", BACKENDS)
def test_batch_path_cache_coherent_across_mutations(factory):
    rng = random.Random(7)
    # a small threshold folds often: overlays, tombstones and fresh
    # bases all serve batches between the mutations
    idx = ConcurrentPredicateIndex(tree_factory=factory, compaction_threshold=4)
    plain = PredicateIndex(tree_factory=factory)  # no cache: the oracle
    for i in range(20):
        low = rng.randint(0, 80)
        high = low + rng.randint(0, 20)
        for target in (idx, plain):
            target.add(interval_pred(f"p{i}", low, high))
    tuples = [{"x": rng.randint(-5, 110)} for _ in range(40)]
    for round_number in range(6):
        expected = [idents(r) for r in plain.match_batch("r", tuples)]
        for _ in range(2):  # the second pass answers from the base's cache
            assert [idents(r) for r in idx.match_batch("r", tuples)] == expected
        assert base_hits(idx) > 0
        # mutate both between rounds
        victim = f"p{rng.randrange(20)}"
        if victim in idx:
            idx.remove(victim)
            plain.remove(victim)
        low = rng.randint(0, 80)
        fresh = interval_pred(f"n{round_number}", low, low + 10)
        idx.add(fresh)
        plain.add(interval_pred(f"n{round_number}", low, low + 10))


def test_retune_bumps_tree_epochs():
    """Migration must retire the old generation: any tree the retune
    touches ends on a strictly higher epoch, so no epoch-snapshot
    reader or disk segment can confuse two generations."""
    estimator = SteeredEstimator()
    idx = PredicateIndex(estimator=estimator)
    ident = idx.add(
        PredicateBuilder("r").eq("a", 5).between("b", 0, 100).build()
    )
    for _ in range(10):
        idx.match("r", {"a": 5, "b": 500})
    before = idx.tree_epochs("r")
    estimator.preferred = "b"
    assert idx.retune("r") == [ident]
    after = idx.tree_epochs("r")
    # the source tree is gone (or re-created on a later epoch), and the
    # destination tree's epoch does not collide with any retired one
    assert after != before
    for attribute, epoch in after.items():
        assert attribute not in before or epoch > before[attribute]
    # the migration destination now carries the entry clause
    assert "b" in after and "a" not in after
    # retiring the source tree raised the floor: a future "a" tree can
    # never reuse a retired ("a", epoch) pair
    assert idx._relations["r"].epoch_floor > before["a"]


@pytest.mark.parametrize("factory", BACKENDS)
def test_verify_and_rebuild_bumps_tree_epochs(factory):
    """A rebuild replaces every tree; each replacement must land on an
    epoch above the retired generation's, never reusing one."""
    idx = PredicateIndex(tree_factory=factory)
    for i in range(8):
        idx.add(interval_pred(f"p{i}", i, i + 20))
    idx.match("r", {"x": 10})
    before = idx.tree_epochs("r")
    # force the rebuild path even on a healthy index
    idx._rebuild_relation("r", idx._relations["r"])
    after = idx.tree_epochs("r")
    assert set(after) == set(before)
    for attribute, epoch in after.items():
        assert epoch > before[attribute], (
            f"tree {attribute!r} reused epoch {epoch} after rebuild"
        )
    # the rebuilt index agrees with a fresh one
    oracle = PredicateIndex(tree_factory=factory)
    for i in range(8):
        oracle.add(interval_pred(f"p{i}", i, i + 20))
    assert idents(idx.match("r", {"x": 10})) == idents(
        oracle.match("r", {"x": 10})
    )


@pytest.mark.parametrize("factory", BACKENDS)
def test_verify_and_rebuild_on_corruption_bumps_epochs(factory):
    """The public self-healing entry point also retires old epochs."""
    idx = PredicateIndex(tree_factory=factory)
    for i in range(8):
        idx.add(interval_pred(f"p{i}", i, i + 20))
    before = idx.tree_epochs("r")
    report = idx.verify_and_rebuild()
    after = idx.tree_epochs("r")
    if report["rebuilt"]:
        for attribute, epoch in after.items():
            assert epoch > before.get(attribute, -1)
    else:
        # healthy index: no rebuild, epochs untouched
        assert after == before


def test_tree_epochs_unknown_relation_is_empty():
    assert PredicateIndex().tree_epochs("nope") == {}


def test_unhashable_values_bypass_the_cache():
    idx = frozen_index(1, width=10)
    # a list value is unhashable: the match must still work, uncached
    assert idx.match("r", {"x": [1, 2]}) == []
    assert idx.stats.stab_cache_hits == 0
    assert len(idx._relations["r"].stab_cache) == 0
    assert idents(idx.match("r", {"x": 5})) == ["p0"]


def test_stats_reset_clears_cache_counter():
    idx = frozen_index(1, width=10)
    idx.match("r", {"x": 5})
    idx.match("r", {"x": 5})
    assert idx.stats.stab_cache_hits == 1
    idx.stats.reset()
    assert idx.stats.stab_cache_hits == 0


def test_freeze_swaps_cache_to_plain_dict():
    """freeze() must leave only GIL-atomic cache operations behind.

    Concurrent lock-free readers share a frozen index's cache, so it is
    a plain dict that is only ever read and appended to; its keys are
    ``(attribute, value)``, since a frozen tree never changes.
    """
    idx = PredicateIndex()
    for i in range(4):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 15))
    assert idx._relations["r"].stab_cache is None
    idx.freeze()
    cache = idx._relations["r"].stab_cache
    assert type(cache) is dict and not cache
    assert idents(idx.match("r", {"x": 12})) == ["p0", "p1"]
    assert idents(idx.match("r", {"x": 32})) == ["p2", "p3"]
    assert idx._relations["r"].stab_cache is cache
    assert cache == {
        ("x", 12): frozenset({"p0", "p1"}),
        ("x", 32): frozenset({"p2", "p3"}),
    }
