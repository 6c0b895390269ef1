"""Epoch-versioned stab cache: hits, coherence, and the batch path.

The cache memoizes ``tree.stab(value)`` results keyed by
``(attribute, tree_epoch, value)``.  Coherence rests entirely on the
epoch component: every tree mutation bumps the epoch, so stale entries
become unreachable without any invalidation scan.  These tests pin that
contract — a cached answer must never survive an insert, delete,
retune, or rebuild that could change it.
"""

import random

import pytest

from repro import (
    FlatIBSTree,
    IBSTree,
    Interval,
    IntervalClause,
    Predicate,
    PredicateIndex,
)
from repro.predicates import PredicateBuilder
from tests.conftest import SteeredEstimator

BACKENDS = [IBSTree, FlatIBSTree]


def interval_pred(ident, low, high, attribute="x", relation="r"):
    return Predicate(
        relation, [IntervalClause(attribute, Interval.closed(low, high))], ident=ident
    )


def idents(predicates):
    return sorted(p.ident for p in predicates)


@pytest.mark.parametrize("factory", BACKENDS)
def test_repeated_stabs_hit_the_cache(factory):
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=32)
    for i in range(6):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 15))
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
def test_insert_invalidates_cached_answer(factory):
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=32)
    idx.add(interval_pred("p0", 0, 10))
    assert idents(idx.match("r", {"x": 5})) == ["p0"]
    idx.add(interval_pred("p1", 4, 6))
    assert idents(idx.match("r", {"x": 5})) == ["p0", "p1"]


@pytest.mark.parametrize("factory", BACKENDS)
def test_delete_invalidates_cached_answer(factory):
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=32)
    idx.add(interval_pred("p0", 0, 10))
    idx.add(interval_pred("p1", 4, 6))
    assert idents(idx.match("r", {"x": 5})) == ["p0", "p1"]
    idx.remove("p1")
    assert idents(idx.match("r", {"x": 5})) == ["p0"]
    idx.remove("p0")
    assert idx.match("r", {"x": 5}) == []


@pytest.mark.parametrize("factory", BACKENDS)
def test_rebuild_invalidates_cache(factory):
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=32)
    for i in range(8):
        idx.add(interval_pred(f"p{i}", i, i + 20))
    before = idents(idx.match("r", {"x": 10}))
    idx.verify_and_rebuild()
    assert idents(idx.match("r", {"x": 10})) == before


def test_migration_invalidates_cache():
    estimator = SteeredEstimator()
    idx = PredicateIndex(stab_cache_size=32, estimator=estimator)
    ident = idx.add(
        PredicateBuilder("r").eq("a", 5).between("b", 0, 100).build()
    )
    # warm the cache on the "a" tree, then let the estimates shift
    for _ in range(10):
        assert idx.match("r", {"a": 5, "b": 500}) == []
    estimator.preferred = "b"
    assert idx.retune("r") == [ident]
    rel = idx._relations["r"]
    assert rel.indexed_under[ident] == ("b",)
    # post-migration answers are correct on both the old and new attribute
    assert idents(idx.match("r", {"a": 5, "b": 50})) == [ident]
    assert idx.match("r", {"a": 5, "b": 500}) == []


@pytest.mark.parametrize("factory", BACKENDS)
def test_batch_path_uses_and_fills_the_cache(factory):
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=64)
    for i in range(6):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 15))
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
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=16)
    plain = PredicateIndex(tree_factory=factory)  # no cache: the oracle
    for i in range(20):
        low = rng.randint(0, 80)
        high = low + rng.randint(0, 20)
        for target in (idx, plain):
            target.add(interval_pred(f"p{i}", low, high))
    tuples = [{"x": rng.randint(-5, 110)} for _ in range(40)]
    for round_number in range(6):
        got = idx.match_batch("r", tuples)
        expected = plain.match_batch("r", tuples)
        assert [idents(r) for r in got] == [idents(r) for r in expected]
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
    touches ends on a strictly higher epoch, so cached stabs keyed by
    ``(attribute, tree_epoch, value)`` can never resurface."""
    estimator = SteeredEstimator()
    idx = PredicateIndex(stab_cache_size=32, estimator=estimator)
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
    # never reuse a retired ("a", epoch) cache key
    assert idx._relations["r"].epoch_floor > before["a"]


@pytest.mark.parametrize("factory", BACKENDS)
def test_verify_and_rebuild_bumps_tree_epochs(factory):
    """A rebuild replaces every tree; each replacement must land on an
    epoch above the retired generation's, never reusing a cache key."""
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=32)
    for i in range(8):
        idx.add(interval_pred(f"p{i}", i, i + 20))
    idx.match("r", {"x": 10})  # warm the cache on the old generation
    before = idx.tree_epochs("r")
    # force the rebuild path even on a healthy index
    idx._rebuild_relation("r", idx._relations["r"])
    after = idx.tree_epochs("r")
    assert set(after) == set(before)
    for attribute, epoch in after.items():
        assert epoch > before[attribute], (
            f"tree {attribute!r} reused epoch {epoch} after rebuild"
        )
    # and the cached pre-rebuild answer is unreachable: fresh match agrees
    # with an uncached oracle
    oracle = PredicateIndex(tree_factory=factory)
    for i in range(8):
        oracle.add(interval_pred(f"p{i}", i, i + 20))
    assert idents(idx.match("r", {"x": 10})) == idents(
        oracle.match("r", {"x": 10})
    )


@pytest.mark.parametrize("factory", BACKENDS)
def test_verify_and_rebuild_on_corruption_bumps_epochs(factory):
    """The public self-healing entry point also retires old epochs."""
    idx = PredicateIndex(tree_factory=factory, stab_cache_size=32)
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


def test_cache_evicts_least_recently_used():
    idx = PredicateIndex(stab_cache_size=2)
    for i in range(3):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 5))
    idx.match("r", {"x": 2})    # cache {2}
    idx.match("r", {"x": 12})   # cache {2, 12}
    idx.match("r", {"x": 2})    # hit, refreshes 2
    idx.match("r", {"x": 22})   # evicts 12
    assert idx.stats.stab_cache_hits == 1
    searched = idx.stats.trees_searched
    idx.match("r", {"x": 12})   # miss again: it was evicted
    assert idx.stats.trees_searched == searched + 1
    idx.match("r", {"x": 2})    # still cached? (evicted by the re-probe of 12)
    assert idx.stats.stab_cache_hits >= 1
    assert len(idx._relations["r"].stab_cache) <= 2


def test_unhashable_values_bypass_the_cache():
    idx = PredicateIndex(stab_cache_size=8)
    idx.add(interval_pred("p0", 0, 10))
    # a list value is unhashable: the match must still work, uncached
    assert idx.match("r", {"x": [1, 2]}) == []
    assert idx.stats.stab_cache_hits == 0
    assert idents(idx.match("r", {"x": 5})) == ["p0"]


def test_stats_reset_clears_cache_counter():
    idx = PredicateIndex(stab_cache_size=8)
    idx.add(interval_pred("p0", 0, 10))
    idx.match("r", {"x": 5})
    idx.match("r", {"x": 5})
    assert idx.stats.stab_cache_hits == 1
    idx.stats.reset()
    assert idx.stats.stab_cache_hits == 0


def test_freeze_swaps_cache_to_plain_dict():
    """freeze() must leave only GIL-atomic cache operations behind.

    OrderedDict insertion also splices a C-level linked list, which
    concurrent lock-free readers can corrupt — so freezing replaces the
    LRU odict with a plain dict (and the append-only discipline never
    needs the LRU methods again).
    """
    from collections import OrderedDict

    idx = PredicateIndex(stab_cache_size=8)
    for i in range(4):
        idx.add(interval_pred(f"p{i}", i * 10, i * 10 + 15))
    idx.match("r", {"x": 12})  # warm one entry through the odict path
    assert isinstance(idx._relations["r"].stab_cache, OrderedDict)
    idx.freeze()
    cache = idx._relations["r"].stab_cache
    assert type(cache) is dict
    assert len(cache) == 1  # warm entries survive the swap
    # frozen matching still caches (append-only) and still hits
    hits = idx.stats.stab_cache_hits
    assert idents(idx.match("r", {"x": 12})) == ["p0", "p1"]
    assert idx.stats.stab_cache_hits == hits + 1
    idx.match("r", {"x": 32})
    assert idents(idx.match("r", {"x": 32})) == ["p2", "p3"]
    assert type(idx._relations["r"].stab_cache) is dict
