"""Differential tests for ``bulk_load`` across the three pointer-tree backends.

The O(N) bulk loader must be observationally identical to N incremental
inserts: same stab answers at every interesting probe, same invariants
(including the red-black colour rules and AVL balance), and the loaded
tree must remain a fully dynamic tree afterwards — inserts and deletes
on top of a bulk-loaded structure behave exactly as on a grown one.
"""

import random

import pytest

from repro import (
    AVLIBSTree,
    IBSTree,
    Interval,
    IntervalClause,
    Predicate,
    PredicateIndex,
    RBIBSTree,
)
from repro.errors import DuplicateIntervalError, PredicateError, TreeError

BACKENDS = [IBSTree, AVLIBSTree, RBIBSTree]
SEEDS = [0, 1, 2]


def random_interval(rng):
    low = rng.randint(-50, 150)
    shape = rng.randrange(6)
    if shape == 0:
        return Interval.point(low)
    if shape == 1:
        return Interval.at_least(low)
    if shape == 2:
        return Interval.at_most(low)
    span = rng.randint(0, 40)
    return Interval(
        low,
        low + span,
        low_inclusive=span == 0 or rng.random() < 0.5,
        high_inclusive=span == 0 or rng.random() < 0.5,
    )


def probes(items):
    values = {-1000, 1000}
    for interval, _ in items:
        for value in (interval.low, interval.high):
            if isinstance(value, int):
                values.update((value - 1, value, value + 1))
    return sorted(values)


@pytest.mark.parametrize("factory", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 350])
def test_bulk_load_equals_incremental(factory, seed, n):
    rng = random.Random(seed * 1000 + n)
    items = [(random_interval(rng), f"p{i}") for i in range(n)]
    bulk = factory()
    assert bulk.bulk_load(items) == [ident for _, ident in items]
    incremental = factory()
    for interval, ident in items:
        incremental.insert(interval, ident)
    assert bulk.check_invariants() is True
    assert len(bulk) == len(incremental) == n
    for value in probes(items):
        assert bulk.stab(value) == incremental.stab(value), value
    assert dict(bulk.items()) == dict(incremental.items())


@pytest.mark.parametrize("factory", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_loaded_tree_stays_dynamic(factory, seed):
    rng = random.Random(seed)
    items = [(random_interval(rng), f"p{i}") for i in range(60)]
    bulk = factory()
    bulk.bulk_load(items)
    incremental = factory()
    for interval, ident in items:
        incremental.insert(interval, ident)
    # interleave deletes of loaded intervals with fresh inserts
    extra = []
    for i in range(30):
        victim = f"p{rng.randrange(60)}"
        if victim in bulk:
            bulk.delete(victim)
            incremental.delete(victim)
        interval = random_interval(rng)
        ident = f"x{i}"
        extra.append((interval, ident))
        bulk.insert(interval, ident)
        incremental.insert(interval, ident)
    assert bulk.check_invariants() is True
    for value in probes(items + extra):
        assert bulk.stab(value) == incremental.stab(value), value


@pytest.mark.parametrize("factory", BACKENDS)
def test_bulk_load_requires_empty_tree(factory):
    tree = factory()
    tree.insert(Interval.closed(1, 5), "a")
    with pytest.raises(TreeError):
        tree.bulk_load([(Interval.closed(2, 3), "b")])
    # the occupied tree is untouched
    assert sorted(tree.stab(2)) == ["a"]


@pytest.mark.parametrize("factory", BACKENDS)
def test_bulk_load_rejects_duplicate_idents_atomically(factory):
    tree = factory()
    items = [
        (Interval.closed(1, 5), "a"),
        (Interval.closed(2, 8), "b"),
        (Interval.closed(3, 9), "a"),  # duplicate
    ]
    with pytest.raises(DuplicateIntervalError):
        tree.bulk_load(items)
    # all-or-nothing: the failed load left the tree empty and reusable
    assert len(tree) == 0
    assert tree.check_invariants() is True
    tree.bulk_load([(Interval.closed(1, 5), "a"), (Interval.closed(2, 8), "b")])
    assert sorted(tree.stab(3)) == ["a", "b"]


@pytest.mark.parametrize("factory", BACKENDS)
def test_bulk_load_assigns_fresh_idents_for_none(factory):
    tree = factory()
    idents = tree.bulk_load(
        [(Interval.closed(0, 10), None), (Interval.closed(5, 15), "named"),
         (Interval.closed(20, 30), None)]
    )
    assert idents[1] == "named"
    assert len(set(idents)) == 3
    assert tree.stab(7) == {idents[0], "named"}


@pytest.mark.parametrize("factory", BACKENDS)
def test_bulk_load_bumps_epoch(factory):
    tree = factory()
    before = tree.epoch
    tree.bulk_load([(Interval.closed(0, 10), "a")])
    assert tree.epoch > before
    mid = tree.epoch
    tree.insert(Interval.closed(1, 2), "b")
    assert tree.epoch > mid
    after_insert = tree.epoch
    tree.delete("b")
    assert tree.epoch > after_insert
    last = tree.epoch
    tree.clear()
    assert tree.epoch > last


@pytest.mark.parametrize("factory", [AVLIBSTree, RBIBSTree])
def test_bulk_load_is_balanced(factory):
    # 1000 distinct endpoints -> midpoint build height ~ log2(1002)+1 = 11
    tree = factory()
    tree.bulk_load([(Interval.point(i), f"p{i}") for i in range(1000)])
    tree.validate()
    assert tree.height <= 12


@pytest.mark.parametrize("factory", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_add_many_matches_sequential_add(factory, seed):
    rng = random.Random(seed)

    def predicates():
        preds = []
        for i in range(40):
            interval = random_interval(rng)
            preds.append(
                Predicate(
                    "emp",
                    [IntervalClause("salary", interval)],
                    ident=f"p{i}",
                )
            )
        return preds

    preds = predicates()
    bulk_idx = PredicateIndex(tree_factory=factory)
    assert bulk_idx.add_many(preds) == [p.ident for p in preds]
    seq_idx = PredicateIndex(tree_factory=factory)
    for pred in preds:
        seq_idx.add(pred)
    for value in range(-60, 200, 3):
        tup = {"salary": value}
        assert (
            sorted(p.ident for p in bulk_idx.match("emp", tup))
            == sorted(p.ident for p in seq_idx.match("emp", tup))
        )
    assert bulk_idx.check_invariants() is True


def test_add_many_is_atomic_on_duplicates():
    idx = PredicateIndex()
    idx.add(
        Predicate("emp", [IntervalClause("salary", Interval.closed(0, 10))], ident="p0")
    )
    batch = [
        Predicate("emp", [IntervalClause("salary", Interval.closed(5, 15))], ident="q1"),
        Predicate("emp", [IntervalClause("salary", Interval.closed(7, 20))], ident="p0"),
    ]
    with pytest.raises(PredicateError):
        idx.add_many(batch)
    assert "q1" not in idx
    assert sorted(p.ident for p in idx.match("emp", {"salary": 8})) == ["p0"]
    assert idx.check_invariants() is True


@pytest.mark.parametrize("factory", BACKENDS)
def test_verify_and_rebuild_uses_bulk_load(factory, monkeypatch):
    idx = PredicateIndex(tree_factory=factory)
    for i in range(25):
        idx.add(
            Predicate(
                "emp",
                [IntervalClause("salary", Interval.closed(i, i + 10))],
                ident=f"p{i}",
            )
        )
    # corrupt: drop one entry from the tree behind the registry's back
    rel = idx._relations["emp"]
    rel.trees["salary"].delete("p3")

    calls = []
    original = factory.bulk_load

    def spying(self, items):
        calls.append(1)
        return original(self, items)

    monkeypatch.setattr(factory, "bulk_load", spying)
    report = idx.verify_and_rebuild()
    assert not report["healthy"]
    assert report["rebuilt"] == ["emp"]
    assert calls, "rebuild did not go through bulk_load"
    assert sorted(p.ident for p in idx.match("emp", {"salary": 3})) == [
        "p0", "p1", "p2", "p3",
    ]
