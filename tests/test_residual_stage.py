"""The one residual stage: invariants of step 4 on every match path.

Per-tuple ``match`` and batched ``match_batch`` hand their candidates
to the same compiled residual stage, so their agreement alone proves
nothing about that stage.  These tests pin what it rests on:

* **sentinels are never probed** — ``MINUS_INF`` / ``PLUS_INF`` in an
  indexed attribute mean "no probe" on every path, like ``None``: the
  answers equal direct ``Predicate.matches`` evaluation, the logical
  counters agree per-tuple vs batch, and ``probes`` leaves them out;
* **registration compiles, reading does not** — after every path that
  enters or drops a predicate, ``state.residuals`` holds exactly the
  live predicates, each compiled against its current entry attributes,
  and no match call on a mutable or frozen index compiles anything;
* **NaN** — the one known disagreement with the sequential baseline,
  pinned as a strict expected failure until its semantics are decided.
"""

import random

import pytest

from repro import (
    MINUS_INF,
    PLUS_INF,
    FunctionClause,
    Interval,
    IntervalClause,
    Predicate,
    PredicateIndex,
)
from repro.disk.checkpoint import load_index, save_index
from repro.errors import InjectedFault
from repro.match import catalog as catalog_module
from repro.match.registry import DEFAULT_REGISTRY
from repro.predicates import PredicateBuilder
from repro.testing import FaultInjector, injected
from tests.conftest import SteeredEstimator

MATCHERS = ["ibs", "columnar"]


def is_odd(x):
    return x % 2 == 1


def loaded(index, predicates):
    for predicate in predicates:
        index.add(predicate)
    return index


def direct(index, relation, tup):
    return {p.ident for p in index.predicates_for(relation) if p.matches(tup)}


def ident_rows(rows):
    return [{p.ident for p in row} for row in rows]


# ----------------------------------------------------------------------
# sentinels are not probed on any path
# ----------------------------------------------------------------------


def sentinel_predicates():
    # unbounded sides on both indexed attributes: a sentinel stab would
    # land in them, so probing one would admit candidates
    return [
        Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1),
        Predicate("r", [IntervalClause("a", Interval.at_most(50))], ident=2),
        Predicate("r", [IntervalClause("a", Interval.at_least(5))], ident=3),
        Predicate("r", [IntervalClause("b", Interval.at_least(-3))], ident=4),
        Predicate(
            "r",
            [
                IntervalClause("b", Interval.closed(0, 4)),
                IntervalClause("a", Interval.at_most(20)),
            ],
            ident=5,
        ),
        Predicate("r", [FunctionClause("c", is_odd, name="is_odd")], ident=6),
    ]


SENTINEL_BATCH = [
    {"a": MINUS_INF, "b": 2, "c": 3},
    {"a": PLUS_INF, "b": PLUS_INF},
    {"a": 7, "b": MINUS_INF, "c": 4},
    {"a": None, "b": 1},
    {"a": 12, "b": None, "c": 1},
    {"b": PLUS_INF, "c": 5},
    {"a": 3.5, "b": 0},
]


@pytest.mark.parametrize("name", MATCHERS)
def test_sentinels_are_not_probed(name):
    def build():
        return loaded(
            DEFAULT_REGISTRY.create_matcher(name), sentinel_predicates()
        )

    serial = build()
    per_tuple = [serial.match_idents("r", tup) for tup in SENTINEL_BATCH]
    expected = [direct(serial, "r", tup) for tup in SENTINEL_BATCH]
    assert per_tuple == expected
    batched = build()
    assert ident_rows(batched.match_batch("r", SENTINEL_BATCH)) == expected
    assert serial.stats.logical_counts() == batched.stats.logical_counts()
    indexed = [a for a in ("a", "b", "c") if serial.tree_for("r", a) is not None]
    finite = sum(
        1
        for tup in SENTINEL_BATCH
        for attribute in indexed
        if tup.get(attribute) not in (None, MINUS_INF, PLUS_INF)
    )
    assert serial.stats.probes == finite
    assert batched.stats.probes == finite


# ----------------------------------------------------------------------
# registration compiles, reading does not
# ----------------------------------------------------------------------


def entry_shape(entry):
    """An entry's kind and tested attribute: closures never compare equal."""
    kind = entry[0]
    if kind in (catalog_module.CLOSED, catalog_module.SINGLE):
        return kind, entry[2]
    return kind, None


def assert_residuals_current(index):
    for relation in index.relations():
        state = index._relations[relation]
        assert set(state.residuals) == set(state.predicates), relation
        for ident, predicate in state.predicates.items():
            expected = catalog_module.compile_residual(
                predicate, state.indexed_under.get(ident, ())
            )
            assert entry_shape(state.residuals[ident]) == entry_shape(expected)
            assert state.residuals[ident][1] is predicate


def mixed_predicates(rng, count, start=0):
    predicates = []
    for ident in range(start, start + count):
        lo = rng.randint(0, 40)
        clauses = [IntervalClause("x", Interval.closed(lo, lo + rng.randint(0, 9)))]
        if rng.random() < 0.5:
            clauses.append(IntervalClause("y", Interval.at_least(rng.randint(0, 5))))
        if rng.random() < 0.2:
            clauses = [FunctionClause("z", is_odd, name="is_odd")]
        predicates.append(Predicate("emp", clauses, ident=ident))
    return predicates


class TestCompileAtRegistration:
    def test_add_add_many_remove(self):
        rng = random.Random(0)
        index = PredicateIndex()
        for predicate in mixed_predicates(rng, 10):
            index.add(predicate)
        assert_residuals_current(index)
        index.add_many(mixed_predicates(rng, 15, start=10))
        assert_residuals_current(index)
        for ident in range(0, 25, 3):
            index.remove(ident)
        assert_residuals_current(index)

    def test_add_rolled_back_by_tree_fault(self):
        index = PredicateIndex()
        index.add(Predicate("emp", [IntervalClause("x", Interval.closed(0, 5))], ident=1))
        injector = FaultInjector()
        injector.arm("tree.insert", at_hit=1)
        with injected(injector):
            with pytest.raises(InjectedFault):
                index.add(
                    Predicate(
                        "emp", [IntervalClause("x", Interval.closed(2, 8))], ident=2
                    )
                )
        assert 2 not in index
        assert_residuals_current(index)

    def test_verify_and_rebuild(self):
        rng = random.Random(1)
        index = loaded(PredicateIndex(), mixed_predicates(rng, 30))
        victim = next(
            ident
            for ident, attrs in index._relations["emp"].indexed_under.items()
            if attrs == ("x",)
        )
        index.tree_for("emp", "x").delete(victim)  # lose a tree entry
        report = index.verify_and_rebuild()
        assert report["rebuilt"] == ["emp"]
        assert_residuals_current(index)

    def _migrating_index(self):
        estimator = SteeredEstimator()
        index = PredicateIndex(estimator=estimator)
        ident = index.add(PredicateBuilder("r").eq("a", 5).between("b", 0, 100).build())
        estimator.preferred = "b"  # statistics shift after registration
        return index, ident

    def test_retune_migration(self):
        index, ident = self._migrating_index()
        assert index.retune("r") == [ident]
        assert index.indexed_attributes(ident) == ("b",)
        assert_residuals_current(index)
        assert entry_shape(index._relations["r"].residuals[ident]) == (
            catalog_module.CLOSED,
            "a",
        )

    def test_disk_cold_start(self, tmp_path):
        rng = random.Random(2)
        source = PredicateIndex(storage="disk", data_dir=str(tmp_path))
        predicates = [
            p
            for p in mixed_predicates(rng, 40)
            if not any(isinstance(c, FunctionClause) for c in p.clauses)
        ]
        loaded(source, predicates)
        save_index(source)
        cold = load_index(str(tmp_path))
        assert_residuals_current(cold)
        tuples = [{"x": rng.randint(-2, 50), "y": rng.randint(0, 6)} for _ in range(50)]
        assert [cold.match_idents("emp", t) for t in tuples] == [
            direct(source, "emp", t) for t in tuples
        ]


@pytest.mark.parametrize("name", MATCHERS)
def test_reading_never_compiles(name, monkeypatch):
    calls = []
    real_compile = catalog_module.compile_residual

    def counting_compile(predicate, proven_attrs):
        calls.append(predicate.ident)
        return real_compile(predicate, proven_attrs)

    monkeypatch.setattr(catalog_module, "compile_residual", counting_compile)
    rng = random.Random(3)
    index = loaded(
        DEFAULT_REGISTRY.create_matcher(name), mixed_predicates(rng, 40)
    )
    assert len(calls) == 40
    tuples = [
        {"x": rng.randint(-2, 50), "y": rng.randint(0, 6), "z": rng.randint(0, 3)}
        for _ in range(30)
    ]
    for frozen in (False, True):
        if frozen:
            index.freeze()
        del calls[:]
        for tup in tuples:
            index.match("emp", tup)
            index.match_idents("emp", tup)
        index.match_batch("emp", tuples)
        assert calls == [], f"frozen={frozen}"


# ----------------------------------------------------------------------
# the known disagreement: NaN
# ----------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "pre-existing: a tree stab sends NaN to the top gap while "
        "Interval.contains accepts it (ROADMAP item 2: one rule for "
        "NaN and the infinity sentinels)"
    ),
)
def test_nan_tuple_agrees_with_sequential():
    predicates = [
        Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1),
        Predicate("r", [IntervalClause("a", Interval.at_least(3))], ident=2),
    ]
    index = loaded(PredicateIndex(), predicates)
    sequential = loaded(DEFAULT_REGISTRY.create_matcher("sequential"), predicates)
    tup = {"a": float("nan")}
    assert index.match_idents("r", tup) == {p.ident for p in sequential.match("r", tup)}
