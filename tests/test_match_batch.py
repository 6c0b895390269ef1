"""Batched matching: ``match_batch`` must equal per-tuple ``match``.

The batched fast path shares index probes across a batch (one grouped
stab per distinct value per attribute) and then runs the same compiled
residual stage as the per-tuple path, which skips the entry clause the
stab already proved.  None of that may change a single answer: every
test here compares against the per-tuple path, and the differential
tests also against direct ``Predicate.matches`` evaluation — an oracle
that shares no code with the residual stage both paths run.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AbortMutation,
    BatchEvent,
    CollectAction,
    Database,
    EqualityClause,
    FunctionClause,
    IBSTree,
    Interval,
    IntervalClause,
    MINUS_INF,
    Predicate,
    PredicateIndex,
    RuleEngine,
)


def is_odd(x):
    return x % 2 == 1


BACKENDS = {"ibs": IBSTree}
ATTRS = ["a", "b", "c"]


def build_predicates(rng, count):
    predicates = []
    while len(predicates) < count:
        clauses = []
        for _ in range(rng.randint(1, 3)):
            attr = rng.choice(ATTRS)
            kind = rng.random()
            if kind < 0.25:
                clauses.append(EqualityClause(attr, rng.randint(0, 20)))
            elif kind < 0.55:
                lo = rng.randint(0, 15)
                hi = lo + rng.randint(0, 8)
                if lo == hi:
                    interval = Interval.closed(lo, hi)
                else:
                    interval = Interval(
                        lo, hi, rng.random() < 0.8, rng.random() < 0.8
                    )
                clauses.append(IntervalClause(attr, interval))
            elif kind < 0.7:
                clauses.append(
                    IntervalClause(attr, Interval.at_least(rng.randint(0, 20)))
                )
            elif kind < 0.85:
                clauses.append(
                    IntervalClause(attr, Interval.at_most(rng.randint(0, 20)))
                )
            else:
                clauses.append(FunctionClause(attr, is_odd, name="is_odd"))
        pred = Predicate("r", clauses).normalized()
        if pred is not None:
            predicates.append(pred)
    return predicates


def random_batch(rng, size, duplicate_heavy=False):
    if duplicate_heavy:
        pool = [
            {attr: rng.randint(0, 22) for attr in ATTRS} for _ in range(max(1, size // 4))
        ]
        return [dict(rng.choice(pool)) for _ in range(size)]
    return [{attr: rng.randint(0, 22) for attr in ATTRS} for _ in range(size)]


def ident_rows(rows):
    return [{pred.ident for pred in row} for row in rows]


def direct_rows(index, batch):
    """Reference answers by direct evaluation of every stored predicate."""
    stored = index.predicates_for("r")
    return [{p.ident for p in stored if p.matches(tup)} for tup in batch]


class TestDifferential:
    """match_batch([t1..tn]) == [match(t1)..match(tn)] in every mode."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("multi_clause", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized(self, backend, multi_clause, seed):
        rng = random.Random(seed)
        predicates = build_predicates(rng, 40)
        index = PredicateIndex(
            tree_factory=BACKENDS[backend], multi_clause=multi_clause
        )
        for pred in predicates:
            index.add(pred)
        for trial in range(6):
            batch = random_batch(rng, 25, duplicate_heavy=trial % 2 == 0)
            expected = [index.match_idents("r", tup) for tup in batch]
            assert expected == direct_rows(index, batch)
            assert ident_rows(index.match_batch("r", batch)) == expected
        # removal keeps the compiled-residual table consistent
        for pred in predicates[::3]:
            index.remove(pred.ident)
        batch = random_batch(rng, 20)
        expected = [index.match_idents("r", tup) for tup in batch]
        assert expected == direct_rows(index, batch)
        assert ident_rows(index.match_batch("r", batch)) == expected

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.lists(
            st.fixed_dictionaries(
                {attr: st.integers(min_value=-2, max_value=25) for attr in ATTRS}
            ),
            max_size=20,
        )
    )
    def test_hypothesis_batches(self, backend, batch):
        index = PredicateIndex(tree_factory=BACKENDS[backend])
        for pred in build_predicates(random.Random(99), 30):
            index.add(pred)
        expected = [index.match_idents("r", tup) for tup in batch]
        assert expected == direct_rows(index, batch)
        assert ident_rows(index.match_batch("r", batch)) == expected

    def test_missing_attributes_treated_as_per_tuple(self):
        index = PredicateIndex()
        for pred in build_predicates(random.Random(5), 25):
            index.add(pred)
        batch = [{"a": 3}, {"b": 7, "c": 2}, {}]
        expected = [index.match_idents("r", tup) for tup in batch]
        assert ident_rows(index.match_batch("r", batch)) == expected


@functools.total_ordering
class UnhashablePoint:
    """Comparable with ints but not hashable — defeats value grouping."""

    __hash__ = None

    def __init__(self, v):
        self.v = v

    def _key(self, other):
        return other.v if isinstance(other, UnhashablePoint) else other

    def __eq__(self, other):
        return self.v == self._key(other)

    def __lt__(self, other):
        return self.v < self._key(other)


class TestFallbacks:
    """Values the grouped stab cannot handle fall back, answers unchanged."""

    def test_unhashable_value_falls_back(self):
        index = PredicateIndex()
        index.add(Predicate("r", [IntervalClause("a", Interval.closed(0, 10))]))
        index.add(Predicate("r", [IntervalClause("a", Interval.closed(20, 30))]))
        batch = [{"a": UnhashablePoint(5)}, {"a": 25}, {"a": 99}]
        expected = [index.match_idents("r", tup) for tup in batch]
        assert ident_rows(index.match_batch("r", batch)) == expected
        assert expected[0] and expected[1] and not expected[2]

    def test_sentinel_value_falls_back(self):
        index = PredicateIndex()
        index.add(Predicate("r", [IntervalClause("a", Interval.closed(0, 10))]))
        index.add(Predicate("r", [IntervalClause("a", Interval.at_most(50))]))
        batch = [{"a": MINUS_INF}, {"a": 5}, {"a": 40}]
        expected = [index.match_idents("r", tup) for tup in batch]
        assert ident_rows(index.match_batch("r", batch)) == expected

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_one_adversarial_tuple_does_not_degrade_the_batch(self, backend):
        """Unbatchable values fall back per *tuple*, not per batch.

        The rest of the batch must still go through the batched stages
        (one batch route event), and the logical counters must stay
        path-independent — the fallback tuples report theirs through
        the per-tuple path's own events.
        """
        def loaded():
            index = PredicateIndex(tree_factory=BACKENDS[backend])
            index.add(
                Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1)
            )
            index.add(
                Predicate("r", [IntervalClause("b", Interval.at_most(5))], ident=2)
            )
            return index

        batch = [
            {"a": UnhashablePoint(5), "b": 3},
            {"a": 5, "b": 100},
            {"a": MINUS_INF},
            {"a": 7},
            {"b": None},
        ]
        serial = loaded()
        expected = [serial.match_idents("r", tup) for tup in batch]
        batched = loaded()
        assert ident_rows(batched.match_batch("r", batch)) == expected
        assert batched.stats.batches_matched == 1
        assert serial.stats.logical_counts() == batched.stats.logical_counts()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_none_valued_equals_missing_key(self, backend):
        """The NULL rule: a ``None``-valued attribute behaves exactly
        like a missing key on the per-tuple and the batched path, for
        results and for logical counters alike."""
        def loaded():
            index = PredicateIndex(tree_factory=BACKENDS[backend])
            index.add(
                Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1)
            )
            index.add(
                Predicate(
                    "r", [FunctionClause("a", is_odd, negated=True)], ident=2
                )
            )
            return index

        null_batch = [{"a": None, "b": 1}, {"a": None}]
        missing_batch = [{"b": 1}, {}]
        runs = {}
        for name, batch in (("null", null_batch), ("missing", missing_batch)):
            serial = loaded()
            per_tuple = [serial.match_idents("r", tup) for tup in batch]
            batched = loaded()
            rows = ident_rows(batched.match_batch("r", batch))
            assert rows == per_tuple
            assert serial.stats.logical_counts() == batched.stats.logical_counts()
            runs[name] = (rows, batched.stats.logical_counts())
        assert runs["null"] == runs["missing"]

    def test_stab_many_null_rule(self):
        """``stab_many`` maps ``None`` to ``None`` on every tree shape —
        including the empty tree, where a descent-based answer would
        accidentally return the empty set — matching the pipeline's
        pre-probe NULL skip."""
        from repro.baselines import IntervalList

        for factory in (IBSTree, IntervalList):
            empty = factory()
            assert empty.stab_many([None]) == {None: None}
            loaded = factory()
            loaded.insert(Interval.closed(0, 10), "i")
            table = loaded.stab_many([None, 5, 99])
            assert table[None] is None
            assert table[5] == {"i"}
            assert table[99] == set()

    def test_unknown_relation_and_empty_batch(self):
        index = PredicateIndex()
        assert index.match_batch("nowhere", [{"a": 1}, {"a": 2}]) == [[], []]
        assert index.match_batch("nowhere", []) == []


class TestMemoization:
    """Duplicate-heavy batches: repeated values never change a verdict."""

    def test_interval_residual_memoizes_duplicates(self):
        """Every copy of a repeated tuple passes its interval residual."""
        index = PredicateIndex()
        index.add(
            Predicate(
                "r",
                [
                    EqualityClause("a", 1),  # entry clause (most selective)
                    IntervalClause("b", Interval.at_most(50)),  # open residual
                ],
            )
        )
        batch = [{"a": 1, "b": 2}] * 5
        rows = index.match_batch("r", batch)
        assert all(len(row) == 1 for row in rows)

    def test_function_residual_never_memoized(self):
        """Every copy of a repeated tuple passes its function residual."""
        index = PredicateIndex()
        index.add(
            Predicate(
                "r",
                [EqualityClause("a", 1), FunctionClause("b", is_odd, name="is_odd")],
            )
        )
        batch = [{"a": 1, "b": 3}] * 5
        rows = index.match_batch("r", batch)
        assert all(len(row) == 1 for row in rows)

    def test_equal_but_distinct_types_stay_correct(self):
        """2 == 2.0, yet a type-sensitive residual tells them apart
        within one batch, as it does per tuple."""
        index = PredicateIndex()
        index.add(
            Predicate(
                "r",
                [
                    EqualityClause("a", 1),
                    FunctionClause("b", lambda v: isinstance(v, int), name="is_int"),
                ],
            )
        )
        batch = [{"a": 1, "b": 2}, {"a": 1, "b": 2.0}] * 3
        expected = [index.match_idents("r", tup) for tup in batch]
        assert ident_rows(index.match_batch("r", batch)) == expected
        assert expected[0] and not expected[1]


class TestStatistics:
    def test_batch_counters(self):
        index = PredicateIndex()
        for pred in build_predicates(random.Random(3), 20):
            index.add(pred)
        index.stats.reset()
        batch = random_batch(random.Random(4), 10)
        index.match_batch("r", batch)
        assert index.stats.batches_matched == 1
        assert index.stats.tuples_matched == 10
        assert index.stats.full_matches == sum(
            len(index.match("r", tup)) for tup in batch
        )


def make_db():
    db = Database()
    db.create_relation("emp", ["name", "age", "salary"])
    return db


ROWS = [
    {"name": "A", "age": 30, "salary": 15},
    {"name": "B", "age": 40, "salary": 25},
    {"name": "C", "age": 50, "salary": 12},
]


def make_engine(db, matcher="ibs"):
    collect = CollectAction()
    engine = RuleEngine(db, matcher=matcher)
    engine.create_rule(
        "mid_salary",
        on="emp",
        condition="salary >= 10 and salary <= 20",
        action=collect,
        on_events=("insert", "update"),
    )
    engine.create_rule(
        "senior",
        on="emp",
        condition="age >= 40",
        action=collect,
        on_events=("insert", "update"),
    )
    return engine, collect


def records(collect):
    return sorted((name, tuple(sorted(tup.items()))) for name, tup in collect.records)


class TestBulkMutationsThroughEngine:
    """bulk_insert / bulk_update fire one BatchEvent, same rule firings."""

    @pytest.mark.parametrize(
        "matcher", ["ibs", PredicateIndex()]
    )
    def test_bulk_insert_equals_per_tuple_inserts(self, matcher):
        db_one, db_bulk = make_db(), make_db()
        _, collect_one = make_engine(db_one)
        _, collect_bulk = make_engine(db_bulk, matcher=matcher)
        for row in ROWS:
            db_one.insert("emp", dict(row))
        db_bulk.bulk_insert("emp", [dict(row) for row in ROWS])
        assert records(collect_bulk) == records(collect_one)
        assert db_bulk.count("emp") == len(ROWS)

    def test_bulk_update_equals_per_tuple_updates(self):
        db_one, db_bulk = make_db(), make_db()
        tids_one = [db_one.insert("emp", dict(row)) for row in ROWS]
        tids_bulk = db_bulk.bulk_insert("emp", [dict(row) for row in ROWS])
        _, collect_one = make_engine(db_one)
        _, collect_bulk = make_engine(db_bulk)
        for tid in tids_one:
            db_one.update("emp", tid, {"salary": 18})
        db_bulk.bulk_update("emp", {tid: {"salary": 18} for tid in tids_bulk})
        assert records(collect_bulk) == records(collect_one)

    def test_bulk_insert_is_one_batch_event(self):
        db = make_db()
        seen = []
        db.subscribe(seen.append)
        db.bulk_insert("emp", [dict(row) for row in ROWS])
        assert len(seen) == 1
        (event,) = seen
        assert isinstance(event, BatchEvent)
        assert event.kind == "batch" and len(event) == len(ROWS)
        assert [sub.kind for sub in event] == ["insert"] * len(ROWS)

    def test_bulk_insert_veto_rolls_back_whole_batch(self):
        db = make_db()

        def veto(event):
            if isinstance(event, BatchEvent):
                raise AbortMutation("no batches today")

        db.subscribe(veto)
        with pytest.raises(AbortMutation):
            db.bulk_insert("emp", [dict(row) for row in ROWS])
        assert db.count("emp") == 0

    def test_bulk_update_missing_tid_rolls_back(self):
        db = make_db()
        tids = db.bulk_insert("emp", [dict(row) for row in ROWS])
        with pytest.raises(Exception):
            db.bulk_update("emp", {tids[0]: {"salary": 99}, 10_000: {"salary": 1}})
        assert db.relation("emp").get(tids[0])["salary"] == ROWS[0]["salary"]
