"""Tests for relation statistics and selectivity estimation."""

import pytest

from repro import Database, EqualityClause, FunctionClause, Interval, IntervalClause
from repro.core.selectivity import (
    DefaultEstimator,
    StatisticsEstimator,
    choose_index_clause,
)
from repro.db.statistics import AttributeStatistics
from repro.predicates import Predicate


def is_odd(x):
    return x % 2 == 1


class TestAttributeStatistics:
    def test_exact_equality_selectivity(self):
        stats = AttributeStatistics()
        for v in [1, 1, 2, 3]:
            stats.observe_insert(v)
        assert stats.equality_selectivity(1) == pytest.approx(0.5)
        assert stats.equality_selectivity(9) == 0.0

    def test_interval_selectivity_exact(self):
        stats = AttributeStatistics()
        for v in range(10):
            stats.observe_insert(v)
        sel = stats.interval_selectivity(Interval.closed(0, 4))
        assert sel == pytest.approx(0.5)

    def test_null_handling(self):
        stats = AttributeStatistics()
        stats.observe_insert(None)
        stats.observe_insert(5)
        assert stats.count == 2
        assert stats.null_count == 1
        assert stats.non_null_count == 1
        stats.observe_delete(None)
        assert stats.null_count == 0

    def test_overflow_degrades_gracefully(self):
        stats = AttributeStatistics(max_tracked_values=10)
        for v in range(100):
            stats.observe_insert(v)
        assert stats.value_counts is None
        assert stats.distinct >= 10
        # falls back to uniform interpolation
        sel = stats.interval_selectivity(Interval.closed(0, 49))
        assert 0.3 < sel < 0.7
        assert 0 < stats.equality_selectivity(5) < 1

    def test_empty_uses_defaults(self):
        stats = AttributeStatistics()
        assert stats.equality_selectivity(1) > 0
        assert stats.interval_selectivity(Interval.closed(1, 2)) > 0

    def test_uniform_fraction_non_numeric(self):
        stats = AttributeStatistics(max_tracked_values=2)
        for v in ["a", "b", "c", "d"]:
            stats.observe_insert(v)
        sel = stats.interval_selectivity(Interval.closed("a", "b"))
        assert 0 < sel <= 1  # falls back to shape default

    def test_unorderable_value_counts_as_outside(self):
        # one string among integers: matching leaves it out of every
        # integer range, so the exact estimate must too (not raise)
        stats = AttributeStatistics()
        for v in list(range(10)) + ["x"]:
            stats.observe_insert(v)
        assert stats.interval_selectivity(Interval.at_least(5)) == pytest.approx(5 / 11)
        assert stats.interval_selectivity(Interval.closed("a", "z")) == pytest.approx(
            1 / 11
        )

    def test_uniform_fraction_unorderable_bound(self):
        stats = AttributeStatistics(max_tracked_values=4)
        for v in range(10):
            stats.observe_insert(v)
        assert stats.value_counts is None
        sel = stats.interval_selectivity(Interval.at_least("m"))
        assert 0 < sel <= 1  # falls back to shape default


class TestRelationStatistics:
    def test_clause_selectivities(self):
        db = Database()
        rel = db.create_relation("r", ["x", "dept"])
        for v in range(100):
            db.insert("r", {"x": v, "dept": "Shoe" if v < 20 else "Toy"})
        stats = rel.statistics
        assert stats.clause_selectivity(EqualityClause("dept", "Shoe")) == pytest.approx(0.2)
        assert stats.clause_selectivity(
            IntervalClause("x", Interval.closed(0, 24))
        ) == pytest.approx(0.25)
        assert stats.clause_selectivity(FunctionClause("x", is_odd)) == 1.0

    def test_update_path(self):
        db = Database()
        rel = db.create_relation("r", ["x"])
        tid = db.insert("r", {"x": 1})
        stats = rel.statistics
        stats.attribute("x")  # tracked before the update
        db.update("r", tid, {"x": 2})
        assert stats.clause_selectivity(EqualityClause("x", 2)) == 1.0
        assert stats.clause_selectivity(EqualityClause("x", 1)) == 0.0


class TestDefaultEstimator:
    def test_shape_ordering(self):
        est = DefaultEstimator()
        eq = est.estimate("r", EqualityClause("x", 5))
        bounded = est.estimate("r", IntervalClause("x", Interval.closed(1, 9)))
        half = est.estimate("r", IntervalClause("x", Interval.at_least(1)))
        fn = est.estimate("r", FunctionClause("x", is_odd))
        unbounded = est.estimate("r", IntervalClause("x", Interval.unbounded()))
        assert eq < bounded < half < fn
        assert unbounded == 1.0


class TestStatisticsEstimator:
    def test_uses_data_when_available(self):
        db = Database()
        db.create_relation("r", ["x"])
        for v in range(10):
            db.insert("r", {"x": v})
        est = StatisticsEstimator(db)
        sel = est.estimate("r", EqualityClause("x", 3))
        assert sel == pytest.approx(0.1)

    def test_falls_back_without_data(self):
        db = Database()
        db.create_relation("r", ["x"])
        est = StatisticsEstimator(db)
        assert est.estimate("r", EqualityClause("x", 3)) == DefaultEstimator.EQUALITY
        assert est.estimate("missing", EqualityClause("x", 3)) == DefaultEstimator.EQUALITY


class TestChooseIndexClause:
    def test_most_selective_wins(self):
        pred = Predicate(
            "r",
            [
                IntervalClause("wide", Interval.at_least(1)),
                EqualityClause("narrow", 5),
            ],
        )
        chosen = choose_index_clause(pred)
        assert chosen.attribute == "narrow"

    def test_function_only_returns_none(self):
        pred = Predicate("r", [FunctionClause("x", is_odd)])
        assert choose_index_clause(pred) is None

    def test_tie_break_first_clause(self):
        pred = Predicate("r", [EqualityClause("a", 1), EqualityClause("b", 2)])
        assert choose_index_clause(pred).attribute == "a"

    def test_data_driven_choice_differs_from_default(self):
        db = Database()
        db.create_relation("r", ["common", "rare"])
        # "common = 1" matches everything; "rare >= 50" matches half
        for v in range(100):
            db.insert("r", {"common": 1, "rare": v})
        pred = Predicate(
            "r",
            [
                EqualityClause("common", 1),
                IntervalClause("rare", Interval.at_least(50)),
            ],
        )
        # default constants would pick the equality...
        assert choose_index_clause(pred).attribute == "common"
        # ...but the statistics know better
        est = StatisticsEstimator(db)
        assert choose_index_clause(pred, est).attribute == "rare"
