"""Entry-clause re-choice on the scalar index: ``retune()``.

The paper fixes each predicate's entry clause at registration time: the
estimated most selective indexable clause goes into the IBS-tree.
``retune()`` asks the index's own estimator again and moves every
predicate whose best clause now lies on a different attribute, so rules
created before their data stop paying for estimates made without it.
Matching semantics must be bit-for-bit unchanged by any move; only the
candidate counts move.  A steered estimator plays statistics that
shifted after registration.
"""

import pytest

from repro import PredicateIndex
from repro.core.selectivity import StatisticsEstimator
from repro.db import Database
from repro.errors import InjectedFault
from repro.maintenance import MaintenancePolicy
from repro.predicates import PredicateBuilder
from repro.testing import FaultInjector, injected
from tests.conftest import SteeredEstimator


def two_clause_pred():
    # equality on "a" (estimate 0.10, chosen at registration) plus a
    # bounded range on "b" (estimate 0.25): the move target once the
    # estimator prefers "b"
    return PredicateBuilder("r").eq("a", 5).between("b", 0, 100).build()


def adverse_tuples(n):
    # every tuple satisfies a == 5 but fails the "b" range
    return [{"a": 5, "b": 500 + i} for i in range(n)]


def entry_of(idx, ident):
    return idx._relations["r"].indexed_under[ident]


class TestMigration:
    def test_explicit_retune_migrates(self):
        estimator = SteeredEstimator()
        idx = PredicateIndex(estimator=estimator)
        ident = idx.add(two_clause_pred())
        assert entry_of(idx, ident) == ("a",)
        estimator.preferred = "b"
        assert idx.retune("r") == [ident]
        assert entry_of(idx, ident) == ("b",)
        assert idx.check_invariants() is True

    def test_matching_semantics_unchanged_after_migration(self):
        estimator = SteeredEstimator()
        idx = PredicateIndex(estimator=estimator)
        ident = idx.add(two_clause_pred())
        oracle = PredicateIndex()
        oracle.add(two_clause_pred())
        estimator.preferred = "b"
        idx.retune("r")
        for tup in (
            {"a": 5, "b": 50},
            {"a": 5, "b": 500},
            {"a": 4, "b": 50},
            {"a": 4, "b": 500},
            {"a": 5},
            {"b": 50},
        ):
            got = [p.ident for p in idx.match("r", tup)]
            expected = len(oracle.match("r", tup))
            assert got == ([ident] if expected else []), tup

    def test_auto_retune_on_match_path(self):
        estimator = SteeredEstimator()
        idx = PredicateIndex(
            estimator=estimator, maintenance=MaintenancePolicy(retune_interval=20)
        )
        ident = idx.add(two_clause_pred())
        estimator.preferred = "b"
        for tup in adverse_tuples(25):
            idx.match("r", tup)
        assert entry_of(idx, ident) == ("b",)

    def test_auto_retune_on_batch_path(self):
        estimator = SteeredEstimator()
        idx = PredicateIndex(
            estimator=estimator, maintenance=MaintenancePolicy(retune_interval=20)
        )
        ident = idx.add(two_clause_pred())
        estimator.preferred = "b"
        idx.match_batch("r", adverse_tuples(25))
        assert entry_of(idx, ident) == ("b",)
        # batch matching still correct afterwards
        results = idx.match_batch("r", [{"a": 5, "b": 50}, {"a": 5, "b": 500}])
        assert [p.ident for p in results[0]] == [ident]
        assert results[1] == []

    def test_no_migration_when_entry_clause_performs(self):
        # the estimator still ranks the entry clause first
        estimator = SteeredEstimator(preferred="a")
        idx = PredicateIndex(estimator=estimator)
        ident = idx.add(two_clause_pred())
        for _ in range(10):
            idx.match("r", {"a": 99, "b": 50})
        assert idx.retune("r") == []
        assert entry_of(idx, ident) == ("a",)

    def test_no_migration_without_enough_samples(self):
        # with no rows the statistics fall back to the constants, which
        # chose "a" at registration; the rows that show "a = 5" on every
        # tuple make "b" the better entry
        db = Database()
        db.create_relation("r", ["a", "b"])
        idx = PredicateIndex(estimator=StatisticsEstimator(db))
        ident = idx.add(two_clause_pred())
        assert idx.retune("r") == []
        for tup in adverse_tuples(40):
            db.insert("r", tup)
        assert idx.retune("r") == [ident]
        assert entry_of(idx, ident) == ("b",)

    def test_no_migration_for_single_clause_predicates(self):
        estimator = SteeredEstimator()
        idx = PredicateIndex(estimator=estimator)
        ident = idx.add(PredicateBuilder("r").between("x", 0, 10).build())
        estimator.preferred = "y"
        assert idx.retune("r") == []
        assert entry_of(idx, ident) == ("x",)

    def test_multi_clause_indexing_never_migrates(self):
        estimator = SteeredEstimator()
        idx = PredicateIndex(multi_clause=True, estimator=estimator)
        ident = idx.add(two_clause_pred())
        estimator.preferred = "b"
        assert idx.retune("r") == []
        assert entry_of(idx, ident) == ("a", "b")

    def test_retune_without_adaptive_observation_is_noop(self):
        idx = PredicateIndex()  # the System R constants never change
        idx.add(two_clause_pred())
        for tup in adverse_tuples(10):
            idx.match("r", tup)
        assert idx.retune() == []

    def test_feedback_window_resets_after_retune(self):
        """Each retune decides on the estimator's current answers: a
        second one with nothing new moves nothing, and a later shift
        moves the predicate back."""
        estimator = SteeredEstimator()
        idx = PredicateIndex(estimator=estimator)
        ident = idx.add(two_clause_pred())
        estimator.preferred = "b"
        assert idx.retune("r") == [ident]
        assert idx.retune("r") == []
        estimator.preferred = "a"
        assert idx.retune("r") == [ident]
        assert entry_of(idx, ident) == ("a",)
        assert idx.check_invariants() is True


class TestMigrationFaults:
    def test_insert_fault_during_migration_restores_old_entry(self):
        # the moved entries' trees are bulk-loaded to one side before
        # they are swapped in, so a fault there leaves the old entry
        estimator = SteeredEstimator()
        idx = PredicateIndex(estimator=estimator)
        ident = idx.add(two_clause_pred())
        estimator.preferred = "b"
        inj = FaultInjector()
        inj.arm("tree.bulk_load", at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                idx.retune("r")
        # the old entry clause is still in place and matching still works
        assert entry_of(idx, ident) == ("a",)
        assert idx.check_invariants() is True
        assert [p.ident for p in idx.match("r", {"a": 5, "b": 50})] == [ident]
        assert idx.match("r", {"a": 5, "b": 500}) == []
        # the retune goes through once the fault has passed
        assert idx.retune("r") == [ident]
        assert entry_of(idx, ident) == ("b",)
