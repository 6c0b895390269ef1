"""Tests for the forward-chaining rule engine."""

import threading

import pytest

from repro import (
    AbortAction,
    AbortMutation,
    CollectAction,
    Database,
    DeleteAction,
    InsertAction,
    RuleEngine,
    UpdateAction,
    chain,
)
from repro.baselines.base import PredicateMatcher
from repro.core.predicate_index import PredicateIndex
from repro.errors import (
    DuplicateRuleError,
    RuleCycleError,
    RuleError,
    TransactionError,
    UnknownRelationError,
    UnknownRuleError,
)

FNS = {"isodd": lambda x: x % 2 == 1}


class FailingRemoveMatcher(PredicateMatcher):
    """A scalar index whose remove of ``fail_on`` raises, once."""

    name = "failing-remove"

    def __init__(self):
        self.inner = PredicateIndex()
        self.fail_on = None

    def add(self, predicate):
        return self.inner.add(predicate)

    def remove(self, ident):
        if ident == self.fail_on:
            self.fail_on = None
            raise RuntimeError(f"remove of {ident!r} failed")
        return self.inner.remove(ident)

    def match(self, relation, tup):
        return self.inner.match(relation, tup)

    def __len__(self):
        return len(self.inner)


@pytest.fixture
def db():
    database = Database()
    database.create_relation("emp", ["name", "age", "salary", "dept"])
    database.create_relation("alerts", ["message"])
    return database


@pytest.fixture
def engine(db):
    return RuleEngine(db, functions=FNS)


class TestBasicFiring:
    def test_insert_triggers_matching_rule(self, db, engine):
        collect = CollectAction()
        engine.create_rule("r1", on="emp", condition="salary > 100", action=collect)
        db.insert("emp", {"name": "A", "salary": 200})
        db.insert("emp", {"name": "B", "salary": 50})
        assert [name for name, _ in collect.records] == ["r1"]
        assert collect.records[0][1]["name"] == "A"

    def test_update_triggers(self, db, engine):
        collect = CollectAction()
        engine.create_rule("r1", on="emp", condition="salary > 100", action=collect)
        tid = db.insert("emp", {"name": "A", "salary": 50})
        assert len(collect.records) == 0
        db.update("emp", tid, {"salary": 500})
        assert len(collect.records) == 1

    def test_delete_does_not_trigger_by_default(self, db, engine):
        collect = CollectAction()
        engine.create_rule("r1", on="emp", condition="salary > 100", action=collect)
        tid = db.insert("emp", {"name": "A", "salary": 200})
        collect.clear()
        db.delete("emp", tid)
        assert len(collect.records) == 0

    def test_on_events_delete(self, db, engine):
        collect = CollectAction()
        engine.create_rule(
            "bye", on="emp", condition="salary > 100", action=collect,
            on_events=("delete",),
        )
        tid = db.insert("emp", {"name": "A", "salary": 200})
        assert len(collect.records) == 0
        db.delete("emp", tid)
        assert len(collect.records) == 1

    def test_none_condition_matches_all(self, db, engine):
        collect = CollectAction()
        engine.create_rule("all", on="emp", condition=None, action=collect)
        db.insert("emp", {"name": "A"})
        assert len(collect.records) == 1

    def test_disjunctive_rule_fires_once(self, db, engine):
        collect = CollectAction()
        engine.create_rule(
            "either", on="emp", condition="age < 10 or salary < 10", action=collect
        )
        db.insert("emp", {"name": "A", "age": 5, "salary": 5})
        assert len(collect.records) == 1

    def test_disabled_rule(self, db, engine):
        collect = CollectAction()
        rule = engine.create_rule("r1", on="emp", condition="true", action=collect)
        rule.enabled = False
        db.insert("emp", {"name": "A"})
        assert len(collect.records) == 0

    def test_match_tuple_direct(self, db, engine):
        engine.create_rule("r1", on="emp", condition="age > 5", action=lambda ctx: None)
        matched = engine.match_tuple("emp", {"age": 9})
        assert [r.name for r in matched] == ["r1"]
        assert engine.match_tuple("emp", {"age": 1}) == []


class TestRuleManagement:
    def test_duplicate_name_rejected(self, db, engine):
        engine.create_rule("r1", on="emp", condition="true", action=lambda ctx: None)
        with pytest.raises(DuplicateRuleError):
            engine.create_rule("r1", on="emp", condition="true", action=lambda ctx: None)

    def test_unknown_relation_rejected(self, db, engine):
        with pytest.raises(UnknownRelationError):
            engine.create_rule("r1", on="ghost", condition="true", action=lambda ctx: None)

    def test_unsatisfiable_condition_rejected(self, db, engine):
        with pytest.raises(RuleError):
            engine.create_rule(
                "dead", on="emp", condition="age > 9 and age < 3", action=lambda ctx: None
            )

    def test_non_callable_action_rejected(self, db, engine):
        with pytest.raises(RuleError):
            engine.create_rule("r1", on="emp", condition="true", action="boom")

    def test_bad_event_kind_rejected(self, db, engine):
        with pytest.raises(RuleError):
            engine.create_rule(
                "r1", on="emp", condition="true", action=lambda ctx: None,
                on_events=("explode",),
            )
        with pytest.raises(RuleError):
            engine.create_rule(
                "r2", on="emp", condition="true", action=lambda ctx: None,
                on_events=(),
            )

    def test_drop_rule(self, db, engine):
        collect = CollectAction()
        engine.create_rule("r1", on="emp", condition="true", action=collect)
        engine.drop_rule("r1")
        db.insert("emp", {"name": "A"})
        assert len(collect.records) == 0
        with pytest.raises(UnknownRuleError):
            engine.drop_rule("r1")
        with pytest.raises(UnknownRuleError):
            engine.rule("r1")

    def test_failed_drop_keeps_the_rule(self, db):
        # the second disjunct's remove fails: the first goes back in and
        # the rule stays registered, firing, and droppable
        matcher = FailingRemoveMatcher()
        engine = RuleEngine(db, matcher=matcher)
        collect = CollectAction()
        rule = engine.create_rule(
            "r1", on="emp", condition="age < 10 or age > 90", action=collect
        )
        idents = [predicate.ident for predicate in rule.group]
        assert len(idents) == 2
        matcher.fail_on = idents[1]
        with pytest.raises(RuntimeError):
            engine.drop_rule("r1")
        assert [r.name for r in engine.rules()] == ["r1"] and len(engine) == 1
        assert len(matcher) == 2
        db.insert("emp", {"name": "A", "age": 5})
        db.insert("emp", {"name": "B", "age": 95})
        assert [name for name, _ in collect.records] == ["r1", "r1"]
        engine.drop_rule("r1")
        assert len(engine) == 0 and len(matcher) == 0
        db.insert("emp", {"name": "C", "age": 5})
        assert len(collect.records) == 2

    @pytest.mark.parametrize("matcher", ["ibs", "ibs-concurrent"])
    def test_unorderable_value_leaves_rule_changes_working(self, matcher):
        db = Database()
        db.create_relation("r", ["a", "b"])
        engine = RuleEngine(db, matcher=matcher)
        collect = CollectAction()
        for i in range(10):
            db.insert("r", {"a": i, "b": i})
        engine.create_rule("low", on="r", condition="a <= 2 and b >= 0", action=collect)
        engine.create_rule("high", on="r", condition="a >= 7 and b >= 0", action=collect)
        db.insert("r", {"a": "x", "b": 1})  # a string among the integers
        engine.create_rule("ge5", on="r", condition="a >= 5", action=collect)
        engine.create_rule("on_b", on="r", condition="b <= 3", action=collect)
        compact = getattr(engine.matcher, "compact", None)
        if compact is not None:
            compact()
        engine.drop_rule("low")
        collect.clear()
        db.insert("r", {"a": "x", "b": 2})
        db.insert("r", {"a": 8, "b": 9})
        assert sorted(name for name, _ in collect.records) == ["ge5", "high", "on_b"]

    def test_rules_listing_and_fire_count(self, db, engine):
        collect = CollectAction()
        rule = engine.create_rule("r1", on="emp", condition="true", action=collect)
        engine.create_rule("r2", on="emp", condition="age > 100", action=collect)
        db.insert("emp", {"name": "A", "age": 1})
        assert len(engine) == 2
        assert [r.name for r in engine.rules()] == ["r1", "r2"]
        assert rule.fire_count == 1
        assert engine.rule("r2").fire_count == 0

    def test_close_detaches(self, db, engine):
        collect = CollectAction()
        engine.create_rule("r1", on="emp", condition="true", action=collect)
        engine.close()
        db.insert("emp", {"name": "A"})
        assert len(collect.records) == 0

    def test_unknown_matcher_strategy(self, db):
        with pytest.raises(RuleError):
            RuleEngine(db, matcher="bogus")

    def test_unknown_mode(self, db):
        with pytest.raises(RuleError):
            RuleEngine(db, mode="sometimes")


class TestConflictResolution:
    def test_priority_order(self, db, engine):
        order = []
        engine.create_rule(
            "low", on="emp", condition="true",
            action=lambda ctx: order.append("low"), priority=1,
        )
        engine.create_rule(
            "high", on="emp", condition="true",
            action=lambda ctx: order.append("high"), priority=10,
        )
        db.insert("emp", {"name": "A"})
        assert order == ["high", "low"]

    def test_recency_depth_first(self, db, engine):
        """Rules triggered by an action fire before remaining agenda."""
        order = []

        def spawn_alert(ctx):
            order.append("spawn")
            ctx.db.insert("alerts", {"message": "hi"})

        engine.create_rule("spawner", on="emp", condition="true", action=spawn_alert,
                           priority=5)
        engine.create_rule("late", on="emp", condition="true",
                           action=lambda ctx: order.append("late"), priority=0)
        engine.create_rule("on_alert", on="alerts", condition="true",
                           action=lambda ctx: order.append("alert"), priority=0)
        db.insert("emp", {"name": "A"})
        assert order == ["spawn", "alert", "late"]


class TestCascades:
    def test_fixpoint_update_cascade(self, db, engine):
        db.create_relation("counters", ["n"])
        engine.create_rule(
            "inc", on="counters", condition="n < 5",
            action=UpdateAction(lambda ctx: {"n": ctx.tuple["n"] + 1}),
        )
        tid = db.insert("counters", {"n": 0})
        assert db.relation("counters").get(tid)["n"] == 5

    def test_cycle_guard(self, db):
        engine = RuleEngine(db, max_firings=25)
        db.create_relation("loop", ["v"])
        engine.create_rule(
            "runaway", on="loop", condition="v >= 0",
            action=UpdateAction(lambda ctx: {"v": ctx.tuple["v"] + 1}),
        )
        with pytest.raises(RuleCycleError):
            db.insert("loop", {"v": 0})

    def test_bulk_mutation_firings_are_not_a_cascade(self, db):
        # 10 tuples x 3 rules = 30 firings, none of them cascading: the
        # limit applies to cascades only, exactly as for 10 single inserts
        engine = RuleEngine(db, max_firings=10)
        db.create_relation("t", ["a"])
        collect = CollectAction()
        for index in range(3):
            engine.create_rule(f"r{index}", on="t", condition="a >= 0", action=collect)
        db.bulk_insert("t", [{"a": value} for value in range(10)])
        assert db.count("t") == 10
        assert len(collect.records) == 30

    def test_bulk_update_firings_are_not_a_cascade(self, db):
        db.create_relation("t", ["a"])
        tids = db.insert_many("t", [{"a": value} for value in range(10)])
        engine = RuleEngine(db, max_firings=10)
        collect = CollectAction()
        for index in range(3):
            engine.create_rule(f"r{index}", on="t", condition="a >= 0", action=collect)
        db.bulk_update("t", {tid: {"a": 100 + tid} for tid in tids})
        assert len(collect.records) == 30
        assert sorted(row["a"] for row in db.select("t")) == [100 + t for t in tids]

    def test_deferred_run_firings_are_not_a_cascade(self, db):
        # 30 instantiations wait on the agenda; run() fires them all
        engine = RuleEngine(db, mode="deferred", max_firings=10)
        db.create_relation("t", ["a"])
        collect = CollectAction()
        for index in range(3):
            engine.create_rule(f"r{index}", on="t", condition="a >= 0", action=collect)
        db.insert_many("t", [{"a": value} for value in range(10)])
        assert collect.records == []
        assert engine.run() == 30
        assert len(collect.records) == 30

    def _copy_cascade(self, db, max_firings):
        # each of the bulk's 10 firings inserts into "sink", whose rule
        # then fires once: exactly 10 cascaded firings
        engine = RuleEngine(db, max_firings=max_firings)
        db.create_relation("t", ["a"])
        db.create_relation("sink", ["a"])
        collect = CollectAction()
        engine.create_rule(
            "copy", on="t", condition="a >= 0",
            action=InsertAction("sink", lambda ctx: {"a": ctx.tuple["a"]}),
        )
        engine.create_rule("seen", on="sink", condition="a >= 0", action=collect)
        return collect

    def test_cascade_at_the_limit_completes(self, db):
        collect = self._copy_cascade(db, max_firings=10)
        db.bulk_insert("t", [{"a": value} for value in range(10)])
        assert db.count("sink") == 10
        assert len(collect.records) == 10

    def test_cascade_one_past_the_limit_raises_and_rolls_back(self, db):
        collect = self._copy_cascade(db, max_firings=9)
        with pytest.raises(RuleCycleError):
            db.bulk_insert("t", [{"a": value} for value in range(10)])
        assert db.count("t") == 0 and db.count("sink") == 0

    def test_bulk_mutation_cycle_still_hits_the_guard(self, db):
        engine = RuleEngine(db, max_firings=25)
        db.create_relation("loop", ["v"])
        engine.create_rule(
            "runaway", on="loop", condition="v >= 0",
            action=UpdateAction(lambda ctx: {"v": ctx.tuple["v"] + 1}),
        )
        with pytest.raises(RuleCycleError):
            db.bulk_insert("loop", [{"v": 0}, {"v": 10}, {"v": 20}])
        assert db.count("loop") == 0

    def test_insert_chain(self, db, engine):
        engine.create_rule(
            "audit", on="emp", condition="salary >= 1000",
            action=InsertAction("alerts", lambda ctx: {"message": ctx.tuple["name"]}),
        )
        collect = CollectAction()
        engine.create_rule("on_alert", on="alerts", condition="true", action=collect)
        db.insert("emp", {"name": "A", "salary": 5000})
        assert db.count("alerts") == 1
        assert len(collect.records) == 1


class TestDeclarativeActions:
    def test_update_action_noop_when_unchanged(self, db, engine):
        fired = []
        engine.create_rule(
            "clamp", on="emp", condition="salary > 100",
            action=chain(
                lambda ctx: fired.append(ctx.tuple["salary"]),
                UpdateAction({"salary": 100}),
            ),
        )
        db.insert("emp", {"name": "A", "salary": 500})
        # fired once for 500; the update to 100 no longer matches
        assert fired == [500]

    def test_delete_action(self, db, engine):
        engine.create_rule(
            "purge", on="emp", condition="age < 0", action=DeleteAction()
        )
        db.insert("emp", {"name": "A", "age": -1})
        assert db.count("emp") == 0

    def test_abort_action_vetoes(self, db, engine):
        engine.create_rule(
            "no_neg", on="emp", condition="salary < 0",
            action=AbortAction("negative salary"),
        )
        with pytest.raises(AbortMutation, match="negative salary"):
            db.insert("emp", {"name": "A", "salary": -1})
        assert db.count("emp") == 0

    def test_abort_requires_immediate_mode(self, db):
        engine = RuleEngine(db, mode="deferred")
        engine.create_rule(
            "no_neg", on="emp", condition="salary < 0", action=AbortAction()
        )
        db.insert("emp", {"name": "A", "salary": -1})
        with pytest.raises(RuleError):
            engine.run()

    def test_chain_validates(self):
        with pytest.raises(RuleError):
            chain(lambda ctx: None, "nope")

    def test_collect_action_len_repr(self, db, engine):
        collect = CollectAction()
        assert len(collect) == 0
        engine.create_rule("r", on="emp", condition="true", action=collect)
        db.insert("emp", {"name": "A"})
        assert len(collect) == 1
        assert "1 records" in repr(collect)


class TestDeferredMode:
    def test_run_fires_accumulated(self, db):
        engine = RuleEngine(db, mode="deferred")
        collect = CollectAction()
        engine.create_rule("r", on="emp", condition="true", action=collect)
        db.insert("emp", {"name": "A"})
        db.insert("emp", {"name": "B"})
        assert len(collect.records) == 0
        assert engine.run() == 2
        assert len(collect.records) == 2
        assert engine.run() == 0

    def test_deferred_cascade_counts(self, db):
        engine = RuleEngine(db, mode="deferred")
        engine.create_rule(
            "audit", on="emp", condition="true",
            action=InsertAction("alerts", {"message": "x"}),
        )
        collect = CollectAction()
        engine.create_rule("on_alert", on="alerts", condition="true", action=collect)
        db.insert("emp", {"name": "A"})
        fired = engine.run()
        assert fired == 2  # audit + on_alert
        assert len(collect.records) == 1


class TestContext:
    def test_context_fields(self, db, engine):
        seen = {}

        def grab(ctx):
            seen.update(
                relation=ctx.relation,
                tid=ctx.tid,
                old=ctx.old,
                rule=ctx.rule.name,
                kind=ctx.event.kind,
            )

        engine.create_rule("r", on="emp", condition="age > 1", action=grab)
        tid = db.insert("emp", {"name": "A", "age": 5})
        assert seen["relation"] == "emp"
        assert seen["tid"] == tid
        assert seen["old"] is None
        assert seen["rule"] == "r"
        assert seen["kind"] == "insert"
        db.update("emp", tid, {"age": 9})
        assert seen["kind"] == "update"
        assert seen["old"]["age"] == 5


class TestContextCopies:
    def test_tuple_is_a_private_copy_made_on_first_read(self, db, engine):
        seen = []

        def edit(ctx):
            ctx.tuple["salary"] = -1
            seen.append((dict(ctx.tuple), dict(ctx.event.tuple)))

        engine.create_rule("a", on="emp", condition="salary > 0", action=edit, priority=1)
        engine.create_rule(
            "b", on="emp", condition="salary > 0",
            action=lambda ctx: seen.append(ctx.tuple["salary"]),
        )
        tid = db.insert("emp", {"name": "A", "salary": 10})
        edited, event_image = seen[0]
        assert edited["salary"] == -1
        assert event_image["salary"] == 10
        # the next firing of the same event reads the unedited image
        assert seen[1] == 10
        assert db.relation("emp").get(tid)["salary"] == 10

    def test_tuple_is_assignable(self, db, engine):
        seen = []

        def replace(ctx):
            ctx.tuple = {"name": "other"}
            seen.append(ctx.tuple)

        engine.create_rule("r", on="emp", condition="true", action=replace)
        db.insert("emp", {"name": "A"})
        assert seen == [{"name": "other"}]

    def test_selection_bindings_read_empty(self, db, engine):
        seen = []
        engine.create_rule(
            "r", on="emp", condition="true", action=lambda ctx: seen.append(ctx.bindings)
        )
        db.insert("emp", {"name": "A"})
        assert seen == [{}]


class TestDrainScope:
    """One ``db.transaction()`` scope per drain, each firing a savepoint of it.

    Outside a user transaction the drain's transaction commits when the
    drain ends, whatever escapes it, so completed firings keep their
    effects as their own commits would keep them.
    """

    def test_cycle_error_keeps_completed_firings(self, db):
        engine = RuleEngine(db, max_firings=25)
        db.create_relation("loop", ["v"])
        engine.create_rule(
            "runaway", on="loop", condition="v >= 0",
            action=UpdateAction(lambda ctx: {"v": ctx.tuple["v"] + 1}),
        )
        with pytest.raises(RuleCycleError):
            db.insert("loop", {"v": 0})
        assert [row["v"] for row in db.select("loop")] == [26]
        assert db.in_transaction is False
        assert db.current_transaction is None

    def test_propagated_failure_keeps_earlier_firings(self, db):
        engine = RuleEngine(db, on_error="propagate")

        def log_then_fail(ctx):
            ctx.db.insert("alerts", {"message": "second"})
            raise ValueError("boom")

        engine.create_rule(
            "first", on="emp", condition="true", priority=2,
            action=InsertAction("alerts", {"message": "first"}),
        )
        engine.create_rule(
            "second", on="emp", condition="true", priority=1, action=log_then_fail
        )
        with pytest.raises(ValueError, match="boom"):
            db.insert("emp", {"name": "A"})
        assert [row["message"] for row in db.select("alerts")] == ["first"]
        assert db.count("emp") == 1
        assert db.in_transaction is False

    def test_failed_compensation_is_quarantined_as_transaction_error(self, db, engine):
        boom = RuntimeError("subscriber failed")

        def fail_on_compensation(event):
            if event.compensating:
                raise boom

        db.subscribe(fail_on_compensation)

        def log_then_fail(ctx):
            ctx.db.insert("alerts", {"message": "half-done"})
            raise ValueError("action bug")

        engine.create_rule("buggy", on="emp", condition="true", action=log_then_fail)
        db.insert("emp", {"name": "A"})
        (failure,) = engine.failures()
        assert isinstance(failure.error, TransactionError)
        assert failure.error.__cause__ is boom
        assert db.count("alerts") == 0
        assert db.count("emp") == 1

    def test_one_scope_per_drain(self, db, engine, monkeypatch):
        scopes = []
        transaction = Database.transaction

        def counting(self):
            scopes.append(self)
            return transaction(self)

        monkeypatch.setattr(Database, "transaction", counting)
        fired = []
        for index in range(5):
            engine.create_rule(
                f"r{index}", on="emp", condition="true",
                action=lambda ctx: fired.append(ctx.rule.name),
            )
        db.insert("emp", {"name": "A"})
        assert len(fired) == 5
        assert len(scopes) == 1

    def test_deferred_run_holds_the_mutation_lock_for_the_whole_drain(self):
        db = Database(threadsafe=True)
        db.create_relation("emp", ["name"])
        engine = RuleEngine(db, mode="deferred")
        engine.create_rule("r", on="emp", condition="true", action=lambda ctx: None)
        free = []

        def probe_lock(rule, context):
            # between firings, another thread must still find the lock taken
            def try_lock():
                if db._mutation_lock.acquire(blocking=False):
                    db._mutation_lock.release()
                    free.append(True)
                else:
                    free.append(False)

            thread = threading.Thread(target=try_lock)
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()

        engine.on_fire = probe_lock
        db.insert_many("emp", [{"name": "A"}, {"name": "B"}])
        assert engine.run() == 2
        assert free == [False, False]
