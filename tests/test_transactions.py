"""Tests for transactional mutations: all-or-nothing semantics,
savepoints, compensating events, and mid-cascade rollback."""

import pytest

from repro import AbortMutation, CollectAction, Database, RetryPolicy, RuleEngine
from repro.db import Transaction
from repro.errors import TransactionError, TupleError


@pytest.fixture
def db():
    database = Database()
    database.create_relation("emp", ["name", "salary", "dept"])
    database.create_relation("log", ["message"])
    return database


def snapshot(db):
    """Tuple-level image of every relation, tids included."""
    return {
        name: dict(db.relation(name).scan())
        for name in db.relations()
    }


class TestAllOrNothing:
    def test_commit_keeps_all_mutations(self, db):
        with db.transaction():
            db.insert("emp", {"name": "A", "salary": 100})
            db.insert("log", {"message": "hired A"})
        assert db.count("emp") == 1
        assert db.count("log") == 1

    def test_exception_rolls_back_across_relations(self, db):
        db.insert("emp", {"name": "keep", "salary": 1})
        before = snapshot(db)
        with pytest.raises(RuntimeError, match="boom"):
            with db.transaction():
                db.insert("emp", {"name": "A", "salary": 100})
                db.insert("log", {"message": "hired A"})
                raise RuntimeError("boom")
        assert snapshot(db) == before

    def test_rollback_undoes_update_and_delete(self, db):
        tid = db.insert("emp", {"name": "A", "salary": 100})
        other = db.insert("emp", {"name": "B", "salary": 50})
        before = snapshot(db)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.update("emp", tid, {"salary": 999})
                db.delete("emp", other)
                raise RuntimeError("abort")
        assert snapshot(db) == before

    def test_rolled_back_insert_does_not_recycle_tid(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("emp", {"name": "gone", "salary": 1})
                raise RuntimeError("abort")
        tid = db.insert("emp", {"name": "kept", "salary": 2})
        # the rolled-back tuple's tid is burned, not reissued
        assert db.relation("emp").get(tid)["name"] == "kept"
        assert db.count("emp") == 1

    def test_transaction_object_exposed(self, db):
        assert db.in_transaction is False
        assert db.current_transaction is None
        with db.transaction() as txn:
            assert isinstance(txn, Transaction)
            assert db.in_transaction is True
            assert db.current_transaction is txn
            db.insert("emp", {"name": "A"})
            assert len(txn) == 1
        assert db.in_transaction is False

    def test_recording_outside_active_transaction_fails(self, db):
        with db.transaction() as txn:
            pass
        with pytest.raises(TransactionError):
            txn._record(("insert", db.relation("emp"), "emp", 1))


class TestNestedTransactions:
    def test_inner_failure_keeps_outer_work(self, db):
        with db.transaction():
            db.insert("emp", {"name": "outer", "salary": 1})
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.insert("emp", {"name": "inner", "salary": 2})
                    raise RuntimeError("inner failure")
            db.insert("emp", {"name": "after", "salary": 3})
        names = {t["name"] for t in db.select("emp")}
        assert names == {"outer", "after"}

    def test_nested_yields_same_transaction(self, db):
        with db.transaction() as outer:
            with db.transaction() as inner:
                assert inner is outer

    def test_outer_failure_rolls_back_committed_inner(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.insert("emp", {"name": "inner", "salary": 2})
                raise RuntimeError("outer failure")
        assert db.count("emp") == 0


class TestCompensatingEvents:
    def test_rollback_fires_compensating_events(self, db):
        events = []
        db.subscribe(events.append)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("emp", {"name": "A", "salary": 100})
                raise RuntimeError("abort")
        compensating = [e for e in events if e.compensating]
        assert len(compensating) == 1
        assert type(compensating[0]).__name__ == "DeleteEvent"
        assert compensating[0].old["name"] == "A"

    def test_rollback_order_is_lifo(self, db):
        tid = db.insert("emp", {"name": "A", "salary": 1})
        events = []
        db.subscribe(events.append)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("emp", {"name": "B", "salary": 2})
                db.update("emp", tid, {"salary": 9})
                db.delete("emp", tid)
                raise RuntimeError("abort")
        kinds = [type(e).__name__ for e in events if e.compensating]
        # undo delete (re-insert), undo update, undo insert (delete)
        assert kinds == ["InsertEvent", "UpdateEvent", "DeleteEvent"]

    def test_bulk_insert_veto_fires_compensating_events(self, db):
        events = []

        def veto(event):
            events.append(event)
            if not event.compensating and getattr(event, "events", None):
                raise AbortMutation("batch rejected")

        db.subscribe(veto)
        with pytest.raises(AbortMutation):
            db.bulk_insert("emp", [{"name": "A"}, {"name": "B"}])
        assert db.count("emp") == 0
        compensating = [e for e in events if e.compensating]
        assert len(compensating) == 2  # one delete per rolled-back row

    def test_bulk_update_validation_failure_rolls_back(self):
        from repro.db import INTEGER

        db = Database()
        db.create_relation("scores", [("v", INTEGER)])
        t1 = db.bulk_insert("scores", [{"v": 1}, {"v": 2}])[0]
        with pytest.raises(TupleError):
            db.bulk_update("scores", {t1: {"v": "not-an-int"}})
        assert sorted(t["v"] for t in db.select("scores")) == [1, 2]


class TestMidCascadeRollback:
    """A failure mid-cascade must leave the db exactly as an untouched
    clone: rule-action side effects roll back with their trigger."""

    @staticmethod
    def build(populate):
        db = Database()
        db.create_relation("emp", ["name", "salary", "dept"])
        db.create_relation("audit", ["who", "note"])
        engine = RuleEngine(db, on_error="propagate")
        engine.create_rule(
            "audit-high",
            on="emp",
            condition="salary > 100",
            action=lambda ctx: ctx.db.insert(
                "audit", {"who": ctx.tuple["name"], "note": "high"}
            ),
        )
        populate(db)
        return db, engine

    def test_failure_matches_untouched_clone(self):
        def populate(db):
            db.insert("emp", {"name": "base", "salary": 150})

        db, _ = self.build(populate)
        clone, _ = self.build(populate)
        assert snapshot(db) == snapshot(clone)

        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("emp", {"name": "A", "salary": 500})  # cascades
                assert db.count("audit") == 2  # cascade landed
                db.insert("emp", {"name": "B", "salary": 200})  # cascades
                raise RuntimeError("mid-cascade failure")

        # every mutation of the failed transaction — including the
        # rule-action cascades — is gone; the db equals the clone
        assert snapshot(db) == snapshot(clone)

    def test_abort_mutation_rolls_back_trigger_and_cascade(self):
        def populate(db):
            pass

        db, engine = self.build(populate)
        clone, _ = self.build(populate)

        def veto_and_cascade(ctx):
            ctx.db.insert("audit", {"who": ctx.tuple["name"], "note": "x"})
            raise AbortMutation("rejected after cascading")

        # lower priority: the veto fires after audit-high's cascade has
        # already committed its own (per-firing) transaction — only the
        # enclosing user transaction makes the whole cascade atomic
        engine.create_rule(
            "veto",
            on="emp",
            condition="salary > 1000",
            action=veto_and_cascade,
            priority=-1,
        )
        with pytest.raises(AbortMutation):
            with db.transaction():
                db.insert("emp", {"name": "rich", "salary": 5000})
        assert snapshot(db) == snapshot(clone)

    def test_outside_a_transaction_earlier_firings_stay_committed(self):
        db, engine = self.build(lambda db: None)

        def veto_and_cascade(ctx):
            ctx.db.insert("audit", {"who": ctx.tuple["name"], "note": "x"})
            raise AbortMutation("rejected after cascading")

        engine.create_rule(
            "veto",
            on="emp",
            condition="salary > 1000",
            action=veto_and_cascade,
            priority=-1,
        )
        with pytest.raises(AbortMutation):
            db.insert("emp", {"name": "rich", "salary": 5000})
        # the vetoed insert and the veto's own cascade are undone, but
        # audit-high fired first and its firing's commit was final
        assert db.count("emp") == 0
        assert [(t["who"], t["note"]) for t in db.select("audit")] == [("rich", "high")]

    def test_successful_cascade_commits(self):
        def populate(db):
            pass

        db, _ = self.build(populate)
        with db.transaction():
            db.insert("emp", {"name": "A", "salary": 500})
        assert db.count("emp") == 1
        assert db.count("audit") == 1


class TestRuleEngineIntegration:
    def test_collect_actions_see_committed_batch(self, db):
        engine = RuleEngine(db)
        collect = CollectAction()
        engine.create_rule("all", on="emp", condition="salary > 10", action=collect)
        db.bulk_insert("emp", [{"name": "A", "salary": 20}, {"name": "B", "salary": 5}])
        assert [rec[1]["name"] for rec in collect.records] == ["A"]

    def test_rollback_without_join_rules_skips_the_matcher(self, db, monkeypatch):
        engine = RuleEngine(db)

        def veto(ctx):
            raise AbortMutation("batch rejected")

        engine.create_rule("veto", on="emp", condition="salary > 0", action=veto)
        match = engine.matcher.match
        matched = []

        def spy(relation, tup):
            matched.append(tup)
            return match(relation, tup)

        monkeypatch.setattr(engine.matcher, "match", spy)
        with pytest.raises(AbortMutation):
            db.bulk_insert("emp", [{"name": f"e{i}", "salary": i + 1} for i in range(10)])
        assert db.count("emp") == 0
        # the ten compensating deletes reach no matcher: only the batch
        # itself was matched
        assert matched == []
        assert engine.matcher.stats.tuples_matched == 10

    def test_rollback_clears_join_memories(self, db):
        db.create_relation("dept", ["dname", "budget"])
        engine = RuleEngine(db)
        pairs = []
        engine.create_join_rule(
            "staffed",
            "emp",
            "dept",
            "emp.dept = dept.dname and emp.salary > 0",
            lambda ctx: pairs.append(ctx.bindings["emp"]["name"]),
        )

        def veto(ctx):
            raise AbortMutation("batch rejected")

        engine.create_rule("veto", on="emp", condition="salary > 5000", action=veto)
        with pytest.raises(AbortMutation):
            db.bulk_insert(
                "emp",
                [
                    {"name": "A", "salary": 100, "dept": "Shoe"},
                    {"name": "B", "salary": 9000, "dept": "Shoe"},
                ],
            )
        # the rolled-back employees left the join's memory with the rollback
        db.insert("dept", {"dname": "Shoe", "budget": 1})
        assert pairs == []


class TestVetoLeavesNothingPending:
    """A vetoed mutation never happened, so nothing it posted may fire."""

    def build(self, db):
        engine = RuleEngine(db)

        def veto(ctx):
            raise AbortMutation("rejected")

        fired = []
        engine.create_rule(
            "veto", on="emp", condition="salary > 1000", action=veto, priority=10
        )
        engine.create_rule(
            "log", on="emp", condition="salary > 0",
            action=lambda ctx: fired.append(ctx.event.tid),
        )
        return engine, fired

    def test_vetoed_bulk_insert_leaves_no_pending_firings(self, db):
        engine, fired = self.build(db)
        with pytest.raises(AbortMutation):
            db.bulk_insert(
                "emp", [{"name": f"e{i}", "salary": 2000 + i} for i in range(10)]
            )
        assert db.count("emp") == 0
        assert len(engine.agenda) == 0
        # the next mutation fires for its own tuple only, not for the
        # ten rolled-back ones (tids 1-10)
        tid = db.insert("emp", {"name": "A", "salary": 5})
        assert fired == [tid]

    def test_vetoed_insert_leaves_no_pending_firing(self, db):
        engine, fired = self.build(db)
        with pytest.raises(AbortMutation):
            db.insert("emp", {"name": "rich", "salary": 5000})
        assert db.count("emp") == 0
        assert len(engine.agenda) == 0
        tid = db.insert("emp", {"name": "A", "salary": 5})
        assert fired == [tid]

    def test_deferred_run_keeps_other_mutations_instantiations(self, db):
        engine = RuleEngine(db, mode="deferred")
        vetoes = []

        def veto(ctx):
            vetoes.append(ctx.event.tid)
            raise AbortMutation("rejected")

        fired = []
        engine.create_rule(
            "veto", on="emp", condition="salary > 1000", action=veto, priority=10
        )
        engine.create_rule(
            "log", on="emp", condition="salary > 0",
            action=lambda ctx: fired.append(ctx.event.tid),
        )
        low = db.insert("emp", {"name": "A", "salary": 100})
        high = db.insert("emp", {"name": "B", "salary": 5000})
        with pytest.raises(AbortMutation):
            engine.run()
        # both inserts committed before run(): the veto undoes only its
        # own firing, and the other instantiations stay for the next run
        assert vetoes == [high]
        assert db.count("emp") == 2
        assert len(engine.agenda) == 2
        assert engine.run() == 2
        assert sorted(fired) == [low, high]


class TestFailedActionLeavesNothingPending:
    """A failed action's mutations roll back, and so does what they posted."""

    def build(self, db, failures, **options):
        """``flaky`` on emp logs to ``log``, then raises *failures* times."""
        engine = RuleEngine(db, **options)
        attempts = []

        def flaky(ctx):
            attempts.append(ctx.db.insert("log", {"message": "seen"}))
            if len(attempts) <= failures:
                raise RuntimeError("flaky")

        watched = []
        engine.create_rule("flaky", on="emp", condition="salary > 0", action=flaky)
        engine.create_rule(
            "watch", on="log", condition="message = 'seen'",
            action=lambda ctx: watched.append(ctx.event.tid),
        )
        return engine, attempts, watched

    def test_quarantined_action_leaves_no_pending_firing(self, db):
        engine, _, watched = self.build(db, failures=1)
        db.insert("emp", {"name": "A", "salary": 5})
        assert len(engine.failures()) == 1
        assert db.count("log") == 0
        # the rolled-back log row (tid 1) must not fire "watch"
        assert watched == []
        assert len(engine.agenda) == 0

    def test_successful_retry_keeps_only_its_own_posts(self, db):
        engine, attempts, watched = self.build(
            db, failures=1, retry_policy=RetryPolicy(max_attempts=2)
        )
        db.insert("emp", {"name": "A", "salary": 5})
        assert engine.failures() == []
        # the failed attempt's row was rolled back; only the retry's fired
        assert db.count("log") == 1
        assert watched == [attempts[1]]

    def test_instantiations_pending_before_the_attempt_stay(self, db):
        engine, attempts, watched = self.build(db, failures=1)
        # two "flaky" firings share a level; the first to fire fails
        db.bulk_insert(
            "emp", [{"name": "A", "salary": 5}, {"name": "B", "salary": 6}]
        )
        assert len(engine.failures()) == 1
        # the other one still fired, and only its row was watched
        assert db.count("log") == 1
        assert watched == [attempts[1]]

    def test_deferred_quarantine_leaves_no_pending_firing(self, db):
        engine, _, watched = self.build(db, failures=1, mode="deferred")
        db.insert("emp", {"name": "A", "salary": 5})
        assert engine.run() == 1
        assert len(engine.failures()) == 1
        assert watched == []
        assert len(engine.agenda) == 0
