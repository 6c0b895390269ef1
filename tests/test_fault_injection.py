"""Deterministic fault-injection suite.

Each named injection site (``repro.testing.FAULT_SITES``) is driven by
a seeded :class:`~repro.testing.FaultInjector` and must uphold one of
two guarantees:

* **rolls back cleanly** — the operation raises, but observable state
  (match answers, files, tuples) is exactly as before; or
* **self-heals** — the damage is detected (``audit`` /
  ``CorruptSnapshotError``) and repaired
  (``verify_and_rebuild`` / ``recover_database``) to answers identical
  to a freshly built replica.

The seed sweep defaults to 0..2; CI widens it via the ``FAULT_SEEDS``
environment variable (comma-separated integers).
"""

import inspect
import os
import pathlib
import random
import sys

import pytest

from repro import (
    AVLIBSTree,
    Database,
    IBSTree,
    Interval,
    IntervalClause,
    Predicate,
    PredicateIndex,
    RBIBSTree,
    RuleEngine,
)
from repro.db import (
    OperationJournal,
    load_database,
    read_journal,
    recover_database,
    save_database,
)
from repro.errors import (
    ActionQuarantinedError,
    CorruptSnapshotError,
    InjectedFault,
)
from repro.rules.failures import RetryPolicy
from repro.testing import FAULT_SITES, FaultInjector, active_injector, injected

SEEDS = [int(s) for s in os.environ.get("FAULT_SEEDS", "0,1,2").split(",")]

TREE_BACKENDS = [IBSTree, AVLIBSTree, RBIBSTree]
BALANCED_BACKENDS = [AVLIBSTree, RBIBSTree]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def build_index(factory, rng, count=24):
    idx = PredicateIndex(tree_factory=factory)
    for i in range(count):
        low = rng.randint(0, 60)
        high = low + rng.randint(0, 15)
        idx.add(
            Predicate(
                "emp",
                [IntervalClause("salary", Interval.closed(low, high))],
                ident=f"p{i}",
            )
        )
    return idx


def answers(idx, lo=0, hi=80):
    return {
        v: sorted(p.ident for p in idx.match("emp", {"salary": v}))
        for v in range(lo, hi)
    }


def fresh_answers(idx, factory, lo=0, hi=80):
    """Answers of a from-scratch index over the same predicates."""
    fresh = PredicateIndex(tree_factory=factory)
    for predicate in idx.predicates_for("emp"):
        fresh.add(predicate)
    return answers(fresh, lo, hi)


def sample_db():
    db = Database()
    db.create_relation("emp", ["name", "salary"])
    db.insert("emp", {"name": "A", "salary": 100})
    db.insert("emp", {"name": "B", "salary": 200})
    return db


def db_state(db):
    return {
        name: dict(db.relation(name).scan())
        for name in db.relations()
    }


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------


class TestInjectorDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_faults(self, seed):
        def run():
            inj = FaultInjector(
                seed=seed, rate=0.3, sites=["tree.insert"], max_faults=None
            )
            for n in range(200):
                try:
                    inj.hit("tree.insert")
                except InjectedFault:
                    pass
            return list(inj.fired)

        assert run() == run()

    def test_different_seeds_diverge(self):
        runs = set()
        for seed in range(5):
            inj = FaultInjector(
                seed=seed, rate=0.3, sites=["persist.write"], max_faults=None
            )
            for n in range(50):
                try:
                    inj.hit("persist.write")
                except InjectedFault:
                    pass
            runs.add(tuple(inj.fired))
        assert len(runs) > 1

    def test_armed_hit_is_exact(self):
        inj = FaultInjector()
        inj.arm("tree.delete", at_hit=3)
        inj.hit("tree.delete")
        inj.hit("tree.delete")
        with pytest.raises(InjectedFault) as excinfo:
            inj.hit("tree.delete")
        assert excinfo.value.site == "tree.delete"
        assert excinfo.value.hit == 3

    def test_max_faults_caps_firing(self):
        inj = FaultInjector(rate=1.0, sites=["persist.fsync"], max_faults=1)
        with pytest.raises(InjectedFault):
            inj.hit("persist.fsync")
        inj.hit("persist.fsync")  # capped: no second fault
        assert inj.fault_count == 1

    def test_uninstalled_injector_is_inert(self):
        assert active_injector() is None
        inj = FaultInjector(rate=1.0)
        with injected(inj):
            assert active_injector() is inj
        assert active_injector() is None


# ----------------------------------------------------------------------
# tree sites: "tree.insert", "tree.delete", "tree.rotate", "tree.bulk_load"
# ----------------------------------------------------------------------


class TestTreeFaults:
    @pytest.mark.parametrize("factory", TREE_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_insert_fault_rolls_back_cleanly(self, factory, seed):
        rng = random.Random(seed)
        idx = build_index(factory, rng)
        before = answers(idx)
        inj = FaultInjector(seed=seed)
        inj.arm("tree.insert", at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                idx.add(
                    Predicate(
                        "emp",
                        [IntervalClause("salary", Interval.closed(10, 30))],
                        ident="newcomer",
                    )
                )
        assert "newcomer" not in idx
        assert idx.audit() == []
        assert answers(idx) == before
        # the identifier is fully reusable after the rollback
        idx.add(
            Predicate(
                "emp",
                [IntervalClause("salary", Interval.closed(10, 30))],
                ident="newcomer",
            )
        )
        assert idx.check_invariants() is True

    @pytest.mark.parametrize("factory", TREE_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_delete_fault_self_heals(self, factory, seed):
        rng = random.Random(seed)
        idx = build_index(factory, rng)
        victim = f"p{rng.randrange(24)}"
        inj = FaultInjector(seed=seed)
        inj.arm("tree.delete", at_hit=1)
        with injected(inj):
            try:
                idx.remove(victim)
            except InjectedFault:
                pass  # fault fired: index may now be torn
        report = idx.verify_and_rebuild()
        assert idx.check_invariants() is True
        assert answers(idx) == fresh_answers(idx, factory)
        if not report["healthy"]:
            assert report["rebuilt"] == ["emp"]

    @pytest.mark.parametrize("factory", BALANCED_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rotate_fault_self_heals(self, factory, seed):
        rng = random.Random(seed)
        idx = PredicateIndex(tree_factory=factory)
        inj = FaultInjector(seed=seed)
        inj.arm("tree.rotate", at_hit=1 + seed % 3)
        fired = False
        with injected(inj):
            for i in range(40):
                low = rng.randint(0, 200)
                predicate = Predicate(
                    "emp",
                    [IntervalClause("salary", Interval.closed(low, low + 5))],
                    ident=f"p{i}",
                )
                try:
                    idx.add(predicate)
                except InjectedFault:
                    fired = True
        assert fired, "workload never reached the armed rotation"
        idx.verify_and_rebuild()
        assert idx.check_invariants() is True
        assert answers(idx, 0, 210) == fresh_answers(idx, factory, 0, 210)

    @pytest.mark.parametrize("factory", TREE_BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bulk_load_fault_leaves_tree_empty(self, factory, seed):
        rng = random.Random(seed)
        items = []
        for i in range(20):
            low = rng.randint(0, 100)
            items.append((Interval.closed(low, low + rng.randint(0, 10)), f"p{i}"))
        tree = factory()
        inj = FaultInjector(seed=seed)
        inj.arm("tree.bulk_load", at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                tree.bulk_load(items)
        # the failed load rolled all the way back: empty, valid, reusable
        assert len(tree) == 0
        assert tree.check_invariants() is True
        assert tree.bulk_load(items) == [ident for _, ident in items]
        assert tree.check_invariants() is True
        reference = factory()
        for interval, ident in items:
            reference.insert(interval, ident)
        for value in range(-1, 115):
            assert tree.stab(value) == reference.stab(value)

    @pytest.mark.parametrize("factory", TREE_BACKENDS)
    def test_tree_level_insert_rollback(self, factory):
        tree = factory()
        tree.insert(Interval.closed(1, 5), "a")
        tree.insert(Interval.closed(3, 9), "b")
        inj = FaultInjector()
        inj.arm("tree.insert", at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                tree.insert(Interval.closed(2, 7), "c")
        assert "c" not in tree
        assert len(tree) == 2
        assert tree.check_invariants() is True
        assert sorted(tree.stab(4)) == ["a", "b"]


# ----------------------------------------------------------------------
# persistence sites: "persist.write", "persist.fsync", "persist.replace"
# ----------------------------------------------------------------------


PERSIST_SITES = ["persist.write", "persist.fsync", "persist.replace"]


class TestPersistenceFaults:
    @pytest.mark.parametrize("site", PERSIST_SITES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crashed_save_preserves_old_snapshot(self, site, seed, tmp_path):
        db = sample_db()
        path = tmp_path / "snap.json"
        save_database(db, path)
        old_state = db_state(load_database(path))
        db.insert("emp", {"name": "C", "salary": 300})
        inj = FaultInjector(seed=seed)
        inj.arm(site, at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                save_database(db, path)
        # the old snapshot is untouched and still loads
        assert db_state(load_database(path)) == old_state
        # no temp files leak
        leftovers = [p for p in tmp_path.iterdir() if p.name != "snap.json"]
        assert leftovers == []

    @pytest.mark.parametrize("site", PERSIST_SITES)
    def test_kill_during_save_recovers_via_journal(self, site, tmp_path):
        snap = tmp_path / "snap.json"
        jpath = tmp_path / "ops.journal"
        db = sample_db()
        save_database(db, snap)  # checkpoint
        journal = OperationJournal(jpath)
        detach = journal.attach(db)
        db.insert("emp", {"name": "C", "salary": 300})
        db.update("emp", 1, {"salary": 150})
        db.delete("emp", 2)
        inj = FaultInjector()
        inj.arm(site, at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                save_database(db, snap)  # the "kill" mid-checkpoint
        detach()
        # recovery: old checkpoint + journal replay == live state
        recovered = recover_database(snap, jpath)
        assert db_state(recovered) == db_state(db)
        assert recovered.relation("emp").next_tid == db.relation("emp").next_tid

    def test_torn_snapshot_raises_corrupt_error(self, tmp_path):
        path = tmp_path / "snap.json"
        save_database(sample_db(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with pytest.raises(CorruptSnapshotError):
            load_database(path)

    def test_checksum_tamper_raises_corrupt_error(self, tmp_path):
        path = tmp_path / "snap.json"
        save_database(sample_db(), path)
        text = path.read_text().replace('"A"', '"Z"', 1)  # bit flip
        path.write_text(text)
        with pytest.raises(CorruptSnapshotError):
            load_database(path)

    def test_journal_append_fault_keeps_replay_consistent(self, tmp_path):
        snap = tmp_path / "snap.json"
        jpath = tmp_path / "ops.journal"
        db = sample_db()
        save_database(db, snap)
        journal = OperationJournal(jpath)
        journal.attach(db)
        db.insert("emp", {"name": "C", "salary": 300})
        inj = FaultInjector()
        inj.arm("journal.append", at_hit=1)
        with injected(inj):
            with pytest.raises(InjectedFault):
                db.insert("emp", {"name": "D", "salary": 400})
        # the op was durably written before the injected fsync crash, so
        # snapshot + journal replay equals the database's live state
        recovered = recover_database(snap, jpath)
        assert db_state(recovered) == db_state(db)

    def test_journal_torn_tail_is_dropped(self, tmp_path):
        jpath = tmp_path / "ops.journal"
        db = sample_db()
        journal = OperationJournal(jpath)
        journal.attach(db)
        db.insert("emp", {"name": "C", "salary": 300})
        db.insert("emp", {"name": "D", "salary": 400})
        intact = read_journal(jpath)
        raw = jpath.read_bytes()
        jpath.write_bytes(raw[:-7])  # torn final record
        ops = read_journal(jpath)
        assert ops == intact[:-1]


# ----------------------------------------------------------------------
# engine site: "engine.action"
# ----------------------------------------------------------------------


class FiringIsolationCases:
    """Each rule firing runs in its own savepoint, whichever call fired it.

    ``insert`` is the call that fires the rule; each subclass runs these
    cases through another entry path.
    """

    @staticmethod
    def build_engine(**kwargs):
        db = Database()
        db.create_relation("emp", ["name", "salary"])
        db.create_relation("log", ["message"])
        engine = RuleEngine(db, **kwargs)
        return db, engine

    @staticmethod
    def insert(db, values):
        return db.insert("emp", values)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_action_fault_is_quarantined(self, seed):
        db, engine = self.build_engine()
        engine.create_rule(
            "logger",
            on="emp",
            condition="salary > 10",
            action=lambda ctx: ctx.db.insert("log", {"message": ctx.tuple["name"]}),
        )
        inj = FaultInjector(seed=seed)
        inj.arm("engine.action", at_hit=1)
        with injected(inj):
            tid = self.insert(db, {"name": "A", "salary": 100})
        # the trigger commits; the failed firing is quarantined
        assert db.relation("emp").get(tid)["name"] == "A"
        assert db.count("log") == 0
        failures = engine.failures()
        assert len(failures) == 1
        assert failures[0].rule_name == "logger"
        assert isinstance(failures[0].error, InjectedFault)

    def test_retry_recovers_transient_fault(self):
        db, engine = self.build_engine(retry_policy=RetryPolicy(max_attempts=2))
        engine.create_rule(
            "logger",
            on="emp",
            condition="salary > 10",
            action=lambda ctx: ctx.db.insert("log", {"message": ctx.tuple["name"]}),
        )
        inj = FaultInjector()  # max_faults=1: the retry succeeds
        inj.arm("engine.action", at_hit=1)
        with injected(inj):
            self.insert(db, {"name": "A", "salary": 100})
        assert db.count("log") == 1
        assert engine.failures() == []

    def test_failed_action_mutations_roll_back(self):
        db, engine = self.build_engine()

        def log_then_fail(ctx):
            ctx.db.insert("log", {"message": "half-done"})
            raise ValueError("action bug")

        engine.create_rule(
            "buggy", on="emp", condition="salary > 10", action=log_then_fail
        )
        self.insert(db, {"name": "A", "salary": 100})
        # the action's own insert was rolled back with the failure
        assert db.count("log") == 0
        assert db.count("emp") == 1
        assert len(engine.failures()) == 1

    def test_failed_firing_undoes_only_its_own_work(self):
        # in one drain: a firing that inserts, one that mutates nothing,
        # and one that inserts and then raises
        db, engine = self.build_engine()
        echoed = []

        def log_then_fail(ctx):
            ctx.db.insert("log", {"message": "third"})
            raise ValueError("action bug")

        engine.create_rule(
            "first", on="emp", condition="salary > 10", priority=3,
            action=lambda ctx: ctx.db.insert("log", {"message": "first"}),
        )
        engine.create_rule(
            "idle", on="emp", condition="salary > 10", priority=2,
            action=lambda ctx: None,
        )
        engine.create_rule(
            "third", on="emp", condition="salary > 10", priority=1,
            action=log_then_fail,
        )
        engine.create_rule(
            "echo", on="log", condition="true",
            action=lambda ctx: echoed.append(ctx.tuple["message"]),
        )
        self.insert(db, {"name": "A", "salary": 100})
        assert [row["message"] for row in db.select("log")] == ["first"]
        # the third firing's post for its own row went with the row
        assert echoed == ["first"]
        assert db.count("emp") == 1
        assert [f.rule_name for f in engine.failures()] == ["third"]
        assert engine.dead_letters.total_quarantined == 1
        assert [engine.rule(name).fire_count for name in ("first", "idle", "third")] == [1, 1, 1]


class TestActionFaultsOnBulkInsert(FiringIsolationCases):
    """The firing's savepoint nests in the bulk mutation's transaction."""

    @staticmethod
    def insert(db, values):
        (tid,) = db.bulk_insert("emp", [values])
        return tid


class TestActionFaultsInUserTransaction(FiringIsolationCases):
    """The firing's savepoint nests in the caller's transaction."""

    @staticmethod
    def insert(db, values):
        with db.transaction():
            return db.insert("emp", values)


class TestActionFaultsOnDeferredRun(FiringIsolationCases):
    """A deferred ``run()`` opens the drain's transaction itself."""

    def build_engine(self, **kwargs):
        db, self.engine = FiringIsolationCases.build_engine(mode="deferred", **kwargs)
        return db, self.engine

    def insert(self, db, values):
        tid = db.insert("emp", values)
        self.engine.run()
        return tid


class TestActionFaultsOnThreadsafeDatabase(FiringIsolationCases):
    """The drain's scope takes the reentrant mutation lock the insert holds."""

    @staticmethod
    def build_engine(**kwargs):
        db = Database(threadsafe=True)
        db.create_relation("emp", ["name", "salary"])
        db.create_relation("log", ["message"])
        return db, RuleEngine(db, **kwargs)


class TestActionFaults(FiringIsolationCases):
    def test_poison_pill_disables_rule(self):
        db, engine = self.build_engine(
            retry_policy=RetryPolicy(poison_threshold=2)
        )

        def always_fails(ctx):
            raise ValueError("permanently broken")

        engine.create_rule(
            "poison", on="emp", condition="salary > 10", action=always_fails
        )
        db.insert("emp", {"name": "A", "salary": 100})
        assert engine.rule("poison").enabled is True
        db.insert("emp", {"name": "B", "salary": 100})
        assert engine.rule("poison").enabled is False
        assert engine.failures()[-1].poisoned is True
        # a disabled rule no longer fires (and no longer fails)
        db.insert("emp", {"name": "C", "salary": 100})
        assert len(engine.failures()) == 2

    def test_requeue_failures_refires_fixed_rule(self):
        db, engine = self.build_engine()
        broken = {"flag": True}

        def flaky(ctx):
            if broken["flag"]:
                raise ValueError("still broken")
            ctx.db.insert("log", {"message": ctx.tuple["name"]})

        engine.create_rule("flaky", on="emp", condition="salary > 10", action=flaky)
        db.insert("emp", {"name": "A", "salary": 100})
        assert len(engine.failures()) == 1
        broken["flag"] = False
        assert engine.requeue_failures() == 1
        assert engine.failures() == []
        assert db.count("log") == 1

    def test_strict_requeue_raises_when_still_failing(self):
        db, engine = self.build_engine()

        def always_fails(ctx):
            raise ValueError("permanently broken")

        engine.create_rule(
            "bad", on="emp", condition="salary > 10", action=always_fails
        )
        db.insert("emp", {"name": "A", "salary": 100})
        with pytest.raises(ActionQuarantinedError):
            engine.requeue_failures(strict=True)

    def test_propagate_mode_preserves_legacy_behaviour(self):
        db, engine = self.build_engine(on_error="propagate")

        def always_fails(ctx):
            raise ValueError("boom")

        engine.create_rule(
            "bad", on="emp", condition="salary > 10", action=always_fails
        )
        with pytest.raises(ValueError, match="boom"):
            db.insert("emp", {"name": "A", "salary": 100})
        assert engine.failures() == []


# ----------------------------------------------------------------------
# meta: every declared site is exercised by this suite
# ----------------------------------------------------------------------


class TestSiteCoverage:
    def test_every_fault_site_is_exercised(self):
        # disk-tier crash drills live in tests/test_disk_tier.py and
        # maintenance-plane drills in tests/test_maintenance.py; every
        # other site must be armed somewhere in this module
        source = inspect.getsource(sys.modules[__name__])
        disk_drills = pathlib.Path(__file__).with_name("test_disk_tier.py")
        source += disk_drills.read_text(encoding="utf-8")
        maint_drills = pathlib.Path(__file__).with_name("test_maintenance.py")
        source += maint_drills.read_text(encoding="utf-8")
        for site in FAULT_SITES:
            assert f'"{site}"' in source, f"no scenario covers site {site!r}"

    def test_fault_sites_are_stable(self):
        # renaming a site silently orphans tests that arm the old name
        assert set(FAULT_SITES) == {
            "tree.insert",
            "tree.delete",
            "tree.rotate",
            "tree.bulk_load",
            "persist.write",
            "persist.fsync",
            "persist.replace",
            "journal.append",
            "engine.action",
            "disk.torn_segment",
            "disk.partial_checkpoint",
            "disk.mmap_unlink",
            "maint.task_raises",
            "maint.checkpoint_preempted",
        }

    def test_unknown_site_rejected_at_arm_time_with_suggestion(self):
        # a misspelled site must fail when armed (not silently never
        # fire at trigger time) and the error must name the nearest
        # registered site so seeded CI failures are diagnosable
        injector = FaultInjector()
        with pytest.raises(ValueError, match="did you mean 'tree.insert'"):
            injector.arm("tree.inserp")
        with pytest.raises(ValueError, match="did you mean 'journal.append'"):
            FaultInjector(rate=0.5, sites=["journal.appendd"])
        # a name nothing like any site still lists the registry
        with pytest.raises(ValueError, match="registered sites"):
            injector.arm("zzz")
