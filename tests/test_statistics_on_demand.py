"""Statistics on demand: a relation tracks only the attributes something reads.

The first read of an attribute fills its record with one scan of the
relation; every later mutation, rollback included, maintains it.  These
tests pin three things: what is tracked and when, that a maintained
record agrees with a fresh scan after any schedule of mutations, and
that statistics reads on a threadsafe database do not race its writers.
"""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro import Database, EqualityClause, Interval, IntervalClause, RuleEngine
from repro.core.selectivity import StatisticsEstimator
from repro.db.database import AbortMutation
from repro.db.statistics import AttributeStatistics
from repro.rules.failures import RetryPolicy


def scan_filled(relation, name):
    """A record of *name* built from the relation's current tuples."""
    stats = AttributeStatistics()
    for _, tup in relation.scan():
        stats.observe_insert(tup.get(name))
    return stats


def assert_agrees_with_a_scan(relation):
    """Every tracked record equals a scan-filled one where a scan can tell.

    A record maintained through deletes keeps its min/max and its
    overflow, so those are checked as bounds rather than equalities.
    """
    for name in relation.statistics.tracked:
        kept = relation.statistics.attribute(name)
        fresh = scan_filled(relation, name)
        assert (kept.count, kept.null_count) == (fresh.count, fresh.null_count), name
        if kept.value_counts is not None:
            assert kept.value_counts == fresh.value_counts, name
        for _, tup in relation.scan():
            value = tup[name]
            if value is not None:
                assert kept.min_value <= value <= kept.max_value, name


# ----------------------------------------------------------------------
# what is tracked, and when
# ----------------------------------------------------------------------

ATTRIBUTES = [f"a{k}" for k in range(15)]


def test_rules_created_before_the_data_track_nothing_until_retune():
    db = Database()
    rel = db.create_relation("r", ATTRIBUTES)
    engine = RuleEngine(db)
    for k in range(10):
        engine.create_rule(
            f"q{k}", "r", f"a0 >= {k * 10} and a0 <= {k * 10 + 5} and a1 = {k}", lambda ctx: None
        )
    for i in range(100):
        db.insert("r", {name: (i * (j + 1)) % 97 for j, name in enumerate(ATTRIBUTES)})
    assert rel.statistics.tracked == ()
    engine.matcher.retune()
    assert sorted(rel.statistics.tracked) == ["a0", "a1"]
    assert_agrees_with_a_scan(rel)


def test_an_estimate_with_rows_present_tracks_only_its_attribute():
    db = Database()
    rel = db.create_relation("r", ["x", "y"])
    estimator = StatisticsEstimator(db)
    assert estimator.estimate("r", EqualityClause("x", 1)) == pytest.approx(0.1)
    assert rel.statistics.tracked == ()  # an empty relation reads nothing
    for v in range(10):
        db.insert("r", {"x": v, "y": v})
    assert estimator.estimate("r", IntervalClause("x", Interval.closed(0, 4))) == 0.5
    assert rel.statistics.tracked == ("x",)


# ----------------------------------------------------------------------
# a maintained record agrees with a scan after any schedule
# ----------------------------------------------------------------------

#: small, with NULLs, so values collide and counts go to zero
values = st.one_of(st.none(), st.integers(min_value=0, max_value=12))
rows = st.fixed_dictionaries({"a": values, "b": values, "c": values})
KINDS = (
    "insert",
    "update",
    "delete",
    "bulk_insert",
    "bulk_update",
    "vetoed",
    "failed_action",
    "rollback",
)


@given(data=st.data())
def test_tracked_records_agree_with_a_scan_after_any_schedule(data):
    db = Database()
    rel = db.create_relation("r", ["a", "b", "c"])
    db.create_relation("t", ["x"])
    engine = RuleEngine(db, retry_policy=RetryPolicy(poison_threshold=10**9))
    pending = []

    def failing_action(ctx):
        db.insert("r", pending.pop())
        raise RuntimeError("action fails after its insert")

    engine.create_rule("boom", "t", None, failing_action)
    veto = [False]

    def vetoer(event):
        if veto[0] and getattr(event, "relation", None) == "r":
            raise AbortMutation("vetoed")

    db.subscribe(vetoer)
    steps = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=30))
    first_read = data.draw(st.integers(min_value=0, max_value=len(steps)))
    read_name = data.draw(st.sampled_from(["a", "b", "c"]))
    read_by_estimate = data.draw(st.booleans())

    def live_tid():
        tids = [tid for tid, _ in rel.scan()]
        return data.draw(st.sampled_from(tids)) if tids else None

    for position, kind in enumerate(steps + [None]):
        if position == first_read:
            if read_by_estimate:
                rel.statistics.clause_selectivity(EqualityClause(read_name, 3))
            else:
                rel.statistics.attribute(read_name)
        if kind == "insert":
            db.insert("r", data.draw(rows))
        elif kind == "bulk_insert":
            db.bulk_insert("r", data.draw(st.lists(rows, max_size=4)))
        elif kind in ("update", "delete", "bulk_update", "vetoed", "rollback"):
            tid = live_tid()
            if tid is None:
                continue
            change = data.draw(rows)
            if kind == "update":
                db.update("r", tid, change)
            elif kind == "delete":
                db.delete("r", tid)
            elif kind == "bulk_update":
                db.bulk_update("r", {tid: change})
            elif kind == "vetoed":
                veto[0] = True
                with pytest.raises(AbortMutation):
                    which = data.draw(st.sampled_from(["insert", "update", "delete"]))
                    if which == "insert":
                        db.insert("r", change)
                    elif which == "update":
                        db.update("r", tid, change)
                    else:
                        db.delete("r", tid)
                veto[0] = False
            else:  # an explicit transaction that rolls back
                with pytest.raises(RuntimeError):
                    with db.transaction():
                        db.update("r", tid, change)
                        db.insert("r", data.draw(rows))
                        db.delete("r", tid)
                        raise RuntimeError("roll back")
        elif kind == "failed_action":
            pending.append(data.draw(rows))
            db.insert("t", {"x": 1})
            assert not pending  # the action ran, and its insert was undone
    assert rel.statistics.tracked == (read_name,)
    assert_agrees_with_a_scan(rel)
    assert len(engine.dead_letters) == steps.count("failed_action")


# ----------------------------------------------------------------------
# statistics reads beside writers on a threadsafe database
# ----------------------------------------------------------------------


def test_estimates_do_not_race_writers_on_a_threadsafe_database():
    db = Database(threadsafe=True)
    rel = db.create_relation("r", ["a", "b"])
    engine = RuleEngine(db, matcher="ibs-concurrent")
    stop = threading.Event()
    errors = []

    def writer():
        try:
            i = 0
            while not stop.is_set():
                tid = db.insert("r", {"a": i % 1000, "b": 5000 + i % 700})
                if i % 2:
                    db.delete("r", tid)
                i += 1
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    db.insert("r", {"a": 0, "b": 5000})  # rows present: every estimate reads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race shows
    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        for n in range(300):
            engine.create_rule(
                f"q{n}",
                "r",
                f"a >= {n % 900} and a <= {n % 900 + 50} and b >= 5100",
                lambda ctx: None,
            )
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
        engine.close()
    assert not thread.is_alive(), "writer did not finish"
    assert not errors, errors
    assert sorted(rel.statistics.tracked) == ["a", "b"]
    assert_agrees_with_a_scan(rel)
