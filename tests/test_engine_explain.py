"""Tests for RuleEngine.explain and miscellaneous engine surfaces."""

import pytest
from hypothesis import given, strategies as st

from repro import CollectAction, Database, RuleEngine
from repro.errors import RuleCycleError
from repro.predicates import PredicateGroup
from repro.rules import Agenda
from repro.rules.rule import Rule


def agenda_rule(name, priority=0):
    return Rule(name, "rel", PredicateGroup("rel", []), lambda ctx: None,
                priority=priority)


@pytest.fixture
def engine_db():
    db = Database()
    db.create_relation("emp", ["name", "age", "salary"])
    db.create_relation("other", ["x"])
    engine = RuleEngine(db)
    engine.create_rule(
        "senior", on="emp", condition="age > 50", action=lambda ctx: None
    )
    engine.create_rule(
        "split", on="emp", condition="salary < 10 or salary > 90",
        action=lambda ctx: None,
    )
    engine.create_rule(
        "elsewhere", on="other", condition="x = 1", action=lambda ctx: None
    )
    return engine, db


class TestExplain:
    def test_matched_and_unmatched(self, engine_db):
        engine, _ = engine_db
        report = {r["rule"]: r for r in engine.explain("emp", {"age": 60, "salary": 50})}
        assert set(report) == {"senior", "split"}  # only emp rules
        assert report["senior"]["matched"] is True
        assert report["senior"]["via"] == ["emp: age > 50"]
        assert report["split"]["matched"] is False
        assert report["split"]["via"] == []

    def test_disjunct_attribution(self, engine_db):
        engine, _ = engine_db
        report = {r["rule"]: r for r in engine.explain("emp", {"age": 1, "salary": 95})}
        assert report["split"]["matched"] is True
        assert report["split"]["via"] == ["emp: salary > 90"]

    def test_condition_and_events_included(self, engine_db):
        engine, _ = engine_db
        record = engine.explain("emp", {"age": 60, "salary": 50})[0]
        assert record["condition"] == "age > 50"
        assert record["events"] == ["insert", "update"]
        assert record["enabled"] is True

    def test_unknown_relation_empty(self, engine_db):
        engine, _ = engine_db
        assert engine.explain("ghost", {"x": 1}) == []

    def test_disabled_rule_still_reported(self, engine_db):
        engine, _ = engine_db
        engine.rule("senior").enabled = False
        report = {r["rule"]: r for r in engine.explain("emp", {"age": 60, "salary": 50})}
        assert report["senior"]["enabled"] is False
        # matching is a property of the condition, not the enable flag
        assert report["senior"]["matched"] is True


class TestAgendaSurface:
    def test_len_bool_clear(self):
        from repro.rules import Agenda
        from repro.rules.rule import Rule
        from repro.predicates import PredicateGroup

        agenda = Agenda()
        assert not agenda and len(agenda) == 0
        rule = Rule("r", "rel", PredicateGroup("rel", []), lambda ctx: None)
        agenda.post(rule, object())
        assert agenda and len(agenda) == 1
        agenda.clear()
        assert len(agenda) == 0

    def test_pop_order_priority_then_recency(self):
        from repro.rules import Agenda
        from repro.rules.rule import Rule
        from repro.predicates import PredicateGroup

        agenda = Agenda()

        def rule(name, priority):
            return Rule(name, "rel", PredicateGroup("rel", []), lambda ctx: None,
                        priority=priority)

        first_low = rule("low1", 1)
        second_low = rule("low2", 1)
        high = rule("high", 9)
        agenda.post(first_low, "a")
        agenda.post(second_low, "b")
        agenda.post(high, "c")
        names = [agenda.pop()[0].name for _ in range(3)]
        assert names == ["high", "low2", "low1"]  # priority, then recency

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("post"), st.integers(min_value=-3, max_value=3)),
                st.tuples(st.just("pop"), st.none()),
                st.tuples(st.just("clear"), st.none()),
            ),
            max_size=80,
        )
    )
    def test_order_matches_sorted_reference(self, ops):
        """Interleaved post/pop/clear agree with a list kept sorted by
        (-priority, -post order); few priorities force ties."""
        agenda = Agenda()
        reference = []  # (priority, post order, rule)
        for order, (op, priority) in enumerate(ops):
            if op == "post":
                rule = agenda_rule(f"r{order}", priority)
                agenda.post(rule, order)
                reference.append((priority, order, rule))
            elif op == "pop":
                if not reference:
                    with pytest.raises(IndexError):
                        agenda.pop()
                    continue
                reference.sort(key=lambda entry: (-entry[0], -entry[1]))
                _, expected_order, expected_rule = reference.pop(0)
                assert agenda.pop() == (expected_rule, expected_order)
            else:
                agenda.clear()
                reference.clear()
            assert len(agenda) == len(reference)
            assert bool(agenda) == bool(reference)

    @given(
        pending=st.integers(min_value=1, max_value=12),
        max_firings=st.integers(min_value=0, max_value=12),
        cascade=st.integers(min_value=0, max_value=30),
    )
    def test_drain_limit_is_max_firings_plus_pending(self, pending, max_firings, cascade):
        """A drain fires its *pending* instantiations plus at most
        *max_firings* cascaded ones; one more raises RuleCycleError."""
        agenda = Agenda(max_firings=max_firings)
        for n in range(pending):
            agenda.post(agenda_rule(f"r{n}", n % 3 - 1), n)
        fired = cascaded = 0
        try:
            for rule, context in agenda.drain():
                fired += 1
                if cascaded < cascade:
                    agenda.post(rule, context)
                    cascaded += 1
        except RuleCycleError:
            assert cascade > max_firings
            assert fired == pending + max_firings
            assert not agenda
        else:
            assert cascade <= max_firings
            assert fired == pending + cascade
        assert agenda.total_fired == fired + (cascade > max_firings)
