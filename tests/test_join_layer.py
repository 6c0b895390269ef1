"""Tests for the two-layer (selection + join) discrimination network."""

import pytest

from repro import CollectAction, Database, RuleEngine
from repro.errors import DuplicateRuleError, ParseError, RuleError, UnknownRuleError


@pytest.fixture
def db():
    database = Database()
    database.create_relation("emp", ["name", "salary", "dept"])
    database.create_relation("dept", ["dname", "budget", "floor"])
    return database


@pytest.fixture
def engine(db):
    return RuleEngine(db)


class JoinCollect:
    """Records (emp_name, dept_name) pairs from join firings."""

    def __init__(self):
        self.pairs = []

    def __call__(self, ctx):
        emp = ctx.bindings["emp"]
        dept = ctx.bindings["dept"]
        self.pairs.append((emp["name"], dept["dname"]))


class TestEquiJoin:
    CONDITION = "emp.dept = dept.dname and emp.salary > 1000 and dept.budget >= 100"

    def test_pairs_fire_from_either_side(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, collect)
        db.insert("emp", {"name": "A", "salary": 5000, "dept": "Shoe"})
        assert collect.pairs == []  # no dept yet
        db.insert("dept", {"dname": "Shoe", "budget": 500})
        assert collect.pairs == [("A", "Shoe")]
        db.insert("emp", {"name": "B", "salary": 9000, "dept": "Shoe"})
        assert ("B", "Shoe") in collect.pairs

    def test_selection_filters_apply(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, collect)
        db.insert("dept", {"dname": "Shoe", "budget": 500})
        db.insert("emp", {"name": "Poor", "salary": 10, "dept": "Shoe"})
        db.insert("emp", {"name": "Rich", "salary": 9999, "dept": "Toy"})
        assert collect.pairs == []
        db.insert("dept", {"dname": "Toy", "budget": 1})  # fails budget filter
        assert collect.pairs == []

    def test_update_moves_membership(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, collect)
        db.insert("dept", {"dname": "Shoe", "budget": 500})
        tid = db.insert("emp", {"name": "A", "salary": 10, "dept": "Shoe"})
        assert collect.pairs == []
        db.update("emp", tid, {"salary": 2000})
        assert collect.pairs == [("A", "Shoe")]
        # moving out of the selection forgets the tuple
        db.update("emp", tid, {"salary": 5})
        db.insert("dept", {"dname": "Shoe2", "budget": 500})
        assert len(collect.pairs) == 1

    def test_delete_forgets(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, collect)
        tid = db.insert("emp", {"name": "A", "salary": 5000, "dept": "Shoe"})
        db.delete("emp", tid)
        db.insert("dept", {"dname": "Shoe", "budget": 500})
        assert collect.pairs == []

    def test_seeding_from_existing_data(self, db, engine):
        db.insert("emp", {"name": "Old", "salary": 5000, "dept": "Shoe"})
        collect = JoinCollect()
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, collect)
        # pre-existing tuple joins with a future partner
        db.insert("dept", {"dname": "Shoe", "budget": 500})
        assert collect.pairs == [("Old", "Shoe")]

    def test_join_key_null_never_joins(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, collect)
        db.insert("emp", {"name": "A", "salary": 5000, "dept": None})
        db.insert("dept", {"dname": None, "budget": 500})
        assert collect.pairs == []


class TestThetaJoin:
    def test_inequality_join(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule(
            "cheaper", "emp", "dept",
            "emp.salary <= dept.budget",
            collect,
        )
        db.insert("dept", {"dname": "D1", "budget": 100})
        db.insert("emp", {"name": "A", "salary": 50, "dept": "x"})
        db.insert("emp", {"name": "B", "salary": 500, "dept": "x"})
        assert collect.pairs == [("A", "D1")]

    def test_mixed_equi_and_theta(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule(
            "jr", "emp", "dept",
            "emp.dept = dept.dname and emp.salary > dept.budget",
            collect,
        )
        db.insert("dept", {"dname": "Shoe", "budget": 100})
        db.insert("emp", {"name": "A", "salary": 500, "dept": "Shoe"})
        db.insert("emp", {"name": "B", "salary": 5, "dept": "Shoe"})
        assert collect.pairs == [("A", "Shoe")]

    def test_reversed_qualifier_order(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule(
            "jr", "emp", "dept", "dept.budget >= emp.salary", collect
        )
        db.insert("dept", {"dname": "D", "budget": 100})
        db.insert("emp", {"name": "A", "salary": 50, "dept": "x"})
        assert collect.pairs == [("A", "D")]


class TestValidation:
    def test_requires_join_clause(self, db, engine):
        with pytest.raises(RuleError):
            engine.create_join_rule(
                "jr", "emp", "dept", "emp.salary > 100 and dept.budget > 5",
                lambda ctx: None,
            )

    def test_rejects_self_join(self, db, engine):
        with pytest.raises(RuleError):
            engine.create_join_rule(
                "jr", "emp", "emp", "emp.salary = emp.salary", lambda ctx: None
            )

    def test_rejects_unqualified_attrs(self, db, engine):
        with pytest.raises(ParseError):
            engine.create_join_rule(
                "jr", "emp", "dept", "salary > dept.budget", lambda ctx: None
            )

    def test_rejects_unknown_qualifier(self, db, engine):
        with pytest.raises(ParseError):
            engine.create_join_rule(
                "jr", "emp", "dept", "ghost.x = dept.budget", lambda ctx: None
            )

    def test_rejects_duplicate_name(self, db, engine):
        engine.create_rule("taken", on="emp", condition="true", action=lambda ctx: None)
        with pytest.raises(DuplicateRuleError):
            engine.create_join_rule(
                "taken", "emp", "dept", "emp.dept = dept.dname", lambda ctx: None
            )

    def test_rejects_complex_join_conjunct(self, db, engine):
        with pytest.raises(ParseError):
            engine.create_join_rule(
                "jr", "emp", "dept",
                "(emp.dept = dept.dname or emp.salary > dept.budget)",
                lambda ctx: None,
            )

    def test_rejects_impossible_selection(self, db, engine):
        with pytest.raises(RuleError):
            engine.create_join_rule(
                "jr", "emp", "dept",
                "emp.dept = dept.dname and emp.salary > 5 and emp.salary < 1",
                lambda ctx: None,
            )


class TestManagement:
    def test_drop_join_rule(self, db, engine):
        collect = JoinCollect()
        engine.create_join_rule(
            "jr", "emp", "dept", "emp.dept = dept.dname", collect
        )
        engine.drop_join_rule("jr")
        db.insert("emp", {"name": "A", "salary": 1, "dept": "Shoe"})
        db.insert("dept", {"dname": "Shoe", "budget": 5})
        assert collect.pairs == []
        with pytest.raises(UnknownRuleError):
            engine.drop_join_rule("jr")

    def test_join_rules_listed(self, db, engine):
        engine.create_join_rule(
            "jr", "emp", "dept", "emp.dept = dept.dname", lambda ctx: None
        )
        assert [r.name for r in engine.joins.rules()] == ["jr"]
        assert len(engine.joins) == 1
        assert engine.joins.rule("jr").fire_count == 0

    def test_fire_count_and_priority(self, db, engine):
        order = []
        engine.create_join_rule(
            "jr", "emp", "dept", "emp.dept = dept.dname",
            lambda ctx: order.append("join"), priority=10,
        )
        engine.create_rule(
            "sel", on="dept", condition="true",
            action=lambda ctx: order.append("sel"), priority=0,
        )
        db.insert("emp", {"name": "A", "salary": 1, "dept": "Shoe"})
        db.insert("dept", {"dname": "Shoe", "budget": 5})
        assert order == ["join", "sel"]
        assert engine.joins.rule("jr").fire_count == 1


class TestActionsCannotEditMemories:
    """An action's ``ctx.tuple`` and ``ctx.bindings`` are its own copies.

    Each image is also an alpha memory's entry; were the action handed
    the entry itself, an edit would make later joins test a value the
    stored tuple does not hold.
    """

    CONDITION = "emp.dept = dept.dname"

    @staticmethod
    def editing_once(edit):
        """A join action recording pairs, applying *edit* at its first firing."""
        pairs = []

        def action(ctx):
            pairs.append((ctx.bindings["emp"]["name"], ctx.bindings["dept"]["dname"]))
            if len(pairs) == 1:
                edit(ctx)

        return action, pairs

    def test_editing_a_binding_leaves_the_memory_alone(self, db, engine):
        def rename(ctx):
            ctx.bindings["dept"]["dname"] = "Toy"

        action, pairs = self.editing_once(rename)
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, action)
        db.insert("dept", {"dname": "Shoe", "budget": 5})
        db.insert("emp", {"name": "A", "salary": 1, "dept": "Shoe"})
        db.insert("emp", {"name": "C", "salary": 1, "dept": "Shoe"})
        assert pairs == [("A", "Shoe"), ("C", "Shoe")]
        assert db.select("dept") == [{"dname": "Shoe", "budget": 5, "floor": None}]

    def test_editing_the_tuple_leaves_the_memory_alone(self, db, engine):
        def rename(ctx):
            ctx.tuple["dname"] = "Toy"

        action, pairs = self.editing_once(rename)
        engine.create_join_rule("jr", "emp", "dept", self.CONDITION, action)
        db.insert("emp", {"name": "A", "salary": 1, "dept": "Shoe"})
        db.insert("dept", {"dname": "Shoe", "budget": 5})  # fires from the dept side
        db.insert("emp", {"name": "C", "salary": 1, "dept": "Shoe"})
        assert pairs == [("A", "Shoe"), ("C", "Shoe")]
