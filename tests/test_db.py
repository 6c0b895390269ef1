"""Tests for the main-memory database substrate."""

import pytest

from repro import AbortMutation, Database, SchemaError, TupleError
from repro.db import (
    ANY,
    Attribute,
    BOOLEAN,
    Domain,
    FLOAT,
    INTEGER,
    InsertEvent,
    DeleteEvent,
    Schema,
    STRING,
    UpdateEvent,
    integer_range,
)
from repro.errors import UnknownAttributeError, UnknownRelationError


class TestDomains:
    def test_integer(self):
        INTEGER.validate(5)
        INTEGER.validate(None)  # NULL always ok
        with pytest.raises(SchemaError):
            INTEGER.validate(5.5)
        with pytest.raises(SchemaError):
            INTEGER.validate(True)  # bools are not integers here

    def test_string_float_boolean_any(self):
        STRING.validate("x")
        with pytest.raises(SchemaError):
            STRING.validate(5)
        FLOAT.validate(5.5)
        FLOAT.validate(5)
        BOOLEAN.validate(True)
        with pytest.raises(SchemaError):
            BOOLEAN.validate(1)
        ANY.validate(object())

    def test_integer_range(self):
        dom = integer_range(1, 10)
        dom.validate(5)
        with pytest.raises(SchemaError):
            dom.validate(0)
        with pytest.raises(SchemaError):
            dom.validate(11)
        assert dom.bounded()
        with pytest.raises(SchemaError):
            integer_range(10, 1)


class TestSchema:
    def test_attribute_specs(self):
        schema = Schema("r", ["plain", ("typed", INTEGER), Attribute("attr", STRING)])
        assert schema.attribute_names == ["plain", "typed", "attr"]
        assert schema.attribute("typed").domain is INTEGER
        assert "plain" in schema
        assert len(schema) == 3

    def test_bad_names(self):
        with pytest.raises(SchemaError):
            Schema("r", ["1bad"])
        with pytest.raises(SchemaError):
            Schema("r", ["has space"])
        with pytest.raises(SchemaError):
            Schema("", ["x"])
        with pytest.raises(SchemaError):
            Schema("r", [])

    def test_duplicate_attribute(self):
        with pytest.raises(SchemaError):
            Schema("r", ["x", "x"])

    def test_unknown_attribute(self):
        schema = Schema("r", ["x"])
        with pytest.raises(UnknownAttributeError):
            schema.attribute("y")

    def test_validate_tuple(self):
        schema = Schema("r", [("x", INTEGER), "y"])
        tup = schema.validate_tuple({"x": 1})
        assert tup == {"x": 1, "y": None}
        with pytest.raises(TupleError):
            schema.validate_tuple({"z": 1})
        with pytest.raises(TupleError):
            schema.validate_tuple({"x": "nope"})
        with pytest.raises(TupleError):
            schema.validate_tuple([1, 2])

    def test_validate_tuple_checks_only_what_can_fail(self):
        class Even(Domain):
            __slots__ = ()

            def validate(self, value):
                if value is not None and value % 2:
                    raise SchemaError(f"value {value!r} is odd")

        schema = Schema(
            "r", ["w", ("x", INTEGER), ("y", Domain("small", None, 0, 9)), ("z", Even("even"))]
        )
        # complete, in schema order, whatever the caller's order
        assert list(schema.validate_tuple({"z": 2, "w": object()})) == ["w", "x", "y", "z"]
        # the first unknown key in the caller's order is named
        with pytest.raises(TupleError, match=r"no attribute 'b' \(known: w, x, y, z\)"):
            schema.validate_tuple({"x": 1, "b": 2, "a": 3})
        with pytest.raises(TupleError, match="attribute 'x': value 'nope' is not in domain integer"):
            schema.validate_tuple({"x": "nope", "y": 99})
        with pytest.raises(TupleError, match="attribute 'y': value 10 above domain small maximum 9"):
            schema.validate_tuple({"y": 10})
        with pytest.raises(TupleError, match="attribute 'z': value 3 is odd"):
            schema.validate_tuple({"z": 3})

    def test_validate_update(self):
        schema = Schema("r", [("x", INTEGER)])
        assert schema.validate_update({"x": 2}) == {"x": 2}
        with pytest.raises(UnknownAttributeError):
            schema.validate_update({"nope": 1})


class TestDatabase:
    def make(self):
        db = Database()
        db.create_relation("emp", ["name", ("age", INTEGER), "dept"])
        return db

    def test_create_and_lookup(self):
        db = self.make()
        assert "emp" in db
        assert db.relations() == ["emp"]
        assert db.relation("emp").name == "emp"
        with pytest.raises(UnknownRelationError):
            db.relation("nope")
        with pytest.raises(SchemaError):
            db.create_relation("emp", ["x"])

    def test_drop(self):
        db = self.make()
        db.drop_relation("emp")
        assert "emp" not in db
        with pytest.raises(UnknownRelationError):
            db.drop_relation("emp")

    def test_insert_get_update_delete(self):
        db = self.make()
        tid = db.insert("emp", {"name": "A", "age": 3})
        assert db.count("emp") == 1
        assert db.relation("emp").get(tid)["name"] == "A"
        new = db.update("emp", tid, {"age": 4})
        assert new["age"] == 4
        old = db.delete("emp", tid)
        assert old["age"] == 4
        assert db.count("emp") == 0
        with pytest.raises(TupleError):
            db.update("emp", tid, {"age": 9})

    def test_insert_many_and_select(self):
        db = self.make()
        db.insert_many(
            "emp",
            [{"name": "A", "age": 3}, {"name": "B", "age": 9}, {"name": "C", "age": 5}],
        )
        rows = db.select("emp", "age >= 5")
        assert sorted(r["name"] for r in rows) == ["B", "C"]
        assert len(db.select("emp")) == 3

    def test_events_fire_in_order(self):
        db = self.make()
        events = []
        db.subscribe(events.append)
        tid = db.insert("emp", {"name": "A", "age": 1})
        db.update("emp", tid, {"age": 2})
        db.delete("emp", tid)
        kinds = [type(e) for e in events]
        assert kinds == [InsertEvent, UpdateEvent, DeleteEvent]
        assert events[0].tuple == {"name": "A", "age": 1, "dept": None}
        assert events[1].old["age"] == 1 and events[1].new["age"] == 2
        assert events[2].tuple["age"] == 2
        assert events[2].kind == "delete"

    def test_unsubscribe(self):
        db = self.make()
        events = []
        unsubscribe = db.subscribe(events.append)
        unsubscribe()
        unsubscribe()  # idempotent
        db.insert("emp", {"name": "A"})
        assert events == []

    def test_abort_rolls_back_insert(self):
        db = self.make()

        def veto(event):
            if event.kind == "insert" and event.tuple["age"] == 13:
                raise AbortMutation("unlucky")

        db.subscribe(veto)
        db.insert("emp", {"name": "ok", "age": 12})
        with pytest.raises(AbortMutation):
            db.insert("emp", {"name": "bad", "age": 13})
        assert db.count("emp") == 1

    def test_abort_rolls_back_update(self):
        db = self.make()
        tid = db.insert("emp", {"name": "A", "age": 1})

        def veto(event):
            if event.kind == "update":
                raise AbortMutation("frozen")

        db.subscribe(veto)
        with pytest.raises(AbortMutation):
            db.update("emp", tid, {"age": 99})
        assert db.relation("emp").get(tid)["age"] == 1

    def test_abort_rolls_back_delete(self):
        db = self.make()
        tid = db.insert("emp", {"name": "A", "age": 1})

        def veto(event):
            if event.kind == "delete":
                raise AbortMutation("keep")

        db.subscribe(veto)
        with pytest.raises(AbortMutation):
            db.delete("emp", tid)
        assert db.count("emp") == 1
        assert db.relation("emp").get(tid)["name"] == "A"


class TestRelation:
    def test_scan_and_lookup(self):
        db = Database()
        rel = db.create_relation("r", ["x", "y"])
        tids = [db.insert("r", {"x": k % 3, "y": k}) for k in range(9)]
        assert len(list(rel.scan())) == 9
        assert sorted(rel.lookup("x", 1)) == [tids[1], tids[4], tids[7]]
        with pytest.raises(UnknownAttributeError):
            rel.lookup("z", 1)

    def test_select_callable(self):
        db = Database()
        rel = db.create_relation("r", ["x"])
        db.insert_many("r", [{"x": k} for k in range(5)])
        picked = rel.select(lambda t: t["x"] > 2)
        assert sorted(t["x"] for _, t in picked) == [3, 4]

    def test_restore_guard(self):
        db = Database()
        rel = db.create_relation("r", ["x"])
        tid = db.insert("r", {"x": 1})
        with pytest.raises(TupleError):
            rel.restore(tid, {"x": 2})


class TestStatisticsMaintenance:
    def test_row_count_and_min_max(self):
        db = Database()
        rel = db.create_relation("r", ["x"])
        for v in [5, 1, 9]:
            db.insert("r", {"x": v})
        stats = rel.statistics
        assert stats.row_count == 3
        attr = stats.attribute("x")
        assert attr.min_value == 1 and attr.max_value == 9
        assert attr.distinct == 3

    def test_update_and_delete_adjust_counts(self):
        db = Database()
        rel = db.create_relation("r", ["x"])
        tid = db.insert("r", {"x": 5})
        db.update("r", tid, {"x": 7})
        attr = rel.statistics.attribute("x")
        assert attr.value_counts.get(5) is None
        assert attr.value_counts[7] == 1
        db.delete("r", tid)
        assert rel.statistics.row_count == 0

    def test_nothing_read_nothing_tracked(self):
        db = Database()
        rel = db.create_relation("r", ["x", "y"])
        tid = db.insert("r", {"x": 5, "y": 1})
        db.update("r", tid, {"x": 6})
        db.insert("r", {"x": 7, "y": 2})
        assert rel.statistics.row_count == 2
        assert rel.statistics.tracked == ()

    def test_first_read_fills_from_a_scan(self):
        db = Database()
        rel = db.create_relation("r", ["x", "y"])
        for v in [5, 1, None, 9, 1]:
            db.insert("r", {"x": v, "y": 0})
        attr = rel.statistics.attribute("x")
        assert rel.statistics.tracked == ("x",)
        assert (attr.count, attr.null_count) == (5, 1)
        assert attr.value_counts == {5: 1, 1: 2, 9: 1}
        assert (attr.min_value, attr.max_value) == (1, 9)
        # maintained from here on
        db.insert("r", {"x": 0, "y": 0})
        assert attr.count == 6 and attr.min_value == 0
        assert rel.statistics.tracked == ("x",)

    def test_names_outside_the_schema_are_never_tracked(self):
        db = Database()
        rel = db.create_relation("r", ["x"])
        db.insert("r", {"x": 1})
        assert rel.statistics.attribute("nope").count == 0
        assert rel.statistics.tracked == ()
