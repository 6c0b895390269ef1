"""Public API surface tests: everything advertised resolves and works."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.intervals",
            "repro.core.ibs_tree",
            "repro.core.avl_ibs_tree",
            "repro.core.rotations",
            "repro.core.predicate_index",
            "repro.core.selectivity",
            "repro.concurrency",
            "repro.concurrency.facade",
            "repro.maintenance",
            "repro.maintenance.clock",
            "repro.maintenance.policy",
            "repro.maintenance.scheduler",
            "repro.maintenance.tasks",
            "repro.disk",
            "repro.disk.store",
            "repro.match",
            "repro.match.catalog",
            "repro.match.columnar",
            "repro.match.observer",
            "repro.match.pipeline",
            "repro.match.registry",
            "repro.match.store",
            "repro.match.health",
            "repro.predicates",
            "repro.lang",
            "repro.db",
            "repro.db.statistics",
            "repro.rules",
            "repro.rules.agenda",
            "repro.baselines",
            "repro.workloads",
            "repro.workloads.scenarios",
            "repro.bench",
            "repro.bench.cost_model",
            "repro.bench.runner",
            "repro.testing",
            "repro.testing.faults",
            "repro.errors",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_error_hierarchy(self):
        from repro.errors import (
            ClauseError,
            DatabaseError,
            IntervalError,
            ParseError,
            PredicateError,
            RegistryError,
            ReproError,
            RuleError,
            SchemaError,
            TreeError,
            TupleError,
        )

        for exc in (
            IntervalError,
            TreeError,
            PredicateError,
            ClauseError,
            ParseError,
            DatabaseError,
            SchemaError,
            TupleError,
            RuleError,
            RegistryError,
        ):
            assert issubclass(exc, ReproError), exc

    def test_docstrings_on_public_classes(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} is missing a docstring"

    def test_readme_quickstart_works(self):
        """The README's quickstart snippet, verbatim."""
        from repro import IBSTree, Interval

        tree = IBSTree()
        tree.insert(Interval.closed(9, 19), "A")
        tree.insert(Interval.closed_open(2, 7), "B")
        tree.insert(Interval.at_most(17), "G")
        assert tree.stab(12) == {"A", "G"}
        tree.delete("B")

    def test_readme_rule_snippet_works(self):
        from repro import Database, RuleEngine

        db = Database()
        db.create_relation("emp", ["name", "age", "salary", "dept"])
        hits = []
        engine = RuleEngine(db)
        engine.create_rule(
            "well_paid",
            on="emp",
            condition="20000 <= salary <= 30000",
            action=lambda ctx: hits.append(ctx.tuple["name"]),
        )
        db.insert(
            "emp", {"name": "Lee", "age": 41, "salary": 25000, "dept": "Shoe"}
        )
        assert hits == ["Lee"]
