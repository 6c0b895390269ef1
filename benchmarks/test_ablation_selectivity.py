"""ABL3 — entry-clause selectivity estimation ablation.

The paper indexes each predicate under "the most selective" of its
indexable clauses, with "selectivity estimates ... obtained from the
query optimizer".  This ablation quantifies that design choice on a
skewed domain where shape-based constants (System R style) pick wrong,
and checks that ``retune()`` re-files rules created before their data
as if the data had come first.
"""

import pytest

from repro.bench.runner import run_ablation_selectivity


@pytest.fixture(scope="module")
def ablation_rows():
    return run_ablation_selectivity(predicates=200, tuples=200)


def test_abl3_statistics_reduce_partial_matches(ablation_rows):
    by_name = {row["estimator"]: row for row in ablation_rows}
    default = by_name["default constants"]
    stats = by_name["statistics"]
    # the skewed equality clause partially matches ~95% of tuples;
    # the range clause ~10%: expect a large gap
    assert stats["partials_per_tuple"] < default["partials_per_tuple"] / 3


def test_abl3_tree_layout_differs(ablation_rows):
    by_name = {row["estimator"]: row for row in ablation_rows}
    assert by_name["default constants"]["status_tree"] == 200
    assert by_name["statistics"]["value_tree"] == 200


def test_abl3_retune_rechooses_rules_created_before_data(ablation_rows):
    # rules created on an empty relation are filed by the System R
    # constants (all under "status"); once the rows load, retune()
    # must reach the layout and partial-match count of the row whose
    # data came first
    by_name = {row["estimator"]: row for row in ablation_rows}
    late = by_name["rules first + retune"]
    assert late["value_tree"] == 200
    assert late["status_tree"] == 0
    assert late["partials_per_tuple"] == by_name["statistics"]["partials_per_tuple"]
    assert (
        late["partials_per_tuple"]
        < by_name["default constants"]["partials_per_tuple"] / 3
    )


def test_abl3_both_layouts_answer_identically():
    import random

    from repro import Interval, PredicateIndex
    from repro.core.selectivity import DefaultEstimator
    from repro.predicates.clauses import EqualityClause, IntervalClause
    from repro.predicates.predicate import Predicate

    rng = random.Random(3)

    class FlippedEstimator(DefaultEstimator):
        """Deliberately prefers intervals over equalities."""

        EQUALITY = 0.9
        BOUNDED = 0.1

    predicates = []
    for k in range(100):
        start = rng.randint(0, 900)
        predicates.append(
            Predicate(
                "log",
                [
                    EqualityClause("status", rng.choice(["a", "b"])),
                    IntervalClause("value", Interval.closed(start, start + 99)),
                ],
                ident=k,
            )
        )
    first = PredicateIndex(estimator=DefaultEstimator())
    second = PredicateIndex(estimator=FlippedEstimator())
    for predicate in predicates:
        first.add(predicate)
        second.add(
            Predicate(
                predicate.relation, predicate.clauses, ident=predicate.ident
            )
        )
    for _ in range(200):
        tup = {"status": rng.choice(["a", "b", "c"]), "value": rng.randint(0, 1100)}
        assert first.match_idents("log", tup) == second.match_idents("log", tup)


@pytest.mark.parametrize("estimator", ["default", "statistics"])
def test_abl3_match_cost(benchmark, estimator):
    import random

    from repro import Interval, PredicateIndex
    from repro.core.selectivity import DefaultEstimator, StatisticsEstimator
    from repro.db import Database
    from repro.predicates.clauses import EqualityClause, IntervalClause
    from repro.predicates.predicate import Predicate

    rng = random.Random(5)
    db = Database()
    db.create_relation("log", ["status", "value"])
    for _ in range(1_000):
        db.insert(
            "log",
            {
                "status": "active" if rng.random() < 0.95 else "closed",
                "value": rng.randint(1, 10_000),
            },
        )
    chosen = (
        DefaultEstimator() if estimator == "default" else StatisticsEstimator(db)
    )
    index = PredicateIndex(estimator=chosen)
    for k in range(200):
        start = rng.randint(1, 9_000)
        index.add(
            Predicate(
                "log",
                [
                    EqualityClause("status", "active"),
                    IntervalClause("value", Interval.closed(start, start + 999)),
                ],
            )
        )
    tuples = [
        {"status": "active", "value": rng.randint(1, 10_000)} for _ in range(64)
    ]
    state = {"i": 0}

    def match_one():
        tup = tuples[state["i"] % len(tuples)]
        state["i"] += 1
        index.match("log", tup)

    benchmark(match_one)
