"""Differential tests for the vectorized columnar batch plane.

``repro.match.columnar`` precomputes every stab outcome of a relation's
trees into packed bit rows and answers ``match_batch`` with NumPy
gathers.  None of that may change a single answer: every test here
compares the ``columnar`` strategy against the scalar batch path and
the per-tuple path, which the brute-force suites pin to the paper's
semantics.  The module runs — and must pass — without NumPy too: the
plane is then inert and the strategy answers through the scalar
pipeline, which is exactly the fallback contract under test.
"""

import random
from decimal import Decimal

import pytest

from repro import (
    EqualityClause,
    FunctionClause,
    Interval,
    IntervalClause,
    Predicate,
    PredicateIndex,
)
from repro.concurrency import ConcurrentPredicateIndex
from repro.match import columnar as columnar_module
from repro.match.columnar import HAVE_NUMPY
from repro.match.registry import DEFAULT_REGISTRY

ATTRS = ["a", "b", "c"]


def is_odd(x):
    return x % 2 == 1


def build_predicates(rng, count):
    """Single-clause predicates over ATTRS: equalities, closed and open
    intervals, and (negated) function clauses — the full residual-kind
    spread the plane compiles or falls back on."""
    predicates = []
    for ident in range(count):
        attr = rng.choice(ATTRS)
        kind = rng.random()
        if kind < 0.2:
            clause = EqualityClause(attr, rng.randint(-8, 8))
        elif kind < 0.5:
            lo = rng.randint(-10, 10)
            hi = lo + rng.randint(0, 6)
            clause = IntervalClause(
                attr,
                Interval(lo, hi, rng.random() < 0.7, rng.random() < 0.7)
                if lo != hi
                else Interval.closed(lo, hi),
            )
        elif kind < 0.7:
            clause = IntervalClause(attr, Interval.at_least(rng.randint(-10, 10)))
        elif kind < 0.85:
            clause = IntervalClause(attr, Interval.at_most(rng.randint(-10, 10)))
        else:
            clause = FunctionClause(attr, is_odd, negated=rng.random() < 0.5)
        predicates.append(Predicate("r", [clause], ident=ident))
    return predicates


def make_tuple(rng, edge_values=()):
    tup = {}
    for attr in ATTRS:
        roll = rng.random()
        if roll < 0.12:
            continue  # missing key
        if roll < 0.24:
            tup[attr] = None
        elif edge_values and roll < 0.45:
            tup[attr] = rng.choice(edge_values)
        else:
            tup[attr] = rng.choice(
                [rng.randint(-12, 12), float(rng.randint(-12, 12)),
                 rng.uniform(-12.0, 12.0), bool(rng.random() < 0.5), 0, 0.0]
            )
    return tup


def ident_rows(rows):
    return [sorted(p.ident for p in row) for row in rows]


def columnar_index():
    return DEFAULT_REGISTRY.create_matcher("columnar")


def loaded(index, predicates):
    for predicate in predicates:
        index.add(predicate)
    return index


EDGES = (
    float("nan"), float("inf"), float("-inf"),
    2**52, -(2**52), True, False, 0, 0.0, 0.5,
)


@pytest.mark.parametrize("backend", ["ibs", "avl", "rb", "disk"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_columnar_equals_scalar_equals_per_tuple(seed, backend, tmp_path):
    """The plane is swept from any IBS backend's intervals, a disk
    index's included, and answers as the scalar paths do."""
    rng = random.Random(seed)
    predicates = build_predicates(rng, rng.randint(1, 60))
    batch = [make_tuple(rng, EDGES) for _ in range(rng.randint(1, 80))]

    per_tuple_index = loaded(PredicateIndex(), predicates)
    expected = [ident_rows([per_tuple_index.match("r", t)])[0] for t in batch]

    scalar = loaded(PredicateIndex(), predicates)
    assert ident_rows(scalar.match_batch("r", batch)) == expected

    if backend == "disk":
        index = PredicateIndex(storage="disk", data_dir=str(tmp_path), columnar=True)
    else:
        index = PredicateIndex(tree_factory=backend, columnar=True)
    vectorized = loaded(index, predicates)
    assert ident_rows(vectorized.match_batch("r", batch)) == expected
    # the logical counters are path-independent, plane or no plane
    assert (
        vectorized.stats.logical_counts() == scalar.stats.logical_counts()
    )
    if HAVE_NUMPY:  # the plane was built, not skipped for the backend
        assert index._catalog.relations["r"].columnar_plane[1] is not None


def test_registered_backends_agree(subtests=None):
    """Every registered matcher answers the same workload identically;
    backends that support ``freeze`` must also agree after freezing
    (the frozen trees are the columnar plane's substrate)."""
    rng = random.Random(99)
    predicates = build_predicates(rng, 40)
    batch = [make_tuple(rng) for _ in range(50)]
    oracle = loaded(PredicateIndex(), predicates)
    expected = [sorted(oracle.match_idents("r", t)) for t in batch]
    for name in DEFAULT_REGISTRY.matchers():
        matcher = DEFAULT_REGISTRY.create_matcher(name)
        loaded(matcher, predicates)
        assert ident_rows(matcher.match_batch("r", batch)) == expected, name
        if hasattr(matcher, "freeze"):
            matcher.freeze()
            assert (
                ident_rows(matcher.match_batch("r", batch)) == expected
            ), f"{name} (frozen)"


def test_out_of_domain_values_use_the_scalar_pipeline():
    """Decimals, huge ints and strings are outside the plane's float64
    domain; the whole batch must silently take the scalar path and
    still answer exactly like per-tuple matching."""
    index = loaded(
        columnar_index(),
        [
            Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1),
            Predicate("r", [EqualityClause("a", 5)], ident=2),
            Predicate("r", [IntervalClause("b", Interval.at_most(2**60))], ident=3),
        ],
    )
    batch = [
        {"a": Decimal("5"), "b": 1},
        {"a": 2**60},
        {"a": "zzz", "b": "aaa"},
        {"a": 5, "b": 3},
    ]
    expected = [sorted(index.match_idents("r", t)) for t in batch]
    assert ident_rows(index.match_batch("r", batch)) == expected
    assert expected[0] == [1, 2, 3]  # Decimal('5') == 5 in the scalar trees


def test_unhashable_value_threads_through_the_shared_seam():
    """Columnar bails on the non-numeric value, the scalar batch then
    routes only the offending tuple per-tuple: the clean tuples still
    go through one batched route event."""
    index = loaded(
        columnar_index(),
        [Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1)],
    )
    batch = [{"a": [1, 2]}, {"a": 5}, {"a": 99}]
    expected = [sorted(index.match_idents("r", t)) for t in batch]
    assert ident_rows(index.match_batch("r", batch)) == expected
    assert index.stats.batches_matched == 1


def test_raising_function_clause_raises_on_every_path():
    def touchy(v):
        if v == 13:
            raise ValueError("boom")
        return True

    predicates = [Predicate("r", [FunctionClause("a", touchy)], ident=1)]
    batch = [{"a": 1}, {"a": 13}]
    for index in (
        loaded(PredicateIndex(), predicates),
        loaded(columnar_index(), predicates),
    ):
        with pytest.raises(ValueError):
            [index.match("r", t) for t in batch]
        with pytest.raises(ValueError):
            index.match_batch("r", batch)


def test_mutation_invalidates_the_plane():
    index = columnar_index()
    index.add(Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1))
    batch = [{"a": 5}, {"a": 50}]
    assert ident_rows(index.match_batch("r", batch)) == [[1], []]
    index.add(Predicate("r", [IntervalClause("a", Interval.at_least(40))], ident=2))
    assert ident_rows(index.match_batch("r", batch)) == [[1], [2]]
    index.remove(1)
    assert ident_rows(index.match_batch("r", batch)) == [[], [2]]


@pytest.mark.skipif(not HAVE_NUMPY, reason="plane cache only exists with NumPy")
def test_frozen_index_builds_the_plane_once(monkeypatch):
    calls = []
    real_build = columnar_module.build_relation_plane

    def counting_build(state):
        calls.append(state)
        return real_build(state)

    monkeypatch.setattr(columnar_module, "build_relation_plane", counting_build)
    index = loaded(
        columnar_index(),
        [Predicate("r", [IntervalClause("a", Interval.closed(0, 10))], ident=1)],
    )
    index.freeze()
    batch = [{"a": 5}]
    assert ident_rows(index.match_batch("r", batch)) == [[1]]
    assert ident_rows(index.match_batch("r", batch)) == [[1]]
    assert len(calls) == 1  # version unchanged: cached plane reused


def test_without_numpy_the_strategy_still_answers(monkeypatch):
    monkeypatch.setattr(columnar_module, "HAVE_NUMPY", False)
    rng = random.Random(7)
    predicates = build_predicates(rng, 25)
    batch = [make_tuple(rng, EDGES) for _ in range(40)]
    scalar = loaded(PredicateIndex(), predicates)
    inert = loaded(columnar_index(), predicates)
    assert ident_rows(inert.match_batch("r", batch)) == ident_rows(
        scalar.match_batch("r", batch)
    )
    assert inert.stats.logical_counts() == scalar.stats.logical_counts()


def test_concurrent_facade_with_columnar_snapshots():
    rng = random.Random(21)
    predicates = build_predicates(rng, 40)
    batch = [make_tuple(rng) for _ in range(60)]
    oracle = loaded(PredicateIndex(), predicates)
    expected = [sorted(oracle.match_idents("r", t)) for t in batch]
    index = ConcurrentPredicateIndex(columnar=True)
    for predicate in predicates:
        index.add(predicate)
    assert ident_rows(index.match_batch("r", batch)) == expected
    index.compact()  # snapshot bases are frozen -> plane built once
    assert ident_rows(index.match_batch("r", batch)) == expected


def test_columnar_capability_flags():
    info = DEFAULT_REGISTRY.describe_matcher("columnar")
    assert info["capabilities"] == {
        "requires_numpy": True,
        "vectorized_batch": True,
    }
    # other matchers advertise an empty capability dict, not an error
    assert DEFAULT_REGISTRY.describe_matcher("ibs")["capabilities"] == {}
