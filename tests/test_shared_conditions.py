"""The non-indexable list tests each distinct condition once per tuple.

Predicates with no interval clause sit on their relation's
non-indexable list (Figure 1), and every tuple tests every one of them.
The residual stage groups that list by the normalized predicate's
*ordered* clause tuple: predicates with equal tuples — same attributes,
same function objects, same negations, same order — share one compiled
check, and a passing check emits all of its members.  These tests pin
what the grouping must keep:

* a function shared by several predicates is called once per tuple;
* each member's short-circuit and exception behaviour is its own;
* negated clauses, TRIVIAL members (no clauses) and OPAQUE members
  (an unknown clause subclass) keep their answers;
* the groups follow every path that changes a relation's predicates,
  on the scalar index and on the snapshot facades;
* every scalar read path answers exactly as direct ``Predicate.matches``.
"""

import random
from collections import Counter

import pytest

from repro import Interval, IntervalClause, Predicate, PredicateIndex
from repro.concurrency import ConcurrentPredicateIndex
from repro.disk.checkpoint import load_index, save_index
from repro.match import health
from repro.match.pipeline import _non_indexable_shapes
from repro.match.registry import DEFAULT_REGISTRY
from repro.predicates.clauses import Clause, FunctionClause
from tests.conftest import SteeredEstimator

CALLS: Counter = Counter()


def odd(value):
    CALLS["odd"] += 1
    return value % 2 == 1


def positive(value):
    CALLS["positive"] += 1
    return value > 0


def fragile(value):
    """Raises on 13; true otherwise."""
    CALLS["fragile"] += 1
    if value == 13:
        raise ValueError("unlucky value")
    return True


@pytest.fixture(autouse=True)
def reset_calls():
    CALLS.clear()


class EvenClause(Clause):
    """An unknown clause subclass: the stage falls back to ``matches``."""

    def matches(self, tup):
        value = tup.get(self.attribute)
        return value is not None and value % 2 == 0


def fn(attribute, function, negated=False):
    return FunctionClause(attribute, function, negated=negated)


def pred(ident, *clauses):
    return Predicate("r", clauses, ident=ident)


def ranged(ident, low, high):
    return pred(ident, IntervalClause("x", Interval.closed(low, high)))


def mixed_predicates(start=0):
    """Interval predicates beside a non-indexable list with shared,
    negated, reordered, TRIVIAL and OPAQUE members."""
    return [
        ranged(start + 0, 0, 20),
        ranged(start + 1, 10, 40),
        pred(start + 2, IntervalClause("x", Interval.at_least(5)), fn("a", odd)),
        pred(start + 3, fn("a", odd)),
        pred(start + 4, fn("a", odd)),
        pred(start + 5, fn("a", odd, negated=True)),
        pred(start + 6, fn("a", odd), fn("b", positive)),
        pred(start + 7, fn("b", positive), fn("a", odd)),
        pred(start + 8, fn("a", odd), fn("b", positive)),
        pred(start + 9),
        pred(start + 10, EvenClause("b")),
    ]


PROBES = [
    {"x": x, "a": a, "b": b}
    for x in (-1, 7, 15, 33)
    for a in (0, 1, 2, 3, None)
    for b in (-2, 0, 3, 4)
]


def live_predicates(idx):
    if isinstance(idx, PredicateIndex):
        return {p.ident: p for p in idx.predicates_for("r")}
    snapshot = idx.snapshot("r")
    live = {
        p.ident: p
        for p in snapshot.base.predicates_for("r")
        if p.ident not in snapshot.removed
    }
    live.update((p.ident, p) for p in snapshot.overlay_preds)
    return live


def assert_matches_direct(idx, probes=PROBES):
    """``match``, ``match_idents`` and ``match_batch`` each answer
    exactly the live predicates' own verdicts, with the live objects."""
    live = live_predicates(idx)
    rows = idx.match_batch("r", probes)
    for probe, row in zip(probes, rows):
        want = {ident for ident, p in live.items() if p.matches(probe)}
        matched = idx.match("r", probe)
        assert {p.ident for p in matched} == want, probe
        assert len(matched) == len(want), probe  # no member emitted twice
        assert {p.ident for p in row} == want, probe
        assert len(row) == len(want), probe
        assert set(idx.match_idents("r", probe)) == want, probe
        assert all(p is live[p.ident] for p in matched + row), probe


# ----------------------------------------------------------------------
# the groups as the residual stage holds them
# ----------------------------------------------------------------------


def scalar_parts(idx):
    """The scalar indexes whose pipelines answer for relation ``r``."""
    if isinstance(idx, PredicateIndex):
        return [idx]
    snapshot = idx.snapshot("r")
    return [part for part in (snapshot.base, snapshot.overlay) if part is not None]


def held_groups(part):
    """``({clause tuple: member idents}, trivial idents, opaque idents)``."""
    state = part._relations.get("r")
    if state is None:
        return {}, set(), set()
    shapes = _non_indexable_shapes(state)
    if not shapes:
        return {}, set(), set()
    single, multi, trivial, opaque = shapes
    grouped = {}
    for group in single + multi:
        members = group[-1]
        key = members[0].clauses
        assert key not in grouped, "one group per distinct clause tuple"
        assert all(member.clauses == key for member in members)
        assert all(member is state.predicates[member.ident] for member in members)
        grouped[key] = {member.ident for member in members}
    return grouped, {p.ident for p in trivial}, {p.ident for p in opaque}


def wanted_groups(part):
    """The same three parts, derived from the part's live predicates."""
    state = part._relations.get("r")
    grouped, trivial, opaque = {}, set(), set()
    if state is None:
        return grouped, trivial, opaque
    for ident in state.non_indexable:
        clauses = state.predicates[ident].clauses
        if not clauses:
            trivial.add(ident)
        elif all(isinstance(clause, FunctionClause) for clause in clauses):
            grouped.setdefault(clauses, set()).add(ident)
        else:
            opaque.add(ident)
    return grouped, trivial, opaque


def assert_groups_current(idx):
    for part in scalar_parts(idx):
        assert held_groups(part) == wanted_groups(part)
    assert_matches_direct(idx)


# ----------------------------------------------------------------------
# one call per distinct condition, per tuple
# ----------------------------------------------------------------------

READERS = ["ibs", "columnar", "ibs-concurrent"]


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("path", ["match", "match_idents", "match_batch"])
def test_shared_function_is_called_once_per_tuple(name, path):
    idx = DEFAULT_REGISTRY.create_matcher(name)
    idx.add_many([pred(ident, fn("a", odd)) for ident in range(5)])
    if name == "ibs-concurrent":
        idx.compact()  # a small overlay is scanned predicate by predicate
    tuples = [{"a": value} for value in range(6)]
    if path == "match_batch":
        rows = idx.match_batch("r", tuples)
    else:
        rows = [getattr(idx, path)("r", tup) for tup in tuples]
    assert [len(row) for row in rows] == [0, 5, 0, 5, 0, 5]
    assert CALLS["odd"] == len(tuples)


@pytest.mark.parametrize("name", ["ibs-concurrent", "disk-concurrent"])
@pytest.mark.parametrize("path", ["match", "match_batch"])
def test_overlay_scan_calls_a_shared_function_once(tmp_path, name, path):
    # five base and three overlay predicates, all odd(a): one call in
    # the base and one in the overlay, on the batch path's overlay scan
    # as on the per-tuple path
    options = {"data_dir": str(tmp_path)} if name == "disk-concurrent" else {}
    idx = DEFAULT_REGISTRY.create_matcher(name, **options)
    idx.add_many([pred(ident, fn("a", odd)) for ident in range(5)])
    idx.compact()
    for ident in range(5, 8):
        idx.add(pred(ident, fn("a", odd)))
    assert [p.ident for p in idx.snapshot("r").overlay_preds] == [5, 6, 7]
    tup = {"a": 3}
    row = idx.match_batch("r", [tup])[0] if path == "match_batch" else idx.match("r", tup)
    assert [p.ident for p in row] == list(range(8))
    assert CALLS["odd"] == 2


def test_group_count_on_the_paper_scenario():
    """Ordered pairs of 5 function clauses: at most 20 groups for 100
    predicates, so the list costs at most 20 checks per tuple."""
    rng = random.Random(5)
    attributes = [f"a{k}" for k in range(5)]
    idx = PredicateIndex()
    for ident in range(100):
        first, second = rng.sample(attributes, 2)
        idx.add(pred(ident, fn(first, odd), fn(second, odd)))
    grouped, _, _ = held_groups(idx)
    assert 15 <= len(grouped) <= 20
    assert sum(len(members) for members in grouped.values()) == 100
    idx.match("r", {a: 1 for a in attributes})
    assert CALLS["odd"] == 2 * len(grouped)
    assert idx.stats.non_indexable_tested == 100  # still one test per predicate


# ----------------------------------------------------------------------
# each member keeps its own short-circuit and exceptions
# ----------------------------------------------------------------------


def raises_or_matches(predicates, tup):
    """Direct evaluation: the matching idents, or ``"raises"``."""
    try:
        return {p.ident for p in predicates if p.matches(tup)}
    except ValueError:
        return "raises"


def index_answer(idx, tup):
    try:
        return {p.ident for p in idx.match("r", tup)}
    except ValueError:
        return "raises"


FRAGILE_PROBES = [{"a": a, "b": b} for a in (-1, 0, 2) for b in (0, 13, None)]


@pytest.mark.parametrize("orders", [("fg",), ("gf",), ("fg", "gf")])
def test_clause_order_keeps_short_circuit_and_exceptions(orders):
    """``positive(a) and fragile(b)`` never calls ``fragile`` when ``a``
    fails; ``fragile(b) and positive(a)`` raises on ``b == 13`` whatever
    ``a`` holds.  Equal clause sets in another order are another group."""
    predicates = []
    for order in orders:
        for _ in range(3):
            clauses = [fn("a", positive), fn("b", fragile)]
            if order == "gf":
                clauses.reverse()
            predicates.append(pred(len(predicates), *clauses))
    idx = PredicateIndex()
    idx.add_many(predicates)
    grouped, _, _ = held_groups(idx)
    assert len(grouped) == len(orders)
    for tup in FRAGILE_PROBES:
        assert index_answer(idx, tup) == raises_or_matches(predicates, tup), tup
    if orders == ("fg",):
        # positive(-1) fails first: fragile is never reached
        CALLS.clear()
        assert index_answer(idx, {"a": -1, "b": 13}) == set()
        assert CALLS["fragile"] == 0


def test_batch_raises_when_a_member_would():
    predicates = [pred(0, fn("b", fragile)), pred(1, fn("b", fragile))]
    idx = DEFAULT_REGISTRY.create_matcher("ibs")
    idx.add_many(predicates)
    assert [len(row) for row in idx.match_batch("r", [{"b": 1}, {"b": 2}])] == [2, 2]
    with pytest.raises(ValueError):
        idx.match_batch("r", [{"b": 1}, {"b": 13}])


def test_negated_trivial_and_opaque_members():
    idx = PredicateIndex()
    idx.add_many(mixed_predicates())
    grouped, trivial, opaque = held_groups(idx)
    assert grouped == {
        (fn("a", odd),): {3, 4},
        (fn("a", odd, negated=True),): {5},
        (fn("a", odd), fn("b", positive)): {6, 8},
        (fn("b", positive), fn("a", odd)): {7},
    }
    assert trivial == {9}
    assert opaque == {10}
    assert_matches_direct(idx)
    # None never matches a function clause, negated or not
    assert {p.ident for p in idx.match("r", {"x": -1, "a": None, "b": 4})} == {9, 10}


def test_unhashable_clause_is_a_group_of_its_own():
    class Unhashable(FunctionClause):
        __hash__ = None

    clause = Unhashable("a", odd)
    idx = PredicateIndex()
    idx.add_many([pred(0, clause), pred(1, clause), pred(2, fn("a", odd))])
    state = idx._relations["r"]
    single, _, _, _ = _non_indexable_shapes(state)
    assert sorted(len(group[-1]) for group in single) == [1, 1, 1]
    assert {p.ident for p in idx.match("r", {"a": 3})} == {0, 1, 2}


# ----------------------------------------------------------------------
# the groups follow every write path
# ----------------------------------------------------------------------


def test_groups_follow_scalar_writes(monkeypatch):
    estimator = SteeredEstimator()
    idx = PredicateIndex(estimator=estimator)
    predicates = mixed_predicates()
    for predicate in predicates[:6]:
        idx.add(predicate)
    assert_groups_current(idx)
    idx.add_many(predicates[6:])
    assert_groups_current(idx)
    idx.add_many(mixed_predicates(start=100))
    assert_groups_current(idx)
    for ident in (3, 7, 9, 104):
        idx.remove(ident)
    assert_groups_current(idx)

    idx.add(
        pred(
            200,
            IntervalClause("x", Interval.closed(0, 30)),
            IntervalClause("b", Interval.at_least(0)),
        )
    )
    estimator.preferred = "b"  # statistics shift after registration
    assert idx.retune() == [200]
    assert_groups_current(idx)

    real = health.audit_relation
    calls = []

    def audit_relation(*args):
        calls.append(args)
        return ["injected finding"] if len(calls) == 1 else real(*args)

    monkeypatch.setattr(health, "audit_relation", audit_relation)
    assert idx.verify_and_rebuild()["rebuilt"] == ["r"]
    assert_groups_current(idx)


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_groups_follow_overlay_writes_and_folds(tmp_path, storage, monkeypatch):
    estimator = SteeredEstimator()
    idx = ConcurrentPredicateIndex(
        estimator=estimator,
        storage=storage,
        data_dir=str(tmp_path / "data") if storage == "disk" else None,
        compaction_threshold=12,
    )
    for predicate in mixed_predicates():
        idx.add(predicate)  # overlay writes
        assert_groups_current(idx)
    idx.compact()  # a fold
    assert idx.snapshot("r").overlay is None or not len(idx.snapshot("r").overlay)
    assert_groups_current(idx)
    for predicate in mixed_predicates(start=100):
        idx.add(predicate)  # crosses the threshold: folds on its own
        assert_groups_current(idx)
    for ident in (4, 6, 9, 103, 108):
        idx.remove(ident)  # tombstones in the base, drops from the overlay
        assert_groups_current(idx)
    idx.add_many(mixed_predicates(start=200))
    assert_groups_current(idx)

    idx.add(
        pred(
            300,
            IntervalClause("x", Interval.closed(0, 30)),
            IntervalClause("b", Interval.at_least(0)),
        )
    )
    estimator.preferred = "b"
    assert idx.retune() == [300]
    assert_groups_current(idx)
    monkeypatch.setattr(idx.snapshot("r").base, "audit", lambda: ["injected"])
    assert idx.verify_and_rebuild()["rebuilt"] == ["r"]
    assert_groups_current(idx)


def test_groups_follow_disk_cold_start(tmp_path):
    """Function clauses cannot be checkpointed, so the cold start brings
    back the TRIVIAL members; function predicates added afterwards join
    the list as groups."""
    source = PredicateIndex(storage="disk", data_dir=str(tmp_path))
    source.add_many(
        [ranged(0, 0, 20), ranged(1, 10, 40), pred(2), pred(3)]
    )
    save_index(source)
    cold = load_index(str(tmp_path))
    assert held_groups(cold) == ({}, {2, 3}, set())
    assert_groups_current(cold)
    cold.add_many([pred(4, fn("a", odd)), pred(5, fn("a", odd)), pred(6)])
    assert held_groups(cold) == ({(fn("a", odd),): {4, 5}}, {2, 3, 6}, set())
    assert_groups_current(cold)


# ----------------------------------------------------------------------
# every scalar read path answers as direct evaluation
# ----------------------------------------------------------------------

PATH_MATCHERS = ["ibs", "columnar", "ibs-concurrent", "disk-concurrent"]


@pytest.mark.parametrize("name", PATH_MATCHERS)
def test_read_paths_answer_as_direct_evaluation(tmp_path, name):
    if DEFAULT_REGISTRY.describe_matcher(name)["capabilities"].get("disk_backed"):
        idx = DEFAULT_REGISTRY.create_matcher(name, data_dir=str(tmp_path / name))
    else:
        idx = DEFAULT_REGISTRY.create_matcher(name)
    idx.add_many(mixed_predicates())
    assert_matches_direct(idx)
    for predicate in mixed_predicates(start=100)[:5]:
        idx.add(predicate)  # an overlay beside the base on the facades
    assert_matches_direct(idx)
    if name == "columnar":
        # a value outside the float64 domain sends the whole batch to
        # the scalar stages
        probes = PROBES + [{"x": 2 ** 60, "a": 3, "b": 3}]
        assert_matches_direct(idx, probes)
