"""Each index builds every tree from the one factory it was given.

An index has no per-attribute choice of backend: the tree factory
passed to its constructor builds every per-attribute interval index it
ever holds — on registration and bulk load, when a relation's last
predicate on an attribute leaves and a later one recreates the tree,
when ``retune()`` moves an entry clause to another attribute,
and, on the concurrent facade, in every overlay and compacted base.
Each test drives one index through those paths on one registered
backend, then checks that every live tree is that backend's type and
that every answer agrees with direct evaluation of the predicates.
"""

import random

import pytest

from repro import PredicateIndex
from repro.concurrency.facade import ConcurrentPredicateIndex
from repro.core.intervals import Interval
from repro.disk.tree import DiskIBSTree
from repro.match.registry import DEFAULT_REGISTRY
from repro.predicates import PredicateBuilder
from repro.workloads.scenarios import scenario_names, synthesize
from tests.conftest import SteeredEstimator


def _dynamic(name):
    caps = DEFAULT_REGISTRY.describe_backend(name)
    return (
        caps["supports_dynamic_insert"]
        and caps["supports_dynamic_delete"]
        and not caps["disk_backed"]
    )


#: In-memory backends an index can insert into and delete from.  The
#: static ones (segment, static-interval) only build from a full set.
DYNAMIC = [name for name in DEFAULT_REGISTRY.tree_backends() if _dynamic(name)]


def backend_type(name):
    return type(DEFAULT_REGISTRY.tree_factory(name)())


def tree_types(index):
    """``{(relation, attribute): type}`` of every live tree in *index*."""
    return {
        (relation, attribute): type(index.tree_for(relation, attribute))
        for relation, summary in index.describe().items()
        for attribute in summary["trees"]
    }


def assert_matches_direct(index, relation, live, tuples):
    """Every answer equals direct evaluation of the *live* predicates."""
    for tup in tuples:
        want = sorted(
            (ident for ident, pred in live.items() if pred.matches(tup)), key=repr
        )
        assert sorted(index.match_idents(relation, tup), key=repr) == want, tup


def ranges(rng, relation, attribute, n, width=20):
    preds = []
    for _ in range(n):
        low = rng.randint(0, 100)
        preds.append(
            PredicateBuilder(relation)
            .between(attribute, low, low + rng.randint(0, width))
            .build()
        )
    return preds


@pytest.mark.parametrize("backend", DYNAMIC)
def test_index_builds_every_tree_from_its_factory(backend):
    rng = random.Random(7)
    index = PredicateIndex(tree_factory=backend)
    want = backend_type(backend)
    live = {}
    # bulk load one relation, register the other one by one
    for pred in ranges(rng, "r", "x", 10):
        live[index.add(pred)] = pred
    batch = ranges(rng, "s", "y", 10)
    live.update(zip(index.add_many(batch), batch))
    assert set(tree_types(index)) == {("r", "x"), ("s", "y")}
    # emptying an attribute drops its tree; the next predicate on it
    # gets a fresh one from the same factory
    for ident in [ident for ident, pred in live.items() if pred.relation == "s"]:
        index.remove(ident)
        del live[ident]
    assert set(tree_types(index)) == {("r", "x")}
    for pred in ranges(rng, "s", "y", 4):
        live[index.add(pred)] = pred
    assert set(tree_types(index).values()) == {want}
    probes = [{"x": v, "y": v} for v in range(-5, 130, 3)]
    assert_matches_direct(
        index, "r", {k: p for k, p in live.items() if p.relation == "r"}, probes
    )
    assert_matches_direct(
        index, "s", {k: p for k, p in live.items() if p.relation == "s"}, probes
    )


@pytest.mark.parametrize("backend", DYNAMIC)
def test_entry_clause_migration_builds_from_the_factory(backend):
    estimator = SteeredEstimator()
    index = PredicateIndex(tree_factory=backend, estimator=estimator)
    live = {}
    for offset in range(6):
        # "a = 5" is the estimated entry clause; "b" the move target
        pred = PredicateBuilder("r").eq("a", 5).between("b", offset, offset + 100).build()
        live[index.add(pred)] = pred
    assert set(tree_types(index)) == {("r", "a")}
    estimator.preferred = "b"  # statistics shift after registration
    assert sorted(index.retune("r")) == sorted(live)
    assert tree_types(index) == {("r", "b"): backend_type(backend)}
    probes = [{"a": a, "b": b} for a in (4, 5, 6) for b in range(-2, 110, 4)]
    assert_matches_direct(index, "r", live, probes)
    assert index.check_invariants() is True


@pytest.mark.parametrize("backend", DYNAMIC)
def test_phase_shifts_on_one_live_index_match_direct_evaluation(backend):
    # the six scenario families one after another on one index: each
    # phase registers its predicates, churns, matches, then leaves
    index = PredicateIndex(tree_factory=backend)
    want = backend_type(backend)
    for family in scenario_names():
        scenario = synthesize(family, seed=33, scale=0.05)
        relation = scenario.spec.relation
        live = {}
        for pred in scenario.predicates():
            live[index.add(pred)] = pred
        for op, payload in scenario.churn():
            if op == "add":
                live[index.add(payload)] = payload
            else:
                index.remove(payload)
                del live[payload]
        assert set(tree_types(index).values()) == {want}, family
        for batch in scenario.batches():
            rows = index.match_batch(relation, batch)
            for tup, row in zip(batch, rows):
                want_idents = sorted(
                    ident for ident, pred in live.items() if pred.matches(tup)
                )
                assert sorted(pred.ident for pred in row) == want_idents, family
        for ident in list(live):
            index.remove(ident)
        assert len(index) == 0 and tree_types(index) == {}, family


@pytest.mark.parametrize("backend", DYNAMIC)
def test_open_endpoints_match_direct_evaluation(backend):
    # the residual stage trusts the stab for the entry clause, so a
    # backend whose tree stores open bounds as closed must filter them
    index = PredicateIndex(tree_factory=backend)
    live = {}
    for interval in (
        Interval.greater_than(5),
        Interval.less_than(5),
        Interval.closed_open(0, 5),
        Interval.open_closed(5, 10),
        Interval.open(0, 10),
        Interval.closed(5, 5),
    ):
        pred = PredicateBuilder("r").in_interval("a", interval).build()
        live[index.add(pred)] = pred
    tuples = [{"a": v} for v in (-1, 0, 4, 5, 6, 10, 11)]
    rows = index.match_batch("r", tuples)
    for tup, row in zip(tuples, rows):
        want = sorted(ident for ident, pred in live.items() if pred.matches(tup))
        assert sorted(p.ident for p in index.match("r", tup)) == want, tup
        assert sorted(index.match_idents("r", tup)) == want, tup
        assert sorted(p.ident for p in row) == want, tup


@pytest.mark.parametrize("backend", DYNAMIC)
def test_concurrent_facade_builds_bases_and_overlays_from_its_factory(backend):
    rng = random.Random(11)
    want = backend_type(backend)
    live = {}
    index = ConcurrentPredicateIndex(tree_factory=backend, compaction_threshold=8)
    for pred in ranges(rng, "r", "x", 20):
        live[index.add(pred)] = pred
    for ident in list(live)[:5]:
        index.remove(ident)
        del live[ident]
    for pred in ranges(rng, "r", "x", 3):
        live[index.add(pred)] = pred
    shard = index.shard("r")
    snap = shard.snapshot
    assert shard.compactions >= 1 and snap.overlay is not None
    assert set(tree_types(snap.base).values()) == {want}
    assert set(tree_types(snap.overlay).values()) == {want}
    assert_matches_direct(index, "r", live, [{"x": v} for v in range(-5, 130, 3)])


def test_disk_index_builds_only_disk_trees(tmp_path):
    rng = random.Random(13)
    index = PredicateIndex(storage="disk", data_dir=str(tmp_path))
    live = {}
    for pred in ranges(rng, "r", "x", 8) + ranges(rng, "r", "y", 8):
        live[index.add(pred)] = pred
    for ident in list(live)[:3]:
        index.remove(ident)
        del live[ident]
    index.seal()
    assert tree_types(index) == {("r", "x"): DiskIBSTree, ("r", "y"): DiskIBSTree}
    probes = [{"x": v, "y": 120 - v} for v in range(-5, 130, 3)]
    assert_matches_direct(index, "r", live, probes)


def test_disk_facade_seals_bases_and_keeps_overlays_on_its_tree_factory(tmp_path):
    rng = random.Random(17)
    live = {}
    index = ConcurrentPredicateIndex(
        tree_factory="rb",
        storage="disk",
        data_dir=str(tmp_path),
        compaction_threshold=8,
    )
    for pred in ranges(rng, "r", "x", 12):
        live[index.add(pred)] = pred
    snap = index.shard("r").snapshot
    assert snap.overlay is not None
    assert set(tree_types(snap.base).values()) == {DiskIBSTree}
    assert set(tree_types(snap.overlay).values()) == {backend_type("rb")}
    assert_matches_direct(index, "r", live, [{"x": v} for v in range(-5, 130, 3)])
