"""Differential tests for the concurrent sharded matching front-end.

The core property: whatever interleaving really happened, a
``ConcurrentPredicateIndex`` under N writer + M reader threads must
return exactly the match sets a serial ``PredicateIndex`` produces when
replaying the same (publication-ordered) operation log — for every one
of the three pointer-tree backends.
"""

import threading

import pytest

from repro.concurrency import ConcurrentPredicateIndex, RelationShard
from repro.core.avl_ibs_tree import AVLIBSTree
from repro.core.ibs_tree import IBSTree
from repro.core.intervals import Interval
from repro.core.predicate_index import PredicateIndex
from repro.core.rb_ibs_tree import RBIBSTree
from repro.errors import (
    ConcurrencyError,
    PredicateError,
    TreeError,
    UnknownIntervalError,
)
from repro.predicates.clauses import IntervalClause
from repro.predicates.predicate import Predicate
from repro.testing.concurrency import (
    EpochChecker,
    PredicateIndexReplayer,
    StressDriver,
)

BACKENDS = [IBSTree, AVLIBSTree, RBIBSTree]
BACKEND_IDS = ["ibs", "avl", "rb"]


def interval_pred(ident, low, high, attribute="x", relation="r"):
    return Predicate(
        relation,
        [IntervalClause(attribute, Interval.closed(low, high))],
        ident=ident,
    )


# ----------------------------------------------------------------------
# single-threaded facade semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_facade_matches_serial_index_single_threaded(backend):
    """With no concurrency at all, facade and serial index agree exactly."""
    concurrent = ConcurrentPredicateIndex(
        tree_factory=backend, compaction_threshold=8
    )
    serial = PredicateIndex(tree_factory=backend)
    for i in range(40):
        pred = interval_pred(f"p{i}", i * 3, i * 3 + 10)
        concurrent.add(pred)
        serial.add(interval_pred(f"p{i}", i * 3, i * 3 + 10))
    for i in range(0, 40, 4):
        concurrent.remove(f"p{i}")
        serial.remove(f"p{i}")
    for value in range(0, 140, 5):
        tup = {"x": value}
        assert concurrent.match_idents("r", tup) == serial.match_idents("r", tup)
    assert len(concurrent) == len(serial)


def test_duplicate_and_unknown_idents():
    idx = ConcurrentPredicateIndex()
    idx.add(interval_pred("a", 0, 10))
    with pytest.raises(PredicateError):
        idx.add(interval_pred("a", 5, 15))
    with pytest.raises(UnknownIntervalError):
        idx.remove("missing")
    assert idx.remove("a").ident == "a"
    with pytest.raises(UnknownIntervalError):
        idx.remove("a")


def test_snapshot_isolation_across_writes():
    """A snapshot taken before a write never sees that write."""
    idx = ConcurrentPredicateIndex()
    idx.add(interval_pred("a", 0, 10))
    before = idx.snapshot("r")
    idx.add(interval_pred("b", 0, 10))
    idx.remove("a")
    assert before.match_idents({"x": 5}) == {"a"}
    assert idx.match_idents("r", {"x": 5}) == {"b"}


def test_snapshot_bases_are_frozen():
    idx = ConcurrentPredicateIndex(compaction_threshold=2)
    for i in range(5):  # forces at least one compaction
        idx.add(interval_pred(f"p{i}", i, i + 5))
    snap = idx.snapshot("r")
    assert snap.base.frozen
    with pytest.raises(PredicateError):
        snap.base.add(interval_pred("x", 0, 1))
    tree = snap.base.tree_for("r", "x")
    assert tree is not None and tree.frozen
    with pytest.raises(TreeError):
        tree.insert(Interval.closed(0, 1), "sneaky")


def test_epochs_strictly_increase_across_compaction_and_rebuild():
    idx = ConcurrentPredicateIndex(compaction_threshold=3)
    seen = []
    idx.on_publish(lambda rel, epoch, kind, payload: seen.append((epoch, kind)))
    for i in range(10):
        idx.add(interval_pred(f"p{i}", i, i + 5))
    idx.compact("r")
    idx.retune("r")
    assert idx.verify_and_rebuild()["healthy"]
    epochs = [epoch for epoch, _ in seen]
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
    assert any(kind == "compact" for _, kind in seen)


def test_shard_rejects_foreign_relation():
    shard = RelationShard("r", PredicateIndex)
    with pytest.raises(ConcurrencyError):
        shard.add(interval_pred("a", 0, 1, relation="other"))


# ----------------------------------------------------------------------
# differential: concurrent run vs serial replay, all three backends
# ----------------------------------------------------------------------


#: every backend on the RAM tier, and again (``-disk`` ids) on the disk
#: tier, whose folds seal segment files while overlays stay in RAM
STRESS_CASES = [
    pytest.param(backend, "memory", id=backend_id)
    for backend, backend_id in zip(BACKENDS, BACKEND_IDS)
] + [
    pytest.param(backend, "disk", id=f"{backend_id}-disk")
    for backend, backend_id in zip(BACKENDS, BACKEND_IDS)
]


@pytest.mark.parametrize("backend,storage", STRESS_CASES)
def test_stress_concurrent_equals_serial_replay(backend, storage, tmp_path):
    """4 writers + 8 readers; every observed read must equal the serial
    replay of the publication log at its epoch (StressDriver raises
    ConcurrencyViolation otherwise)."""
    idx = ConcurrentPredicateIndex(
        tree_factory=backend,
        compaction_threshold=16,
        storage=storage,
        data_dir=str(tmp_path / "data") if storage == "disk" else None,
    )
    driver = StressDriver(
        idx,
        relations=("r1", "r2"),
        writers=4,
        readers=8,
        writer_ops=40,
        reader_ops=80,
        seed=101,
    )
    report = driver.run()
    assert report["observations"] == 8 * 80
    assert sum(report["publications"].values()) == 4 * 40


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_final_state_equals_serial_replay(backend):
    """After the storm settles, the facade's full contents — not just
    sampled probes — equal a serial index that replayed the log."""
    idx = ConcurrentPredicateIndex(tree_factory=backend, compaction_threshold=8)
    checker = EpochChecker()
    checker.attach(idx)
    barrier = threading.Barrier(4)
    errors = []

    def writer(writer_id):
        try:
            barrier.wait()
            for op in range(30):
                ident = f"w{writer_id}-{op}"
                idx.add(interval_pred(ident, (writer_id * 7 + op) % 50, 60))
                if op % 3 == 2:
                    idx.remove(ident)
        except BaseException as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    replayer = PredicateIndexReplayer("r", backend)
    for _, kind, payload in checker.ops("r"):
        replayer.apply(kind, payload)
    for value in range(0, 120, 7):
        tup = {"x": value}
        assert idx.match_idents("r", tup) == replayer.query(tup)


def test_concurrent_readers_see_only_published_epochs():
    """Readers hammering match_idents_at while writers publish must only
    ever observe epochs that the publication log actually contains."""
    idx = ConcurrentPredicateIndex(compaction_threshold=4)
    checker = EpochChecker()
    checker.attach(idx)
    stop = threading.Event()
    observed = []
    errors = []

    def reader():
        try:
            while not stop.is_set():
                epoch, idents = idx.match_idents_at("r", {"x": 10})
                observed.append((epoch, idents))
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    reader_thread = threading.Thread(target=reader)
    reader_thread.start()
    for i in range(60):
        idx.add(interval_pred(f"p{i}", i % 20, 25))
    stop.set()
    reader_thread.join()
    assert not errors
    published = {0} | {epoch for epoch, _, _ in checker.ops("r")}
    assert {epoch for epoch, _ in observed} <= published
    # epoch order as seen by one reader is monotone (no time travel)
    epochs = [epoch for epoch, _ in observed]
    assert epochs == sorted(epochs)


# ----------------------------------------------------------------------
# regression: routing-map guards
# ----------------------------------------------------------------------


def test_cross_relation_duplicate_ident_rejected():
    """The same ident under two relations must raise, not silently
    overwrite the routing entry (stranding the first predicate)."""
    idx = ConcurrentPredicateIndex()
    idx.add(interval_pred("dup", 0, 10, relation="r1"))
    with pytest.raises(PredicateError):
        idx.add(interval_pred("dup", 0, 10, relation="r2"))
    with pytest.raises(PredicateError):
        idx.add_many([interval_pred("dup", 0, 10, relation="r2")])
    # the original registration is untouched and still routable
    assert idx.get("dup").relation == "r1"
    assert idx.match_idents("r1", {"x": 5}) == {"dup"}
    assert idx.match_idents("r2", {"x": 5}) == set()
    assert len(idx) == 1
    assert idx.remove("dup").ident == "dup"
    assert len(idx) == 0


def test_add_many_failure_releases_only_its_claims():
    """A rejected batch must roll its routing claims back so the idents
    stay addable, without disturbing predicates registered earlier."""
    idx = ConcurrentPredicateIndex()
    idx.add(interval_pred("keep", 0, 10))
    with pytest.raises(PredicateError):
        # duplicate ident within one batch: the shard rejects the batch
        idx.add_many(
            [interval_pred("new", 20, 30), interval_pred("new", 40, 50)]
        )
    assert "new" not in idx
    assert idx.get("keep").ident == "keep"
    idx.add(interval_pred("new", 20, 30))  # claim was released
    assert idx.match_idents("r", {"x": 25}) == {"new"}


def test_introspection_safe_during_concurrent_shard_creation():
    """len()/epochs()/relations()/compact() iterate a stable snapshot of
    the shard table; concurrent first-use shard creation used to raise
    'dictionary changed size during iteration'."""
    idx = ConcurrentPredicateIndex()
    errors = []
    stop = threading.Event()

    def creator():
        try:
            for i in range(300):
                idx.add(interval_pred(f"p{i}", 0, 10, relation=f"rel{i}"))
        except BaseException as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)
        finally:
            stop.set()

    def inspector():
        try:
            while not stop.is_set():
                len(idx)
                idx.epochs()
                idx.relations()
                idx.compact()
        except BaseException as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)

    threads = [threading.Thread(target=creator)] + [
        threading.Thread(target=inspector) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(idx) == 300
    assert len(idx.relations()) == 300
