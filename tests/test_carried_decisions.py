"""Snapshot writes decide only the predicates they add.

On the concurrent facade a predicate's registration decisions — its
entry attribute(s) and compiled residual — are made once, when it first
enters a shard.  Overlay writes and folds (threshold, ``compact()``,
the maintenance ``compact`` task, ``add_many``) file every live
predicate with the decisions of the snapshot part that holds it, and an
overlay write shares every tree it does not change.  ``retune()`` and
the repair paths (``verify_and_rebuild()``, ``RelationShard.rebuild()``)
decide afresh.  Every case runs on both storage tiers, and the counting
cases also under multi-clause indexing.
"""

import random

import pytest

from repro.concurrency import ConcurrentPredicateIndex
from repro.core.intervals import Interval
from repro.errors import InjectedFault, TreeError
from repro.maintenance import MaintenancePolicy
from repro.match import catalog as catalog_module
from repro.match.catalog import ClauseCatalog
from repro.predicates.clauses import IntervalClause
from repro.predicates.predicate import Predicate
from repro.testing.faults import FaultInjector, injected
from tests.conftest import SteeredEstimator


def pred(ident, **ranges):
    return Predicate(
        "r",
        [
            IntervalClause(attribute, Interval.closed(low, high))
            for attribute, (low, high) in ranges.items()
        ],
        ident=ident,
    )


def pair(ident, low):
    """A two-clause predicate: entered under ``x`` by the steered
    estimator, under ``x`` and ``y`` with multi-clause indexing."""
    return pred(ident, x=(low, low + 10), y=(low + 5, low + 25))


PROBES = [{"x": v, "y": w} for v in range(-2, 90, 3) for w in range(-2, 90, 7)]


def assert_matches_direct(idx, live):
    """Every probe's answer, through both match paths, is exactly the
    live predicates' own ``Predicate.matches`` verdicts — and every
    returned predicate is the live object, never an older one."""
    rows = idx.match_batch("r", PROBES)
    for probe, row in zip(PROBES, rows):
        want = {ident for ident, p in live.items() if p.matches(probe)}
        for got in (idx.match("r", probe), row):
            assert {p.ident for p in got} == want, probe
            assert all(p is live[p.ident] for p in got), probe


CONFIGS = [("memory", False), ("disk", False), ("memory", True), ("disk", True)]
CONFIG_IDS = ["memory", "disk", "memory-multi", "disk-multi"]


@pytest.fixture(params=CONFIGS, ids=CONFIG_IDS)
def config(request):
    return request.param


@pytest.fixture(params=["memory", "disk"])
def storage(request):
    return request.param


def build(tmp_path, storage, multi_clause=False, **options):
    estimator = SteeredEstimator("x")
    idx = ConcurrentPredicateIndex(
        estimator=estimator,
        multi_clause=multi_clause,
        storage=storage,
        data_dir=str(tmp_path / "data") if storage == "disk" else None,
        **options,
    )
    return idx, estimator


@pytest.fixture
def tally(monkeypatch):
    """Counts entry-clause decisions and residual compilations."""
    counts = {"decisions": 0, "compiles": 0}
    decide = ClauseCatalog.entry_clauses_of
    compile_residual = catalog_module.compile_residual

    def counting_decide(self, normalized):
        counts["decisions"] += 1
        return decide(self, normalized)

    def counting_compile(predicate, proven_attrs):
        counts["compiles"] += 1
        return compile_residual(predicate, proven_attrs)

    monkeypatch.setattr(ClauseCatalog, "entry_clauses_of", counting_decide)
    monkeypatch.setattr(catalog_module, "compile_residual", counting_compile)
    return counts


# ----------------------------------------------------------------------
# decisions are made once per predicate
# ----------------------------------------------------------------------


def test_writes_and_folds_decide_only_new_predicates(tmp_path, config, tally):
    storage, multi_clause = config
    idx, estimator = build(tmp_path, storage, multi_clause, compaction_threshold=4)
    shard = idx.shard("r")
    live = {}

    def step(action, new, compiles=None):
        """Run *action*; exactly *new* predicates may be decided, and
        *compiles* residuals (by default *new*) compiled."""
        tally["decisions"] = tally["compiles"] = estimator.calls = 0
        action()
        assert tally["decisions"] == new
        assert tally["compiles"] == (new if compiles is None else compiles)
        # the estimator ranks both clauses of a decided predicate; it is
        # never asked under multi-clause indexing
        assert estimator.calls == (0 if multi_clause else 2 * new)
        assert_matches_direct(idx, live)

    def add(p):
        live[p.ident] = p
        return lambda: idx.add(p)

    def remove(ident):
        del live[ident]
        return lambda: idx.remove(ident)

    batch = [pair(f"b{i}", 3 * i) for i in range(6)]
    live.update((p.ident, p) for p in batch)
    step(lambda: idx.add_many(batch), new=6)
    assert shard.compactions == 1

    step(add(pair("o1", 40)), new=1)  # overlay write
    step(add(pair("o2", 44)), new=1)
    step(remove("o1"), new=0)  # overlay write
    step(remove("b0"), new=0)  # tombstone, no overlay write
    step(lambda: idx.compact(), new=0)
    assert shard.compactions == 2

    step(add(pair("o3", 50)), new=1)
    step(add(pair("o4", 52)), new=1)
    step(add(pair("o5", 54)), new=1)
    step(add(pair("o6", 56)), new=1)  # overlay reaches the threshold: fold
    assert shard.compactions == 3
    assert idx.snapshot("r").overlay is None

    step(add(pair("o7", 60)), new=1)
    for ident in ("b1", "b2", "b3"):
        step(remove(ident), new=0)
    step(remove("b4"), new=0)  # tombstones reach the threshold: fold
    assert shard.compactions == 4
    assert not idx.snapshot("r").removed

    step(add(pair("o8", 62)), new=1)
    more = [pair(f"m{i}", 70 + i) for i in range(3)]
    live.update((p.ident, p) for p in more)
    step(lambda: idx.add_many(more), new=3)  # folds the overlay too
    assert shard.compactions == 5

    # the one call that re-chooses decides every live predicate again;
    # when nothing moves it compiles nothing and does not fold
    epoch = idx.snapshot("r").epoch
    step(lambda: idx.retune(), new=len(live), compiles=0)
    assert shard.compactions == 5
    assert idx.snapshot("r").epoch == epoch

    # once the estimates shift, only the movers are compiled, and one
    # fold files them beside everyone else's carried decisions
    estimator.preferred = "y"
    moved = 0 if multi_clause else len(live)
    step(lambda: idx.retune(), new=len(live), compiles=moved)
    assert shard.compactions == (5 if multi_clause else 6)


def test_maintenance_compact_task_carries_decisions(tmp_path, config, tally):
    storage, multi_clause = config
    idx, _ = build(
        tmp_path,
        storage,
        multi_clause,
        maintenance=MaintenancePolicy(compact_interval=8),
    )
    live = {p.ident: p for p in (pair(f"p{i}", 4 * i) for i in range(5))}
    for p in live.values():
        idx.add(p)
    assert tally["decisions"] == 5
    tally["decisions"] = tally["compiles"] = 0
    for probe in PROBES[:16]:
        idx.match("r", probe)
    report = idx.maintenance_report()["tasks"]["compact"]
    assert report["runs"] >= 1
    assert idx.snapshot("r").overlay is None
    assert tally == {"decisions": 0, "compiles": 0}
    assert_matches_direct(idx, live)


# ----------------------------------------------------------------------
# a reused ident never inherits the old predicate's decisions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("first_in", ["base", "overlay"])
def test_readded_ident_matches_its_new_condition(tmp_path, config, first_in):
    storage, multi_clause = config
    idx, _ = build(tmp_path, storage, multi_clause, compaction_threshold=8)
    live = {p.ident: p for p in (pair("a", 0), pair("b", 30))}
    for p in live.values():
        idx.add(p)
    # "p" first lives on x (and y); its replacement has no x clause at
    # all, so a decision carried from the old predicate would file it
    # under a tree it has no interval for
    idx.add(pair("p", 0))
    if first_in == "base":
        idx.compact()
    idx.remove("p")
    live["p"] = replacement = pred("p", y=(60, 80))
    idx.add(replacement)
    assert_matches_direct(idx, live)  # after the overlay write
    live["c"] = pair("c", 40)
    idx.add(live["c"])  # another overlay write over the replacement
    assert_matches_direct(idx, live)
    idx.compact()  # after a fold
    assert idx.get("p") is replacement
    assert_matches_direct(idx, live)
    assert idx.snapshot("r").base.indexed_attributes("p") == ("y",)


# ----------------------------------------------------------------------
# only retune() and the repair paths re-choose
# ----------------------------------------------------------------------


def entry_attributes(idx):
    snap = idx.snapshot("r")
    assert snap.overlay is None  # every case below has just folded
    return {p.ident: snap.base.indexed_attributes(p.ident) for p in snap.predicates()}


def test_only_retune_and_repair_rechoose(tmp_path, storage, monkeypatch):
    idx, estimator = build(tmp_path, storage)
    live = {p.ident: p for p in (pair(f"p{i}", 5 * i) for i in range(8))}
    idx.add_many(list(live.values())[:6])
    for p in list(live.values())[6:]:
        idx.add(p)  # two predicates decided in the overlay
    on_x = {ident: ("x",) for ident in live}
    on_y = {ident: ("y",) for ident in live}

    estimator.preferred = "y"  # statistics shift after registration
    idx.compact()
    assert entry_attributes(idx) == on_x
    assert sorted(idx.retune()) == sorted(live)
    assert entry_attributes(idx) == on_y
    assert_matches_direct(idx, live)

    estimator.preferred = "x"
    idx.compact()
    assert entry_attributes(idx) == on_y
    # verify_and_rebuild() repairs only a shard whose audit finds a
    # problem; report one
    monkeypatch.setattr(idx.snapshot("r").base, "audit", lambda: ["injected"])
    report = idx.verify_and_rebuild()
    assert report["rebuilt"] == ["r"]
    assert entry_attributes(idx) == on_x
    assert_matches_direct(idx, live)

    estimator.preferred = "y"
    idx.shard("r").rebuild()
    assert entry_attributes(idx) == on_y
    assert_matches_direct(idx, live)


# ----------------------------------------------------------------------
# an overlay write shares every tree it does not change
# ----------------------------------------------------------------------


def test_overlay_write_shares_untouched_trees(tmp_path, config):
    storage, multi_clause = config
    idx, _ = build(tmp_path, storage, multi_clause)
    live = {}
    for p in (pred("x1", x=(0, 9)), pred("y1", y=(5, 20)), pred("z1", z=(1, 3))):
        live[p.ident] = p
        idx.add(p)

    def trees():
        overlay = idx.snapshot("r").overlay
        return {a: overlay.tree_for("r", a) for a in ("x", "y", "z")}

    before = trees()
    live["x2"] = pred("x2", x=(4, 12))
    idx.add(live["x2"])
    after = trees()
    assert after["x"] is not before["x"]
    assert after["y"] is before["y"] and after["z"] is before["z"]
    assert all(tree.frozen for tree in after.values())
    with pytest.raises(TreeError):
        after["y"].insert(Interval.closed(0, 1), "sneaky")

    before = after
    del live["y1"]
    idx.remove("y1")
    after = trees()
    assert after["y"] is None  # its only entry left
    assert after["x"] is before["x"] and after["z"] is before["z"]
    assert_matches_direct(idx, live)


@pytest.mark.parametrize("op", ["add", "remove"])
def test_failed_overlay_write_publishes_nothing(tmp_path, storage, op):
    # a fault in the one tree an overlay write bulk-loads leaves the
    # published snapshot, and the trees it shares, exactly as they were
    idx, _ = build(tmp_path, storage)
    live = {}
    for p in (pred("x1", x=(0, 9)), pred("x2", x=(4, 12)), pred("y1", y=(5, 20))):
        live[p.ident] = p
        idx.add(p)
    before = idx.snapshot("r")
    trees = {a: before.overlay.tree_for("r", a) for a in ("x", "y")}
    newcomer = pred("x3", x=(30, 40))
    with injected(FaultInjector().arm("tree.bulk_load")):
        with pytest.raises(InjectedFault):
            if op == "add":
                idx.add(newcomer)
            else:
                idx.remove("x1")
    snap = idx.snapshot("r")
    assert snap is before
    assert {a: snap.overlay.tree_for("r", a) for a in ("x", "y")} == trees
    assert "x1" in idx and newcomer.ident not in idx
    assert_matches_direct(idx, live)
    if op == "add":  # the write goes through once the fault has passed
        live[newcomer.ident] = newcomer
        idx.add(newcomer)
    else:
        del live["x1"]
        idx.remove("x1")
    assert_matches_direct(idx, live)


# ----------------------------------------------------------------------
# seeded differential: random writes, folds and re-choices
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_writes_match_direct_evaluation(tmp_path, config, seed):
    storage, multi_clause = config
    idx, estimator = build(tmp_path, storage, multi_clause, compaction_threshold=5)
    rng = random.Random(seed)
    live = {}
    for step in range(60):
        roll = rng.random()
        if live and roll < 0.3:
            ident = rng.choice(sorted(live))
            del live[ident]
            idx.remove(ident)
        elif roll < 0.85:
            ident = f"p{rng.randrange(12)}"  # idents are reused
            if ident in live:
                continue
            ranges = {}
            for attribute in rng.sample(["x", "y", "z"], rng.randint(1, 3)):
                low = rng.randrange(80)
                ranges[attribute] = (low, low + rng.randrange(1, 20))
            live[ident] = pred(ident, **ranges)
            idx.add(live[ident])
        elif roll < 0.95:
            idx.compact()
        else:
            estimator.preferred = rng.choice(["x", "y", "z"])
            idx.retune()
        if step % 6 == 0:
            assert_matches_direct(idx, live)
    assert_matches_direct(idx, live)
    assert idx.verify_and_rebuild()["healthy"]
