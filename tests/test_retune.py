"""``retune()`` re-chooses entry clauses the same way on both facades.

One decide step (``ClauseCatalog.redecide``) asks the index's own
estimator again for every live predicate.  When nothing moves, nothing
is built, swapped or published.  Otherwise the scalar index rebuilds
the movers' trees to one side and swaps them in, and a snapshot shard
folds, carrying every other predicate's decision.  The scalar repair
path (``verify_and_rebuild()``) builds to one side the same way, so a
failure while building leaves either index as it was.  A steered
estimator plays statistics that shifted after registration.
"""

import pytest

from repro import PredicateIndex
from repro.bench.runner import ablation_selectivity_workload
from repro.concurrency import ConcurrentPredicateIndex
from repro.core.intervals import Interval
from repro.core.selectivity import StatisticsEstimator
from repro.db import Database
from repro.errors import InjectedFault
from repro.maintenance import MaintenancePolicy
from repro.match import health
from repro.predicates.clauses import IntervalClause
from repro.predicates.predicate import Predicate
from repro.testing import FaultInjector, injected
from tests.conftest import SteeredEstimator

KINDS = ["scalar", "concurrent", "disk-concurrent"]


def build(kind, tmp_path, estimator, **options):
    if kind == "scalar":
        return PredicateIndex(estimator=estimator, **options)
    if kind == "disk-concurrent":
        options.update(storage="disk", data_dir=str(tmp_path / "data"))
    return ConcurrentPredicateIndex(estimator=estimator, **options)


def pred(ident, **ranges):
    return Predicate(
        "r",
        [
            IntervalClause(attribute, Interval.closed(low, high))
            for attribute, (low, high) in ranges.items()
        ],
        ident=ident,
    )


def populate(idx):
    """Three x/y pairs, two x-only and one y-only predicate; on the
    concurrent facade the last two land in the overlay."""
    live = {}
    for i in range(3):
        live[f"p{i}"] = pred(f"p{i}", x=(10 * i, 10 * i + 15), y=(5 * i, 5 * i + 30))
    live["x0"] = pred("x0", x=(0, 40))
    live["x1"] = pred("x1", x=(20, 60))
    live["y0"] = pred("y0", y=(10, 50))
    predicates = list(live.values())
    idx.add_many(predicates[:4])
    for p in predicates[4:]:
        idx.add(p)
    return live


PROBES = [{"x": v, "y": w} for v in range(-2, 70, 4) for w in range(-2, 70, 6)]


def assert_matches_direct(idx, live):
    rows = idx.match_batch("r", PROBES)
    for probe, row in zip(PROBES, rows):
        want = {ident for ident, p in live.items() if p.matches(probe)}
        assert {p.ident for p in idx.match("r", probe)} == want, probe
        assert {p.ident for p in row} == want, probe


def parts(idx):
    """The scalar index itself, or a snapshot's base and overlay."""
    if isinstance(idx, PredicateIndex):
        return [idx]
    snap = idx.snapshot("r")
    return [part for part in (snap.base, snap.overlay) if part is not None]


def layout(idx):
    """ident -> entry attributes, from whichever part files each."""
    if isinstance(idx, PredicateIndex):
        return {p.ident: idx.indexed_attributes(p.ident) for p in idx.predicates_for("r")}
    snap = idx.snapshot("r")
    out = {
        p.ident: snap.base.indexed_attributes(p.ident)
        for p in snap.base.predicates_for("r")
        if p.ident not in snap.removed
    }
    if snap.overlay is not None:
        out.update(
            {p.ident: snap.overlay.indexed_attributes(p.ident) for p in snap.overlay_preds}
        )
    return out


def audit(idx):
    # PredicateIndex.audit on every part, past any audit a test patched
    return [problem for part in parts(idx) for problem in PredicateIndex.audit(part)]


# ----------------------------------------------------------------------
# what retune returns, and what a retune that moves nothing leaves
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_retune_returns_every_mover_overlay_included(tmp_path, kind):
    estimator = SteeredEstimator("x")
    idx = build(kind, tmp_path, estimator)
    live = {}
    for ident in ("p0", "p1", "p2"):
        live[ident] = pred(ident, x=(0, 30), y=(10, 40))
    idx.add_many([live["p0"], live["p1"]])
    idx.add(live["p2"])  # the facade's overlay holds this one
    if kind != "scalar":
        assert [p.ident for p in idx.snapshot("r").overlay_preds] == ["p2"]
    assert set(layout(idx).values()) == {("x",)}
    estimator.preferred = "y"
    assert sorted(idx.retune()) == ["p0", "p1", "p2"]
    assert layout(idx) == dict.fromkeys(live, ("y",))
    assert idx.retune() == []
    assert_matches_direct(idx, live)


@pytest.mark.parametrize("kind", KINDS)
def test_retune_that_moves_nothing_touches_nothing(tmp_path, kind):
    idx = build(kind, tmp_path, SteeredEstimator("x"))
    live = populate(idx)
    assert_matches_direct(idx, live)  # warms the stab caches
    published = []
    if kind != "scalar":
        idx.on_publish(lambda *event: published.append(event))
        snapshot = idx.snapshot("r")
        epochs = idx.epochs()

    def state_of(part):
        state = part._relations["r"]
        return (
            dict(state.trees),
            part.tree_epochs("r"),
            state.version,
            None if state.stab_cache is None else dict(state.stab_cache),
        )

    before = [state_of(part) for part in parts(idx)]
    if kind != "scalar":
        # the facade's snapshot parts are frozen, so they cache stabs
        assert any(cache for *_, cache in before)
    assert idx.retune() == []
    after = [state_of(part) for part in parts(idx)]
    for (trees, tree_epochs, version, cache), now in zip(before, after):
        assert set(now[0]) == set(trees)
        assert all(now[0][attribute] is tree for attribute, tree in trees.items())
        assert now[1:] == (tree_epochs, version, cache)
    if kind != "scalar":
        assert idx.snapshot("r") is snapshot
        assert idx.epochs() == epochs
        assert published == []
    assert_matches_direct(idx, live)


# ----------------------------------------------------------------------
# a failure while building leaves the index as it was
# ----------------------------------------------------------------------


def _rebuild(idx, estimator, monkeypatch):
    """verify_and_rebuild() with one injected audit finding: the index
    is healthy, but its repair path runs."""
    if isinstance(idx, PredicateIndex):
        real = health.audit_relation
        calls = []

        def audit_relation(*args):
            calls.append(args)
            return ["injected finding"] if len(calls) == 1 else real(*args)

        monkeypatch.setattr(health, "audit_relation", audit_relation)
    else:
        monkeypatch.setattr(idx.snapshot("r").base, "audit", lambda: ["injected"])
    idx.verify_and_rebuild()


def _retune(idx, estimator, monkeypatch):
    estimator.preferred = "y"  # the pairs move
    assert idx.retune()


@pytest.mark.parametrize("op", [_rebuild, _retune], ids=["verify_and_rebuild", "retune"])
@pytest.mark.parametrize("kind", KINDS)
def test_bulk_load_fault_at_every_hit_leaves_the_index_as_it_was(
    tmp_path, monkeypatch, kind, op
):
    def attempt(hit):
        estimator = SteeredEstimator("x")
        idx = build(kind, tmp_path / f"hit{hit}", estimator)
        live = populate(idx)
        before = layout(idx)
        injector = FaultInjector()
        if hit:
            injector.arm("tree.bulk_load", at_hit=hit)
        with monkeypatch.context() as patch, injected(injector):
            try:
                op(idx, estimator, patch)
            except InjectedFault:
                pass
        return idx, live, before, injector

    _, _, _, dry = attempt(0)
    hits = dry.hits.get("tree.bulk_load", 0)
    assert hits >= 2
    for hit in range(1, hits + 1):
        idx, live, before, injector = attempt(hit)
        assert injector.fired == [("tree.bulk_load", hit)]
        assert audit(idx) == [], hit
        assert_matches_direct(idx, live)
        # a failed retune keeps the old layout; a repair re-decides
        # under unchanged estimates, so it ends at the same one
        assert layout(idx) == before, hit


# ----------------------------------------------------------------------
# ABL3's rules-before-data scenario, and the scheduled task
# ----------------------------------------------------------------------


def test_rules_first_retune_reaches_the_data_first_layout_on_both_facades():
    data, predicates, batch = ablation_selectivity_workload(
        predicates=200, tuples=60
    )
    db = Database()
    db.create_relation("log", ["status", "value"])
    scalar = PredicateIndex(estimator=StatisticsEstimator(db))
    facade = ConcurrentPredicateIndex(estimator=StatisticsEstimator(db))
    for p in predicates:
        scalar.add(p)
        facade.add(p)
    # an empty relation's statistics fall back to the constants
    assert scalar.describe()["log"]["trees"] == {"status": 200}
    for row in data:
        db.insert("log", row)
    assert sorted(facade.retune(), key=repr) == sorted(scalar.retune(), key=repr)
    assert scalar.describe()["log"]["trees"] == {"value": 200}
    snap = facade.snapshot("log")
    assert snap.overlay is None
    assert snap.base.describe()["log"]["trees"] == {"value": 200}
    for tup in batch:
        assert facade.match_idents("log", tup) == scalar.match_idents("log", tup)


@pytest.mark.parametrize("kind", KINDS)
def test_scheduled_retune_moves_predicates(tmp_path, kind):
    estimator = SteeredEstimator("x")
    idx = build(
        kind, tmp_path, estimator, maintenance=MaintenancePolicy(retune_interval=8)
    )
    assert "retune" in idx.maintenance_report()["tasks"]
    live = populate(idx)
    estimator.preferred = "y"
    for probe in PROBES[:10]:
        idx.match("r", probe)
    assert idx.maintenance_report()["tasks"]["retune"]["runs"] >= 1
    assert {ident: attrs for ident, attrs in layout(idx).items() if ident.startswith("p")} == {
        f"p{i}": ("y",) for i in range(3)
    }
    assert_matches_direct(idx, live)
