"""The disk tier: segments, eviction, checkpoints, and crash drills.

Four layers of assurance:

* **differential conformance** — a sealed :class:`DiskIBSTree` (reads
  straight off the mmap'd segment) must answer every stab exactly like
  the in-memory ``IBSTree`` it was serialised from, including open
  bounds, ±infinity sentinels, and incomparable probe values;
* **corruption detection** — a damaged segment file must be *detected*
  (``CorruptSegmentError``), never silently misread;
* **residency** — under a configured ``memory_budget`` a scripted
  hot/cold access pattern must keep decoded-object residency bounded
  while cold attributes stay answerable from their segments;
* **crash drills** — for every disk fault site
  (``disk.torn_segment``, ``disk.partial_checkpoint``,
  ``disk.mmap_unlink``) and every seed in ``DISK_SEEDS``, recovery
  after the injected crash must answer ``match``/``match_batch``
  identically to a never-crashed twin.

Environment knobs (CI's disk-stress job turns them up):

* ``DISK_SEEDS`` — comma-separated crash-drill seeds (default 0,1,2);
* ``DISK_SCALE`` — predicate count for the bounded-memory scale test.
"""

import gc
import glob
import math
import os
import random

import pytest

from repro.concurrency.facade import ConcurrentPredicateIndex
from repro.core.ibs_tree import IBSTree
from repro.core.intervals import MINUS_INF, PLUS_INF, Interval
from repro.core.predicate_index import PredicateIndex
from repro.disk.checkpoint import (
    DiskCheckpointer,
    load_index,
    predicate_from_dict,
    predicate_to_dict,
    read_manifest,
    recover_concurrent,
    save_index,
)
from repro.disk.segment import SegmentReader, write_segment
from repro.disk.store import DiskTreeStore
from repro.disk.tree import DiskIBSTree
from repro.errors import (
    CorruptSegmentError,
    DatabaseError,
    InjectedFault,
    TreeError,
)
from repro.predicates.clauses import EqualityClause, FunctionClause, IntervalClause
from repro.predicates.predicate import Predicate
from repro.testing.faults import FaultInjector, injected

DISK_SEEDS = [int(s) for s in os.environ.get("DISK_SEEDS", "0,1,2").split(",")]
DISK_SCALE = int(os.environ.get("DISK_SCALE", "20000"))

DISK_SITES = ["disk.torn_segment", "disk.partial_checkpoint", "disk.mmap_unlink"]


# ----------------------------------------------------------------------
# workload helpers
# ----------------------------------------------------------------------


def random_interval(rng):
    """A random interval mixing finite, open, point, and unbounded forms."""
    roll = rng.random()
    a, b = sorted(round(rng.uniform(-100, 100), 3) for _ in range(2))
    if roll < 0.60:
        return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
    if roll < 0.72:
        return Interval.point(a)
    if roll < 0.82:
        return Interval.at_least(a) if rng.random() < 0.5 else Interval.greater_than(a)
    if roll < 0.92:
        return Interval.at_most(b) if rng.random() < 0.5 else Interval.less_than(b)
    return Interval.unbounded()


def random_items(rng, n):
    return [(random_interval(rng), f"id{i}") for i in range(n)]


def probe_values(rng, items, n=200):
    values = [round(rng.uniform(-120, 120), 3) for _ in range(n)]
    for interval, _ in items[:40]:
        if interval.low is not MINUS_INF:
            values.extend([interval.low, interval.low - 1e-9, interval.low + 1e-9])
        if interval.high is not PLUS_INF:
            values.append(interval.high)
    return values


def oracle(items, x):
    return {ident for interval, ident in items if interval.contains(x)}


def make_pred(rng, relation, i, extra_attr=False):
    clauses = [IntervalClause("x", random_interval(rng))]
    if extra_attr and rng.random() < 0.5:
        clauses.append(EqualityClause("y", rng.randint(0, 4)))
    return Predicate(relation, clauses, ident=f"{relation}-{i}")


def match_table(index, relation, tuples):
    """Sorted match answers for equivalence comparison."""
    return [sorted(index.match(relation, t), key=repr) for t in tuples]


# ----------------------------------------------------------------------
# differential conformance: segment reader vs in-memory tree
# ----------------------------------------------------------------------


class TestSegmentConformance:
    @pytest.mark.parametrize("seed", DISK_SEEDS)
    def test_reader_matches_ibs_tree(self, tmp_path, seed):
        rng = random.Random(seed)
        items = random_items(rng, 300)
        tree = IBSTree()
        tree.bulk_load(items)
        path = str(tmp_path / "x.g1.seg")
        write_segment(path, tree, "rel", "x")
        reader = SegmentReader(path)
        try:
            for x in probe_values(rng, items):
                assert reader.stab(x) == tree.stab(x), x
            # each stored row answers what the tree's stab answers at
            # its endpoint value, and at a probe inside its gap
            values = list(reader._values())
            gaps = [values[0] - 1] + [(a + b) / 2 for a, b in zip(values, values[1:])]
            for i, value in enumerate(values):
                assert reader._decode(reader._mask_row("eq", i)) == tree.stab(value), value
            for i, probe in enumerate(gaps + [values[-1] + 1]):
                assert reader._decode(reader._mask_row("gap", i)) == tree.stab(probe), probe
            assert len(reader) == len(tree)
            assert dict(reader.items()) == dict(tree.items())
        finally:
            reader.close()

    def test_open_bounds_and_infinities_survive_the_roundtrip(self, tmp_path):
        items = [
            (Interval.open(10, 20), "o"),
            (Interval.closed_open(10, 20), "co"),
            (Interval.open_closed(10, 20), "oc"),
            (Interval.at_most(10), "low"),
            (Interval.at_least(50), "high"),
            (Interval.unbounded(), "all"),
        ]
        tree = IBSTree()
        tree.bulk_load(items)
        path = str(tmp_path / "b.g1.seg")
        write_segment(path, tree, "rel", "x")
        reader = SegmentReader(path)
        try:
            assert reader.stab(10) == {"co", "low", "all"}
            assert reader.stab(15) == {"o", "co", "oc", "all"}
            assert reader.stab(20) == {"oc", "all"}
            assert reader.stab(-1e9) == {"low", "all"}
            assert reader.stab(1e9) == {"high", "all"}
        finally:
            reader.close()

    def test_incomparable_and_nan_probes(self, tmp_path):
        items = [(Interval.closed(0, 10), "a"), (Interval.unbounded(), "u")]
        tree = IBSTree()
        tree.bulk_load(items)
        path = str(tmp_path / "n.g1.seg")
        write_segment(path, tree, "rel", "x")
        reader = SegmentReader(path)
        try:
            # stab_many maps incomparable values (and None) to None,
            # exactly like the in-memory tree
            table = reader.stab_many(["zzz", None, 5])
            assert table["zzz"] is None
            assert table[None] is None
            assert table[5] == {"a", "u"}
            assert tree.stab_many(["zzz", None, 5]) == table
            # NaN: every comparison is False -> lands in a gap, matches
            # only what the equivalent tree descent reaches
            assert reader.stab(math.nan) == tree.stab(math.nan)
        finally:
            reader.close()

    def test_non_numeric_endpoints_roundtrip(self, tmp_path):
        items = [
            (Interval.closed("apple", "mango"), "fruit"),
            (Interval.closed("banana", "peach"), "snack"),
        ]
        tree = IBSTree()
        tree.bulk_load(items)
        path = str(tmp_path / "s.g1.seg")
        write_segment(path, tree, "rel", "name")
        reader = SegmentReader(path)
        try:
            for probe in ("aardvark", "apple", "cherry", "zebra"):
                assert reader.stab(probe) == tree.stab(probe), probe
        finally:
            reader.close()


class TestDiskTreeContract:
    def test_mutation_after_seal_rehydrates(self, tmp_path):
        tree = DiskIBSTree(str(tmp_path / "t.g1.seg"), relation="r", attribute="x")
        tree.bulk_load([(Interval.closed(0, 10), "a")])
        tree.seal(release=True)
        assert tree.sealed
        tree.insert(Interval.closed(5, 15), "b")
        assert not tree.sealed  # segment is stale now
        assert tree.stab(12) == {"b"}
        assert tree.stab(3) == {"a"}
        tree.seal()
        assert tree.sealed
        assert tree.stab(7) == {"a", "b"}

    def test_frozen_tree_refuses_mutation_and_answers_cold(self, tmp_path):
        tree = DiskIBSTree(str(tmp_path / "f.g1.seg"), relation="r", attribute="x")
        tree.bulk_load([(Interval.closed(0, 10), "a")])
        tree.freeze()
        assert tree.frozen and tree.sealed
        with pytest.raises(TreeError):
            tree.insert(Interval.closed(1, 2), "late")
        assert tree.stab(5) == {"a"}
        # frozen audit works on a throwaway rehydration
        assert tree.audit() == []

    def test_from_segment_cold_attach(self, tmp_path):
        rng = random.Random(5)
        items = random_items(rng, 120)
        tree = DiskIBSTree(str(tmp_path / "c.g1.seg"), relation="r", attribute="x")
        tree.bulk_load(items)
        tree.seal(release=True)
        cold = DiskIBSTree.from_segment(str(tmp_path / "c.g1.seg"))
        assert cold.sealed and cold.epoch == tree.epoch
        for x in probe_values(rng, items, n=60):
            assert cold.stab(x) == oracle(items, x), x


# ----------------------------------------------------------------------
# corruption detection
# ----------------------------------------------------------------------


class TestSegmentCorruption:
    def _segment(self, tmp_path):
        tree = IBSTree()
        tree.bulk_load(random_items(random.Random(1), 50))
        path = str(tmp_path / "v.g1.seg")
        write_segment(path, tree, "rel", "x")
        return path

    def test_truncated_file_detected(self, tmp_path):
        path = self._segment(tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CorruptSegmentError):
            SegmentReader(path)

    def test_bad_magic_detected(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CorruptSegmentError):
            SegmentReader(path)

    def test_payload_bitflip_detected_by_verify(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(path, "wb").write(bytes(data))
        reader = SegmentReader(path)  # cheap open-time checks may pass
        try:
            with pytest.raises(CorruptSegmentError):
                reader.verify()
        finally:
            reader.close()

    def test_footer_disagreement_detected(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-4] ^= 0xFF  # inside the footer's length field
        open(path, "wb").write(bytes(data))
        with pytest.raises(CorruptSegmentError):
            SegmentReader(path)


# ----------------------------------------------------------------------
# the disk-tier predicate index
# ----------------------------------------------------------------------


class TestDiskPredicateIndex:
    @pytest.mark.parametrize("seed", DISK_SEEDS)
    def test_matches_memory_tier_exactly(self, tmp_path, seed):
        rng = random.Random(seed)
        disk = PredicateIndex(storage="disk", data_dir=str(tmp_path))
        mem = PredicateIndex()
        preds = [make_pred(rng, "emp", i, extra_attr=True) for i in range(150)]
        for p in preds:
            disk.add(p)
            mem.add(p)
        disk.seal(release=True)  # force reads through the mmap
        tuples = [
            {"x": rng.uniform(-120, 120), "y": rng.randint(0, 4)} for _ in range(300)
        ]
        assert match_table(disk, "emp", tuples) == match_table(mem, "emp", tuples)
        batch_d = disk.match_batch("emp", tuples)
        batch_m = mem.match_batch("emp", tuples)
        assert [sorted(row, key=repr) for row in batch_d] == [
            sorted(row, key=repr) for row in batch_m
        ]

    def test_remove_after_seal(self, tmp_path):
        rng = random.Random(9)
        disk = PredicateIndex(storage="disk", data_dir=str(tmp_path))
        preds = [make_pred(rng, "emp", i) for i in range(40)]
        for p in preds:
            disk.add(p)
        disk.seal(release=True)
        disk.remove("emp-3")
        mem = PredicateIndex()
        for p in preds:
            if p.ident != "emp-3":
                mem.add(p)
        tuples = [{"x": rng.uniform(-120, 120)} for _ in range(150)]
        assert match_table(disk, "emp", tuples) == match_table(mem, "emp", tuples)

    def test_frozen_epoch_stab_cache_coherent_across_seal(self, tmp_path):
        """Sealing keeps each tree's epoch, and the stab cache that
        freezing turns on must agree with the sealed, mmap'd trees."""
        rng = random.Random(11)
        disk = PredicateIndex(storage="disk", data_dir=str(tmp_path))
        preds = [make_pred(rng, "emp", i) for i in range(60)]
        for p in preds:
            disk.add(p)
        tuples = [{"x": rng.uniform(-120, 120)} for _ in range(80)]
        before = match_table(disk, "emp", tuples)
        epochs = disk.tree_epochs("emp")
        disk.seal(release=True)  # same epoch, now served from mmap
        assert disk.tree_epochs("emp") == epochs
        assert match_table(disk, "emp", tuples) == before
        disk.freeze()
        # frozen: repeated probes (cache hits) still agree
        assert match_table(disk, "emp", tuples) == before
        assert match_table(disk, "emp", tuples) == before
        assert disk.stats.stab_cache_hits > 0

    def test_memory_budget_rejected_for_memory_storage(self):
        with pytest.raises(ValueError):
            PredicateIndex(memory_budget=1 << 20)

    def test_function_clause_predicates_still_match(self, tmp_path):
        # not *persistable*, but a live disk index must still route them
        disk = PredicateIndex(storage="disk", data_dir=str(tmp_path))
        disk.add(
            Predicate(
                "emp",
                [FunctionClause("x", lambda v: v % 2 == 1)],
                ident="odd",
            )
        )
        assert {p.ident for p in disk.match("emp", {"x": 3})} == {"odd"}
        assert {p.ident for p in disk.match("emp", {"x": 4})} == set()


def sealed_disk_index(facade, rng, **options):
    """A disk index over 30 predicates, its bases written to segments."""
    index = facade(storage="disk", **options)
    index.add_many([make_pred(rng, "emp", i) for i in range(30)])
    if facade is PredicateIndex:
        index.seal(release=True)
    else:
        index.compact()  # folds into a sealed, frozen base
    assert glob.glob(os.path.join(index.data_dir, "**", "*.seg"), recursive=True)
    return index


class TestPrivateDataDirectory:
    @pytest.mark.parametrize("facade", [PredicateIndex, ConcurrentPredicateIndex])
    def test_an_index_removes_the_directory_it_made(self, facade):
        index = sealed_disk_index(facade, random.Random(3))
        data_dir = index.data_dir
        assert os.path.basename(data_dir).startswith("repro-disk-")
        del index
        gc.collect()
        assert not os.path.exists(data_dir)

    @pytest.mark.parametrize("facade", [PredicateIndex, ConcurrentPredicateIndex])
    def test_a_callers_data_dir_is_never_removed(self, tmp_path, facade):
        data_dir = str(tmp_path / "data")
        index = sealed_disk_index(facade, random.Random(4), data_dir=data_dir)
        files = sorted(glob.glob(os.path.join(data_dir, "**", "*.seg"), recursive=True))
        del index
        gc.collect()
        assert sorted(glob.glob(os.path.join(data_dir, "**", "*.seg"), recursive=True)) == files


# ----------------------------------------------------------------------
# residency and eviction
# ----------------------------------------------------------------------


class TestResidency:
    def test_hot_cold_access_stays_under_budget(self, tmp_path):
        budget = 256 * 1024
        rng = random.Random(21)
        disk = PredicateIndex(
            storage="disk", data_dir=str(tmp_path), memory_budget=budget
        )
        # ten relations, one attribute each; only rel0 stays hot
        for r in range(10):
            for i in range(80):
                disk.add(make_pred(rng, f"rel{r}", i))
        disk.seal(release=True)
        assert disk.resident_bytes() < budget
        peak = 0
        for step in range(300):
            rel = "rel0" if step % 3 else f"rel{rng.randint(1, 9)}"
            disk.match(rel, {"x": rng.uniform(-120, 120)})
            peak = max(peak, disk.resident_bytes())
        # scripted hot/cold access keeps decoded residency bounded even
        # though every relation answered queries
        assert peak <= budget + 64 * 1024, peak

    def test_release_cache_drops_to_near_zero(self, tmp_path):
        rng = random.Random(22)
        tree = DiskIBSTree(str(tmp_path / "r.g1.seg"), relation="r", attribute="x")
        tree.bulk_load(random_items(rng, 200))
        tree.seal(release=True)
        tree.stab(0.0)  # decode some rows
        assert tree.resident_bytes() > 0
        tree.release_cache()
        # only empty-container overhead remains; mmap pages don't count
        assert tree.resident_bytes() < 1024
        assert tree.stab(0.0) == tree.stab(0.0)  # still answers

    def test_store_eviction_skips_dirty_trees(self, tmp_path):
        store = DiskTreeStore(str(tmp_path), memory_budget=1)
        from repro.match.catalog import RelationState

        state = RelationState("r")
        sealed = store.new_tree(state, "a")
        sealed.bulk_load(random_items(random.Random(1), 50))
        sealed.seal(release=False)
        dirty = store.new_tree(state, "b")
        dirty.bulk_load(random_items(random.Random(2), 50))
        # touch both so the LRU knows them; dirty last (hottest)
        sealed.stab(0.0)
        dirty.stab(0.0)
        store.maybe_evict()
        # the dirty tree's contents exist nowhere else — never evicted
        assert len(dirty) == 50
        expected = oracle([(iv, i) for i, iv in dirty.items()], 0.0)
        assert dirty.stab(0.0) == expected

    def test_bounded_memory_at_scale(self, tmp_path):
        """DISK_SCALE predicates (CI disk-stress: 1M) under a fixed budget."""
        budget = 8 * 1024 * 1024
        rng = random.Random(31)
        disk = PredicateIndex(
            storage="disk", data_dir=str(tmp_path), memory_budget=budget
        )
        relations = max(4, DISK_SCALE // 5000)
        per = DISK_SCALE // relations
        for r in range(relations):
            state_preds = []
            for i in range(per):
                a = rng.uniform(-1000, 1000)
                state_preds.append(
                    Predicate(
                        f"rel{r}",
                        [IntervalClause("x", Interval.closed(a, a + 5))],
                        ident=f"r{r}-{i}",
                    )
                )
            for p in state_preds:
                disk.add(p)
            # seal each relation as we go so staging trees don't pile up
            disk.seal(release=True)
        assert disk.resident_bytes() < budget
        peak = 0
        for _ in range(200):
            rel = f"rel{rng.randint(0, relations - 1)}"
            disk.match(rel, {"x": rng.uniform(-1000, 1000)})
            peak = max(peak, disk.resident_bytes())
        assert peak <= budget + budget // 4, peak


# ----------------------------------------------------------------------
# serial save / lazy load
# ----------------------------------------------------------------------


class TestSerialSaveLoad:
    def test_roundtrip_and_laziness(self, tmp_path):
        rng = random.Random(41)
        src = PredicateIndex(storage="disk", data_dir=str(tmp_path))
        preds = [make_pred(rng, "emp", i, extra_attr=True) for i in range(120)]
        for p in preds:
            src.add(p)
        save_index(src)
        loaded = load_index(str(tmp_path))
        # lazy: cold attach decodes nothing up front
        assert loaded.resident_bytes() < 512 * 1024
        tuples = [
            {"x": rng.uniform(-120, 120), "y": rng.randint(0, 4)} for _ in range(200)
        ]
        assert match_table(loaded, "emp", tuples) == match_table(src, "emp", tuples)
        # and the loaded index is mutable: adds keep working
        loaded.add(
            Predicate(
                "emp",
                [IntervalClause("x", Interval.closed(5000, 5001))],
                ident="late",
            )
        )
        # (unbounded-above random predicates may match too; the point is
        # that the freshly added one is served alongside the cold ones)
        assert "late" in {p.ident for p in loaded.match("emp", {"x": 5000.5})}

    def test_save_requires_disk_storage(self):
        with pytest.raises(DatabaseError):
            save_index(PredicateIndex())

    def test_function_clause_rejected_by_codec(self):
        pred = Predicate("r", [FunctionClause("x", lambda v: True)], ident="f")
        with pytest.raises(DatabaseError):
            predicate_to_dict(pred)

    def test_codec_roundtrips_exotic_values(self):
        pred = Predicate(
            "r",
            [
                IntervalClause("x", Interval.at_least(3)),
                IntervalClause("z", Interval.less_than(7.5)),
                EqualityClause("y", ("tuple", 1)),
            ],
            ident=("composite", 42),
        )
        back = predicate_from_dict(predicate_to_dict(pred))
        assert back.ident == ("composite", 42)
        assert back.relation == "r"
        intervals = {
            c.attribute: c.interval
            for c in back.clauses
            if isinstance(c, IntervalClause)
        }
        assert intervals["x"].low == 3 and intervals["x"].high is PLUS_INF
        assert intervals["z"].high == 7.5 and not intervals["z"].high_inclusive


# ----------------------------------------------------------------------
# crash drills: every disk fault site, every seed, twin equivalence
# ----------------------------------------------------------------------


def _drill_workload(rng, n_base=60, n_tail=15):
    base = [make_pred(rng, "emp", i, extra_attr=True) for i in range(n_base)]
    base += [make_pred(rng, "dept", i) for i in range(n_base // 2)]
    tail = [make_pred(rng, "emp", 1000 + i) for i in range(n_tail)]
    removes = ["emp-2", "dept-5"]
    return base, tail, removes


def _apply(index, base, tail, removes, checkpointer=None):
    for p in base:
        index.add(p)
    if checkpointer is not None:
        checkpointer.checkpoint()
    for p in tail:
        index.add(p)
    for ident in removes:
        index.remove(ident)


class TestCrashDrills:
    @pytest.mark.parametrize("seed", DISK_SEEDS)
    @pytest.mark.parametrize("site", DISK_SITES)
    def test_recovery_matches_never_crashed_twin(self, tmp_path, site, seed):
        rng = random.Random(seed)
        base, tail, removes = _drill_workload(rng)

        # the twin never touches a fault and never crashes
        twin = ConcurrentPredicateIndex(
            storage="disk", data_dir=str(tmp_path / "twin"), compaction_threshold=16
        )
        _apply(twin, base, tail, removes)

        # the victim crashes at `site` during its second checkpoint
        victim_dir = str(tmp_path / "victim")
        victim = ConcurrentPredicateIndex(
            storage="disk", data_dir=victim_dir, compaction_threshold=16
        )
        ck = DiskCheckpointer(victim)
        _apply(victim, base, tail, removes, checkpointer=ck)
        with injected(FaultInjector(seed=seed)) as injector:
            injector.arm(site, at_hit=1)
            try:
                ck.checkpoint()
            except InjectedFault:
                pass  # the crash
            assert injector.fired, f"{site} never fired"
        ck.close()

        recovered = recover_concurrent(victim_dir, compaction_threshold=16)
        tuples = [
            {"x": rng.uniform(-120, 120), "y": rng.randint(0, 4)} for _ in range(250)
        ]
        for rel in ("emp", "dept"):
            assert match_table(recovered, rel, tuples) == match_table(
                twin, rel, tuples
            ), (site, seed, rel)
        rows_r = recovered.match_batch("emp", tuples)
        rows_t = twin.match_batch("emp", tuples)
        assert [sorted(r, key=repr) for r in rows_r] == [
            sorted(r, key=repr) for r in rows_t
        ], (site, seed)

    @pytest.mark.parametrize("seed", DISK_SEEDS)
    def test_crash_before_first_checkpoint_recovers_from_journal(
        self, tmp_path, seed
    ):
        rng = random.Random(seed + 100)
        preds = [make_pred(rng, "emp", i) for i in range(30)]
        d = str(tmp_path / "j")
        index = ConcurrentPredicateIndex(storage="disk", data_dir=d)
        ck = DiskCheckpointer(index)
        for p in preds:
            index.add(p)
        # no checkpoint ever completed: recovery is pure journal replay
        ck.close()
        recovered = recover_concurrent(d)
        twin = ConcurrentPredicateIndex(storage="disk", data_dir=str(tmp_path / "t"))
        for p in preds:
            twin.add(p)
        tuples = [{"x": rng.uniform(-120, 120)} for _ in range(120)]
        assert match_table(recovered, "emp", tuples) == match_table(
            twin, "emp", tuples
        )

    def test_unlinked_segment_rebuilds_from_predicate_records(self, tmp_path):
        """disk.mmap_unlink converts to a real unlink; the next cold start
        must rebuild the lost attribute from the predicate records."""
        rng = random.Random(77)
        d = str(tmp_path / "u")
        index = ConcurrentPredicateIndex(storage="disk", data_dir=d)
        ck = DiskCheckpointer(index)
        preds = [make_pred(rng, "emp", i) for i in range(40)]
        for p in preds:
            index.add(p)
        ck.checkpoint()
        with injected(FaultInjector()) as injector:
            injector.arm("disk.mmap_unlink", at_hit=1)
            ck.checkpoint()  # GC unlinks a manifest-referenced segment
            assert injector.fired
        ck.close()
        manifest = read_manifest(d)
        referenced = [
            os.path.join(d, meta["file"])
            for entry in manifest.values()
            for meta in entry["segments"].values()
        ]
        assert any(not os.path.exists(p) for p in referenced)
        recovered = recover_concurrent(d)
        twin = ConcurrentPredicateIndex(storage="disk", data_dir=str(tmp_path / "t"))
        for p in preds:
            twin.add(p)
        tuples = [{"x": rng.uniform(-120, 120)} for _ in range(150)]
        assert match_table(recovered, "emp", tuples) == match_table(
            twin, "emp", tuples
        )

    def test_torn_segment_write_leaves_no_readable_segment(self, tmp_path):
        tree = IBSTree()
        tree.bulk_load(random_items(random.Random(3), 60))
        path = str(tmp_path / "torn.g1.seg")
        with injected(FaultInjector()) as injector:
            injector.arm("disk.torn_segment", at_hit=1)
            with pytest.raises(InjectedFault):
                write_segment(path, tree, "rel", "x")
        # the atomic-rename discipline means the target never appeared
        assert not os.path.exists(path)
        leftovers = glob.glob(str(tmp_path / "*.tmp"))
        for leftover in leftovers:
            # any abandoned temp file must not parse as a segment
            with pytest.raises((CorruptSegmentError, OSError)):
                SegmentReader(leftover)

    def test_partial_checkpoint_preserves_previous_manifest(self, tmp_path):
        rng = random.Random(55)
        d = str(tmp_path / "p")
        index = ConcurrentPredicateIndex(storage="disk", data_dir=d)
        ck = DiskCheckpointer(index)
        for i in range(20):
            index.add(make_pred(rng, "emp", i))
        ck.checkpoint()
        before = read_manifest(d)
        for i in range(20, 30):
            index.add(make_pred(rng, "emp", i))
        with injected(FaultInjector()) as injector:
            injector.arm("disk.partial_checkpoint", at_hit=1)
            with pytest.raises(InjectedFault):
                ck.checkpoint()
        ck.close()
        # the old manifest is byte-identical — still a valid recovery point
        assert read_manifest(d) == before


# ----------------------------------------------------------------------
# incremental checkpoints
# ----------------------------------------------------------------------


class TestIncrementalCheckpoint:
    def test_clean_shards_are_skipped(self, tmp_path):
        rng = random.Random(61)
        d = str(tmp_path)
        index = ConcurrentPredicateIndex(storage="disk", data_dir=d)
        ck = DiskCheckpointer(index)
        for i in range(20):
            index.add(make_pred(rng, "emp", i))
        for i in range(20):
            index.add(make_pred(rng, "dept", i))
        first = ck.checkpoint()
        # only emp changes; dept's manifest entry must be reused verbatim
        dept_entry = read_manifest(d)["dept"]
        index.add(make_pred(rng, "emp", 99))
        second = ck.checkpoint()
        assert second["dept"] == first["dept"]
        assert read_manifest(d)["dept"] == dept_entry
        assert second["emp"] > first["emp"]
        ck.close()

    def test_journal_compacts_to_checkpointed_tail(self, tmp_path):
        rng = random.Random(62)
        d = str(tmp_path)
        index = ConcurrentPredicateIndex(storage="disk", data_dir=d)
        ck = DiskCheckpointer(index)
        for i in range(25):
            index.add(make_pred(rng, "emp", i))
        ck.checkpoint()
        assert ck.compact_journal() == 0  # everything covered
        index.add(make_pred(rng, "emp", 50))
        assert ck.compact_journal() == 1  # one op past the manifest
        ck.close()


# ----------------------------------------------------------------------
# concurrent facade: RAM overlays, sealed compacted bases
# ----------------------------------------------------------------------


def _files(directory):
    return sorted(
        os.path.relpath(os.path.join(root, name), directory)
        for root, _dirs, names in os.walk(directory)
        for name in names
    )


class TestRamOverlay:
    """Only compacted bases are sealed; the per-write overlay stays in RAM."""

    def test_writes_between_compactions_write_no_file(self, tmp_path):
        rng = random.Random(71)
        d = str(tmp_path)
        index = ConcurrentPredicateIndex(
            storage="disk", data_dir=d, compaction_threshold=16
        )
        index.add_many([make_pred(rng, "emp", i, extra_attr=True) for i in range(40)])
        before = _files(d)
        assert any(name.endswith(".seg") for name in before)
        for i in range(40, 50):
            index.add(make_pred(rng, "emp", i, extra_attr=True))
        for i in range(5):
            index.remove(f"emp-{i}")
        snap = index.shard("emp").snapshot
        assert len(snap.overlay_preds) == 10 and len(snap.removed) == 5
        assert _files(d) == before
        assert snap.overlay.storage == "memory" and snap.overlay.frozen
        # the next compaction seals the folded base to fresh segments
        index.compact("emp")
        snap = index.shard("emp").snapshot
        assert snap.overlay is None
        catalog = snap.base.segment_catalog()["emp"]
        assert catalog and all(os.path.exists(path) for path in catalog.values())
        assert _files(d) != before

    @pytest.mark.parametrize("seed", DISK_SEEDS)
    def test_matches_memory_facade_under_churn(self, tmp_path, seed):
        rng = random.Random(seed + 300)
        disk = ConcurrentPredicateIndex(
            storage="disk", data_dir=str(tmp_path), compaction_threshold=8
        )
        mem = ConcurrentPredicateIndex(compaction_threshold=8)
        live = []
        for step in range(120):
            if live and rng.random() < 0.3:
                ident = live.pop(rng.randrange(len(live)))
                disk.remove(ident)
                mem.remove(ident)
            else:
                pred = make_pred(rng, "emp", step, extra_attr=True)
                disk.add(pred)
                mem.add(pred)
                live.append(pred.ident)
            if step % 20 == 19:
                tuples = [
                    {"x": rng.uniform(-120, 120), "y": rng.randint(0, 4)}
                    for _ in range(40)
                ]
                assert match_table(disk, "emp", tuples) == match_table(
                    mem, "emp", tuples
                ), (seed, step)
                rows_d = disk.match_batch("emp", tuples)
                rows_m = mem.match_batch("emp", tuples)
                assert [sorted(r, key=repr) for r in rows_d] == [
                    sorted(r, key=repr) for r in rows_m
                ], (seed, step)

    def test_crash_with_live_overlay_recovers_from_journal(self, tmp_path):
        rng = random.Random(73)
        d = str(tmp_path / "v")
        index = ConcurrentPredicateIndex(storage="disk", data_dir=d)
        ck = DiskCheckpointer(index)
        preds = [make_pred(rng, "emp", i, extra_attr=True) for i in range(40)]
        for p in preds[:30]:
            index.add(p)
        ck.checkpoint()
        for p in preds[30:]:
            index.add(p)
        index.remove("emp-4")
        snap = index.shard("emp").snapshot
        assert snap.overlay_preds and snap.removed  # unsealed at the crash
        ck.close()

        recovered = recover_concurrent(d)
        twin = ConcurrentPredicateIndex()
        for p in preds:
            twin.add(p)
        twin.remove("emp-4")
        tuples = [
            {"x": rng.uniform(-120, 120), "y": rng.randint(0, 4)} for _ in range(150)
        ]
        assert match_table(recovered, "emp", tuples) == match_table(
            twin, "emp", tuples
        )
        # the recovered shard is wired like a fresh one: RAM overlays
        overlay = recovered.shard("emp").snapshot.overlay
        assert overlay is not None and overlay.storage == "memory"

    def test_overlay_counts_as_resident_and_is_never_evicted(self, tmp_path):
        rng = random.Random(74)
        index = ConcurrentPredicateIndex(
            storage="disk", data_dir=str(tmp_path), memory_budget=1
        )
        index.add_many([make_pred(rng, "emp", i) for i in range(50)])
        index.add(make_pred(rng, "emp", 99))
        overlay = index.shard("emp").snapshot.overlay
        assert overlay.resident_bytes() > 0
        assert index.resident_bytes() >= overlay.resident_bytes()
        index._evict_pass()
        assert index.shard("emp").snapshot.overlay is overlay
        assert len(overlay) == 1
