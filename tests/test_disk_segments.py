"""Disk segments without a tree: the sweep writer, the bisect reader,
the residency count, and the one cache of a budgeted base.

* **the sweep** — every row of :func:`repro.core.stabbing.stab_plane`
  must answer what a bulk-loaded ``IBSTree``'s stab answers at its
  endpoint value or inside its gap, and a bulk-loaded ``DiskIBSTree``
  must seal the very bytes the tree-export writer wrote (pinned
  digests), so existing data directories read unchanged;
* **the reader** — a ``bisect`` over the values section must answer
  every stab a tree descent answers, down to NaN, signed zeros, bools,
  ints past 2**53, ``Decimal`` and incomparable values;
* **folds** — a disk fold builds no staging ``IBSTree``, and a fault in it
  publishes nothing and leaves no file behind;
* **residency** — the reader's running count equals the full
  ``sys.getsizeof`` walk it replaced, and a frozen base under a
  ``memory_budget`` keeps no relation stab cache, so the budget bounds
  everything it decodes.

``DISK_SEEDS`` (comma-separated, default 0,1,2) re-rolls the seeded
scenarios; CI's disk-stress job runs this module under its seed sets.
"""

import hashlib
import math
import os
import random
import sys
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from repro.concurrency.facade import ConcurrentPredicateIndex
from repro.core.ibs_tree import IBSTree
from repro.core.intervals import Interval, is_infinite
from repro.core.predicate_index import PredicateIndex
from repro.core.stabbing import stab_plane
from repro.disk import segment as segment_module
from repro.disk import tree as tree_module
from repro.disk.checkpoint import DiskCheckpointer
from repro.disk.segment import SegmentReader, write_segment
from repro.disk.tree import DiskIBSTree
from repro.errors import InjectedFault
from repro.predicates.clauses import IntervalClause
from repro.predicates.predicate import Predicate
from repro.testing.faults import FaultInjector, injected

DISK_SEEDS = [int(s) for s in os.environ.get("DISK_SEEDS", "0,1,2").split(",")]


# ----------------------------------------------------------------------
# strategies and helpers
# ----------------------------------------------------------------------

#: ints and floats that collide often: 3 and 3.0, 0 and -0.0
numbers = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-24, max_value=24).map(lambda v: v / 2),
    st.sampled_from([0.0, -0.0]),
)
words = st.text(alphabet="abxyz", max_size=3)

BOUNDS = (
    "closed", "open", "closed_open", "open_closed", "point",
    "at_most", "less_than", "at_least", "greater_than", "unbounded",
)


@st.composite
def intervals_over(draw, values):
    """Open, closed, point and unbounded intervals over *values*."""
    low, high = sorted((draw(values), draw(values)))
    kind = draw(st.sampled_from(BOUNDS))
    if low == high and kind in ("closed", "open", "closed_open", "open_closed"):
        kind = "point"
    if kind == "point":
        return Interval.point(low)
    if kind in ("at_most", "less_than"):
        return getattr(Interval, kind)(high)
    if kind in ("at_least", "greater_than"):
        return getattr(Interval, kind)(low)
    if kind == "unbounded":
        return Interval.unbounded()
    return getattr(Interval, kind)(low, high)


def pairs_over(values, max_size=30):
    return st.lists(intervals_over(values), max_size=max_size).map(
        lambda found: [(interval, f"p{k}") for k, interval in enumerate(found)]
    )


def ibs_tree(pairs):
    tree = IBSTree()
    tree.bulk_load(pairs)
    return tree


def gap_probes(values):
    """One value inside each of the ``len(values) + 1`` gaps of sorted
    *values* (``None`` for a gap no value fits in: below ``""``)."""
    if not values:
        return [0]
    if isinstance(values[0], str):
        return ["" if values[0] else None] + [v + "\0" for v in values]
    middles = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return [values[0] - 1] + middles + [values[-1] + 1]


def assert_rows_answer_as_stabs(tree, values, eq_rows, gap_rows, ident_of):
    """Each plane row decodes to *tree*'s stab at its endpoint value, or
    at a probe inside its gap."""
    assert len(eq_rows) == len(values) and len(gap_rows) == len(values) + 1

    def decode(row):
        return {ident for bit, ident in enumerate(ident_of) if row >> bit & 1}

    for value, row in zip(values, eq_rows):
        assert decode(row) == tree.stab(value), value
    for probe, row in zip(gap_probes(values), gap_rows):
        if probe is not None:
            assert decode(row) == tree.stab(probe), probe


def sealed_reader(tmp_path, pairs, name="x.g1.seg"):
    path = str(tmp_path / name)
    write_segment(path, pairs, "rel", "x")
    return SegmentReader(path)


def assert_same_stab(tree, reader, x):
    """The reader answers *x* as the tree does, or raises as it does
    (``TypeError`` for an incomparable value)."""
    try:
        want = tree.stab(x)
    except Exception as exc:
        with pytest.raises(type(exc)):
            reader.stab(x)
        return
    assert reader.stab(x) == want, x


def walked_bytes(reader):
    """The residency walk ``SegmentReader.resident_bytes`` used to run."""
    total = 0
    for cache in (reader._eq_cache, reader._gap_cache):
        total += sys.getsizeof(cache)
        for row in cache.values():
            total += sys.getsizeof(row)
    for table in (reader._ident_of, reader._interval_of, reader._values_list, reader._bit_of):
        if table is not None:
            total += sys.getsizeof(table) + 32 * len(table)
    return total


def files_under(root):
    return sorted(
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _dirs, names in os.walk(root)
        for name in names
    )


# ----------------------------------------------------------------------
# the sweep: the tree's plane, the tree export's bytes
# ----------------------------------------------------------------------


def numbered(pairs):
    """The sweep's input: bit *k* is the *k*-th pair, as a segment numbers it."""
    return [(interval, bit) for bit, (interval, _) in enumerate(pairs)]


@given(pairs=pairs_over(numbers))
def test_sweep_plane_equals_tree_export_numbers(pairs):
    values, eq_rows, gap_rows = stab_plane(numbered(pairs))
    idents = [ident for _, ident in pairs]
    assert_rows_answer_as_stabs(ibs_tree(pairs), values, eq_rows, gap_rows, idents)
    # of equal endpoints (3 and 3.0, 0 and -0.0) the first stands for
    # both, as a tree node does
    endpoints = [v for interval, _ in pairs for v in (interval.low, interval.high)]
    first = [next(e for e in endpoints if e == v) for v in values]
    assert [repr(v) for v in values] == [repr(v) for v in first]


@given(pairs=pairs_over(words))
def test_sweep_plane_equals_tree_export_strings(pairs):
    values, eq_rows, gap_rows = stab_plane(numbered(pairs))
    idents = [ident for _, ident in pairs]
    assert_rows_answer_as_stabs(ibs_tree(pairs), values, eq_rows, gap_rows, idents)


def test_sweep_refuses_incomparable_endpoints_like_a_tree_build():
    pairs = [(Interval.closed(1, 2), "n"), (Interval.closed("a", "b"), "s")]
    with pytest.raises(TypeError):
        ibs_tree(pairs)
    with pytest.raises(TypeError):
        stab_plane(pairs)


#: a bulk-loaded DiskIBSTree over these pairs seals a segment whose
#: SHA-256 is pinned below; the digests were taken from the writer that
#: serialised a bulk-loaded tree's export, so a segment written
#: by the sweep is byte-identical to one written before it
PINNED_PAIRS = {
    "numeric": [
        (Interval.closed(1, 5), "a"),
        (Interval.open(1.0, 7.5), "b"),
        (Interval.closed_open(-0.0, 3), "c"),
        (Interval.open_closed(0, 2.5), 4),
        (Interval.point(3), "e"),
        (Interval.at_most(2), "f"),
        (Interval.greater_than(7.5), "g"),
        (Interval.unbounded(), ("h", 1)),
        (Interval.less_than(-3), "i"),
    ],
    "strings": [
        (Interval.closed("apple", "mango"), "fruit"),
        (Interval.open("banana", "peach"), "snack"),
        (Interval.point("kiwi"), "kiwi"),
        (Interval.at_least("melon"), "late"),
    ],
    "big ints": [
        (Interval.closed(2**60, 2**60 + 9), "big"),
        (Interval.open(-5, 2**60 + 3), "wide"),
        (Interval.point(0.5), "half"),
    ],
}
PINNED_SHA256 = {
    "numeric": "6e5f6d8a1e0bf33189d8ab8da4d78ea1f28f7288179c49444020b39e4f74b3a0",
    "strings": "3fd03167f94a87b2f06277ad9e232c6849a8c7b2f33b344f5178a3154ba9a480",
    "big ints": "d0bce0e06edd02a380f06fc67afd85defa714956fedc57be5b6c041f8d696d31",
}


@pytest.mark.parametrize("name", sorted(PINNED_PAIRS))
def test_bulk_loaded_segment_bytes_are_pinned(tmp_path, name):
    path = str(tmp_path / "pinned.seg")
    tree = DiskIBSTree(path, relation="rel", attribute="x")
    tree.bulk_load(PINNED_PAIRS[name])
    tree.seal()
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == PINNED_SHA256[name]
    tree.close()
    # the tree-accepting form writes the same bytes
    again = str(tmp_path / "again.seg")
    write_segment(again, ibs_tree(PINNED_PAIRS[name]), "rel", "x")
    with open(path, "rb") as first, open(again, "rb") as second:
        assert first.read() == second.read()


# ----------------------------------------------------------------------
# the reader: bisect answers what a descent answers
# ----------------------------------------------------------------------

PROBES = [
    -13, -3, 0, 1, 2, 3, 7, 12, 40,
    -3.5, -0.0, 0.0, 2.5, 7.5, 1e300, -math.inf, math.inf, math.nan,
    True, False,
    2**53 + 1, -(2**60), 2**60 + 3,
    Decimal("2.5"), Decimal("-3"), Decimal("NaN"),
    "zzz", (1, 2), None,
]


@pytest.mark.parametrize("native", [True, False], ids=["view", "decoded"])
@given(pairs=pairs_over(numbers))
def test_reader_stabs_equal_tree_stabs(tmp_path_factory, native, pairs):
    tree = ibs_tree(pairs)
    with pytest.MonkeyPatch.context() as patch:
        # the decoded-list fallback a big-endian host takes
        patch.setattr(segment_module, "_NATIVE_F64", native)
        reader = sealed_reader(tmp_path_factory.mktemp("seg"), pairs)
    try:
        assert (reader._view is not None) == native
        # (the pipeline never probes the infinity sentinels)
        for x in PROBES + [i.low for i, _ in pairs if not is_infinite(i.low)]:
            assert_same_stab(tree, reader, x)
        batch = [x for x in PROBES if not isinstance(x, Decimal) or x.is_finite()]
        assert reader.stab_many(batch) == tree.stab_many(batch)
    finally:
        reader.close()


@pytest.mark.parametrize("seed", DISK_SEEDS)
def test_reader_over_ints_past_2_53_uses_the_pickled_values(tmp_path, seed):
    rng = random.Random(seed)
    base = 2**60
    pairs = []
    for k in range(40):
        low = base + rng.randint(-50, 50)
        pairs.append((Interval(low, low + rng.randint(1, 9), rng.random() < 0.5, True), k))
    pairs.append((Interval.at_most(base), "low"))
    tree = ibs_tree(pairs)
    reader = sealed_reader(tmp_path, pairs)
    try:
        assert not reader.numeric
        probes = [base + rng.randint(-60, 60) for _ in range(80)]
        probes += [float(base), base + 0.5, 1.5, math.nan, Decimal(base), "zzz", True]
        for x in probes:
            assert_same_stab(tree, reader, x)
    finally:
        reader.close()


@given(pairs=pairs_over(words))
def test_reader_over_strings(tmp_path_factory, pairs):
    tree = ibs_tree(pairs)
    reader = sealed_reader(tmp_path_factory.mktemp("seg"), pairs)
    try:
        for x in ["", "a", "ab", "b", "bz", "x", "zzz", "zzzz", 3, math.nan]:
            assert_same_stab(tree, reader, x)
    finally:
        reader.close()


def test_close_releases_the_view_before_the_mapping(tmp_path):
    reader = sealed_reader(tmp_path, [(Interval.closed(0, 10), "a")])
    assert reader.stab(5) == {"a"}
    assert reader._view is not None  # the locate ran over the view
    reader.close()  # would raise BufferError with the view still open
    assert reader._view is None and reader._mmap.closed


# ----------------------------------------------------------------------
# folds: no staging tree, nothing left behind by a fault
# ----------------------------------------------------------------------


def ranged(ident, low, width=20, attribute="x"):
    return Predicate("r", [IntervalClause(attribute, Interval.closed(low, low + width))], ident=ident)


def counting_staging_tree(monkeypatch):
    built = []

    class Counted(tree_module.IBSTree):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(tree_module, "IBSTree", Counted)
    return built


@pytest.mark.parametrize("seed", DISK_SEEDS)
def test_a_disk_fold_builds_no_flat_tree(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    built = counting_staging_tree(monkeypatch)
    idx = ConcurrentPredicateIndex(storage="disk", data_dir=str(tmp_path / "data"))
    live = {}
    for i in range(60):
        attribute = rng.choice("xy")
        live[i] = ranged(i, rng.randint(0, 200), attribute=attribute)
    idx.add_many(list(live.values()))
    idx.compact()  # a fold
    for i in range(60, 70):
        live[i] = ranged(i, rng.randint(0, 200))
        idx.add(live[i])
    checkpointer = DiskCheckpointer(idx)
    try:
        checkpointer.checkpoint()  # folds the dirty shard again
    finally:
        checkpointer.close()
    for _ in range(50):
        tup = {"x": rng.randint(-10, 230), "y": rng.randint(-10, 230)}
        want = {ident for ident, p in live.items() if p.matches(tup)}
        assert {p.ident for p in idx.match("r", tup)} == want
        assert {p.ident for p in idx.match_batch("r", [tup])[0]} == want
    assert built == []
    # a read of a mutable index before its seal does build one
    scalar = PredicateIndex(storage="disk", data_dir=str(tmp_path / "scalar"))
    scalar.add_many([ranged("a", 0)])
    assert [p.ident for p in scalar.match("r", {"x": 5})] == ["a"]
    assert len(built) == 1


@pytest.mark.parametrize("site", ["tree.bulk_load", "disk.torn_segment"])
@pytest.mark.parametrize("seed", DISK_SEEDS)
def test_fault_in_a_disk_fold_publishes_nothing_and_leaves_no_file(tmp_path, site, seed):
    rng = random.Random(seed)
    data_dir = str(tmp_path / "data")
    idx = ConcurrentPredicateIndex(storage="disk", data_dir=data_dir)
    live = {i: ranged(i, rng.randint(0, 200)) for i in range(30)}
    idx.add_many(list(live.values()))
    idx.compact()
    for i in range(30, 35):
        live[i] = ranged(i, rng.randint(0, 200))
        idx.add(live[i])
    before, files = idx.snapshot("r"), files_under(data_dir)
    injector = FaultInjector().arm(site)
    with injected(injector):
        with pytest.raises(InjectedFault):
            idx.compact()
    assert injector.fired == [(site, 1)]
    assert idx.snapshot("r") is before
    assert files_under(data_dir) == files  # no segment, no temp file
    for _ in range(40):
        tup = {"x": rng.randint(-10, 230)}
        want = {ident for ident, p in live.items() if p.matches(tup)}
        assert {p.ident for p in idx.match("r", tup)} == want
    idx.compact()  # the fold goes through once the fault has passed
    assert idx.snapshot("r").overlay_preds == ()


def test_bulk_load_fault_leaves_a_disk_tree_empty(tmp_path):
    tree = DiskIBSTree(str(tmp_path / "t.g1.seg"), relation="r", attribute="x")
    with injected(FaultInjector().arm("tree.bulk_load")):
        with pytest.raises(InjectedFault):
            tree.bulk_load([(Interval.closed(0, 10), "a")])
    assert len(tree) == 0 and not os.path.exists(str(tmp_path / "t.g1.seg"))
    assert tree.bulk_load([(Interval.closed(0, 10), "a")]) == ["a"]
    assert tree.stab(5) == {"a"}


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_add_many_refuses_incomparable_endpoints_and_stays_empty(tmp_path, storage):
    # the disk tier keeps bulk-loaded pairs for a later seal, so it must
    # refuse what a tree build refuses when they arrive, not at every
    # read after
    idx = PredicateIndex(storage=storage, data_dir=str(tmp_path) if storage == "disk" else None)
    kiwi = Predicate("r", [IntervalClause("x", Interval.point("kiwi"))], ident="s")
    with pytest.raises(TypeError):
        idx.add_many([ranged("n", 1, width=4), kiwi])
    assert len(idx) == 0
    assert idx.match("r", {"x": 3}) == [] and idx.match_batch("r", [{"x": 3}]) == [[]]
    idx.add_many([ranged("n", 1, width=4)])
    idx.freeze()
    assert [p.ident for p in idx.match_batch("r", [{"x": 3}, {"x": 9}])[0]] == ["n"]


def test_disk_bulk_load_refuses_incomparable_endpoints(tmp_path):
    tree = DiskIBSTree(str(tmp_path / "t.g1.seg"), relation="r", attribute="x")
    with pytest.raises(TypeError):
        tree.bulk_load([(Interval.closed(1, 5), "n"), (Interval.point("kiwi"), "s")])
    assert len(tree) == 0 and tree.stab(3) == set()


# ----------------------------------------------------------------------
# residency: a running count, and one budgeted cache
# ----------------------------------------------------------------------


def test_staging_tree_estimate_is_within_2x_of_traced_bytes(tmp_path):
    """Eviction sums ``resident_bytes``, so a staging tree's estimate
    must be near what it holds: 2,000 intervals of ``disk-maintained``'s
    shape (width 300 over 1..10,000), against tracemalloc."""
    rng = random.Random(2)
    pairs = []
    for k in range(2_000):
        low = rng.randint(1, 10_000)
        pairs.append((Interval.closed(low, low + 299), k))
    tree = DiskIBSTree(str(tmp_path / "t.g1.seg"), relation="r", attribute="x")
    tree.bulk_load(pairs)
    del pairs
    tracemalloc.start()
    try:
        tree.stab(5_000)  # a read before the seal builds the staging tree
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    estimate = tree.resident_bytes()
    assert traced / 2 <= estimate <= 2 * traced, (estimate, traced)


@pytest.mark.parametrize("values", ["numeric", "strings"])
@pytest.mark.parametrize("seed", DISK_SEEDS)
def test_residency_count_equals_the_walk(tmp_path, seed, values):
    rng = random.Random(seed)
    if values == "numeric":
        lows = [rng.randint(0, 400) for _ in range(150)]
        pairs = [(Interval.closed(low, low + rng.randint(0, 30)), k) for k, low in enumerate(lows)]
        probe = lambda: rng.randint(-10, 440) + rng.choice([0, 0.5])  # noqa: E731
    else:
        names = sorted({"".join(rng.choice("abcdef") for _ in range(3)) for _ in range(120)})
        pairs = [
            (Interval.closed(*sorted(rng.sample(names, 2))), f"s{k}") for k in range(100)
        ]
        probe = lambda: "".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 4)))  # noqa: E731
    reader = sealed_reader(tmp_path, pairs)
    idents = [ident for _, ident in pairs]
    try:
        assert reader.resident_bytes() == walked_bytes(reader)
        for _ in range(400):
            roll = rng.random()
            if roll < 0.6:
                reader.stab(probe())
            elif roll < 0.7:
                reader.stab_many([probe() for _ in range(5)])
            elif roll < 0.78:
                reader.get(rng.choice(idents))
            elif roll < 0.83:
                reader.interval_table()
            elif roll < 0.88:
                assert rng.choice(idents) in reader
            elif roll < 0.92:
                reader.stab_into(probe(), set())
            else:
                resident = reader.resident_bytes()
                assert reader.release() == resident
            assert reader.resident_bytes() == walked_bytes(reader)
    finally:
        reader.close()


@pytest.mark.parametrize("seed", DISK_SEEDS)
def test_budgeted_frozen_base_keeps_one_cache_within_budget(tmp_path, seed):
    """``disk-maintained``'s shape: 2,000 two-clause predicates over 5
    of 15 attributes, 40 batches of 32 fresh tuples, a 64 KiB budget."""
    rng = random.Random(seed)
    budget = 64 * 1024
    attributes = [f"a{k}" for k in range(15)]
    predicates = []
    for i in range(2_000):
        clauses = []
        for attribute in rng.sample(attributes[:5], 2):
            low = rng.randint(1, 10_000)
            clauses.append(IntervalClause(attribute, Interval.closed(low, low + 299)))
        predicates.append(Predicate("r0", clauses, ident=i))
    index = PredicateIndex(storage="disk", data_dir=str(tmp_path), memory_budget=budget)
    index.add_many(predicates)
    index.seal(release=True)
    index.freeze()
    store = index._store
    for step in range(40):
        batch = [{a: rng.randint(1, 10_000) for a in attributes} for _ in range(32)]
        rows = index.match_batch("r0", batch)
        if step % 8 == 0:
            for tup, row in zip(batch, rows):
                assert {p.ident for p in row} == {
                    p.ident for p in predicates if p.matches(tup)
                }
                assert {p.ident for p in index.match("r0", tup)} == {p.ident for p in row}
        assert index._relations["r0"].stab_cache is None
        hottest = store.live_trees()[-1]
        assert index.resident_bytes() <= budget + hottest.resident_bytes()
    assert index.stats.stab_cache_hits == 0

