"""Conformance suite for every registered interval-index backend.

Parametrized over the full :data:`~repro.match.registry.DEFAULT_REGISTRY`
tree-backend table, so the IBS-tree variants and every baseline
structure are held to one contract — the
:class:`~repro.baselines.base.IntervalIndex` protocol the predicate
index builds on.  Capability flags (``supports_dynamic_insert``,
``supports_open_bounds``, …) gate the parts of the contract a backend
legitimately opts out of; everything else must agree exactly with a
brute-force oracle.
"""

import random

import pytest

from repro.core.intervals import MINUS_INF, PLUS_INF, Interval
from repro.errors import TreeError
from repro.match.registry import DEFAULT_REGISTRY

BACKENDS = DEFAULT_REGISTRY.tree_backends()

SEED = 1302
N_INTERVALS = 60
POINT_SPAN = 120


def caps(factory):
    return {
        flag: bool(getattr(factory, flag, True))
        for flag in (
            "supports_dynamic_insert",
            "supports_dynamic_delete",
            "supports_open_bounds",
            "supports_unbounded",
        )
    }


def closed_intervals(rng, n=N_INTERVALS):
    """Closed finite intervals — the portion every backend answers exactly."""
    items = []
    for ident in range(n):
        low = rng.randint(0, POINT_SPAN - 1)
        high = low + rng.randint(0, 15)
        items.append((Interval.closed(low, high), ident))
    return items


def build(factory, items):
    """Construct a backend over *items*, honouring its construction mode."""
    if caps(factory)["supports_dynamic_insert"]:
        index = factory()
        for interval, ident in items:
            index.insert(interval, ident)
        return index
    return factory(items)


def oracle(items, x):
    return {ident for interval, ident in items if interval.contains(x)}


def probe_points(items):
    points = set()
    for interval, _ in items:
        for value in (interval.low, interval.high):
            points.update((value - 1, value, value + 1))
    return sorted(points)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param, DEFAULT_REGISTRY.tree_factory(request.param)


class TestStabContract:
    def test_stab_matches_oracle(self, backend):
        name, factory = backend
        items = closed_intervals(random.Random(SEED))
        index = build(factory, items)
        for x in probe_points(items):
            assert set(index.stab(x)) == oracle(items, x), (name, x)

    def test_len_counts_intervals(self, backend):
        _, factory = backend
        items = closed_intervals(random.Random(SEED), n=17)
        assert len(build(factory, items)) == 17

    def test_empty_index_stabs_empty(self, backend):
        _, factory = backend
        index = build(factory, [])
        assert set(index.stab(42)) == set()

    def test_stab_into_accumulates(self, backend):
        name, factory = backend
        items = closed_intervals(random.Random(SEED))
        index = build(factory, items)
        out = {"sentinel"}
        result = index.stab_into(items[0][0].low, out)
        assert result is out
        assert out == {"sentinel"} | oracle(items, items[0][0].low), name

    def test_stab_many_agrees_with_stab(self, backend):
        name, factory = backend
        items = closed_intervals(random.Random(SEED))
        index = build(factory, items)
        points = probe_points(items)[:40]
        table = index.stab_many(points)
        assert set(table) == set(points)
        for x in points:
            assert table[x] == set(index.stab(x)), (name, x)

    def test_stab_many_maps_incomparable_to_none(self, backend):
        _, factory = backend
        items = closed_intervals(random.Random(SEED), n=5)
        index = build(factory, items)
        table = index.stab_many(["not-a-number"])
        assert table["not-a-number"] is None


class TestDynamicContract:
    def test_insert_then_stab(self, backend):
        name, factory = backend
        if not caps(factory)["supports_dynamic_insert"]:
            with pytest.raises(TreeError):
                factory([]).insert(Interval.closed(1, 2), "x")
            return
        index = factory()
        index.insert(Interval.closed(10, 20), "a")
        index.insert(Interval.closed(15, 30), "b")
        assert set(index.stab(17)) == {"a", "b"}, name

    def test_delete_removes_interval(self, backend):
        name, factory = backend
        flags = caps(factory)
        if not flags["supports_dynamic_delete"]:
            with pytest.raises(TreeError):
                build(factory, closed_intervals(random.Random(SEED), n=4)).delete(0)
            return
        items = closed_intervals(random.Random(SEED))
        index = build(factory, items)
        removed = {ident for _, ident in items[::3]}
        for ident in removed:
            index.delete(ident)
        survivors = [(iv, i) for iv, i in items if i not in removed]
        assert len(index) == len(survivors)
        for x in probe_points(items):
            assert set(index.stab(x)) == oracle(survivors, x), (name, x)

    def test_interleaved_insert_delete(self, backend):
        name, factory = backend
        flags = caps(factory)
        if not (flags["supports_dynamic_insert"] and flags["supports_dynamic_delete"]):
            pytest.skip(f"{name} is a static structure")
        rng = random.Random(SEED + 1)
        index = factory()
        live = {}
        for step in range(120):
            if live and rng.random() < 0.4:
                ident = rng.choice(sorted(live))
                index.delete(ident)
                del live[ident]
            else:
                low = rng.randint(0, POINT_SPAN)
                interval = Interval.closed(low, low + rng.randint(0, 10))
                index.insert(interval, step)
                live[step] = interval
        reference = [(iv, i) for i, iv in live.items()]
        for x in probe_points(reference) or [0]:
            assert set(index.stab(x)) == oracle(reference, x), (name, x)


class TestBoundsContract:
    def test_open_bounds_exact(self, backend):
        name, factory = backend
        if not caps(factory)["supports_open_bounds"]:
            pytest.skip(f"{name} treats open bounds as closed")
        if not caps(factory)["supports_dynamic_insert"]:
            index = factory([(Interval.open(10, 20), "o"),
                             (Interval.closed_open(10, 20), "co"),
                             (Interval.open_closed(10, 20), "oc")])
        else:
            index = factory()
            index.insert(Interval.open(10, 20), "o")
            index.insert(Interval.closed_open(10, 20), "co")
            index.insert(Interval.open_closed(10, 20), "oc")
        assert set(index.stab(10)) == {"co"}
        assert set(index.stab(15)) == {"o", "co", "oc"}
        assert set(index.stab(20)) == {"oc"}

    def test_unbounded_exact(self, backend):
        name, factory = backend
        if not caps(factory)["supports_unbounded"]:
            pytest.skip(f"{name} does not honour infinite endpoints")
        items = [(Interval.at_most(10), "low"), (Interval.at_least(50), "high")]
        index = build(factory, items)
        assert set(index.stab(-1_000_000)) == {"low"}
        assert set(index.stab(10)) == {"low"}
        assert set(index.stab(30)) == set()
        assert set(index.stab(1_000_000)) == {"high"}


class TestBulkLoadContract:
    def test_bulk_load_agrees_with_incremental(self, backend):
        name, factory = backend
        bulk = factory()
        # on the tree, not the factory: a registry factory may be a
        # function (the disk backend's is)
        if getattr(bulk, "bulk_load", None) is None:
            pytest.skip(f"{name} has no bulk_load")
        items = closed_intervals(random.Random(SEED + 2))
        bulk.bulk_load(items)
        incremental = build(factory, items)
        assert len(bulk) == len(incremental)
        for x in probe_points(items):
            assert set(bulk.stab(x)) == set(incremental.stab(x)), (name, x)


class TestSentinelContract:
    def test_sentinels_stab_nothing(self, backend):
        """No interval contains an infinity sentinel (``Interval.contains``),
        whichever way the backend was built."""
        name, factory = backend
        items = [
            (Interval.closed(1, 5), "closed"),
            (Interval.unbounded(), "all"),
            (Interval.at_least(3), "from-3"),
            (Interval.less_than(2), "below-2"),
        ]
        if not caps(factory)["supports_unbounded"]:
            items = items[:1]
        built = [("inserts", build(factory, items))]
        bulk = factory()
        if getattr(bulk, "bulk_load", None) is not None:
            bulk.bulk_load(items)
            built.append(("bulk_load", bulk))

        def assert_sentinels_stab_nothing(index, stage):
            for sentinel in (MINUS_INF, PLUS_INF):
                assert set(index.stab(sentinel)) == set(), (name, stage, sentinel)
            assert set(index.stab(3)) == oracle(items, 3), (name, stage)

        for how, index in built:
            assert_sentinels_stab_nothing(index, how)
            if getattr(index, "seal", None) is not None:
                index.seal()
                assert_sentinels_stab_nothing(index, f"{how}, sealed")


class TestHealthContract:
    def test_invariants_hold_after_build(self, backend):
        name, factory = backend
        items = closed_intervals(random.Random(SEED + 3))
        index = build(factory, items)
        auditor = getattr(index, "audit", None)
        if auditor is not None:
            assert list(auditor()) == [], name
        validator = getattr(index, "validate", None)
        if validator is not None:
            validator()

    def test_invariants_hold_after_deletes(self, backend):
        name, factory = backend
        if not caps(factory)["supports_dynamic_delete"]:
            pytest.skip(f"{name} is static")
        items = closed_intervals(random.Random(SEED + 4))
        index = build(factory, items)
        for _, ident in items[::2]:
            index.delete(ident)
        auditor = getattr(index, "audit", None)
        if auditor is not None:
            assert list(auditor()) == [], name
        validator = getattr(index, "validate", None)
        if validator is not None:
            validator()


class TestFreezeContract:
    def test_freeze_preserves_answers_and_blocks_writes(self, backend):
        name, factory = backend
        items = closed_intervals(random.Random(SEED + 5))
        index = build(factory, items)
        # on the tree, not the factory: a registry factory may be a
        # function (the disk backend's is)
        if getattr(index, "freeze", None) is None:
            pytest.skip(f"{name} has no freeze")
        expected = {x: set(index.stab(x)) for x in probe_points(items)}
        index.freeze()
        for x, answer in expected.items():
            assert set(index.stab(x)) == answer, (name, x)
        with pytest.raises(TreeError):
            index.insert(Interval.closed(0, 1), "late")


class TestRegistryIntrospection:
    def test_every_backend_describes(self):
        for name in BACKENDS:
            info = DEFAULT_REGISTRY.describe_backend(name)
            assert info["name"] == name
            assert isinstance(info["description"], str)
            for flag in (
                "supports_dynamic_insert",
                "supports_dynamic_delete",
                "supports_open_bounds",
                "supports_unbounded",
            ):
                assert isinstance(info[flag], bool)

    def test_disk_backed_is_opt_in(self):
        # `disk_backed` defaults to False: a backend that doesn't
        # declare it must not read as disk-capable
        assert DEFAULT_REGISTRY.describe_backend("disk")["disk_backed"] is True
        for name in BACKENDS:
            if name != "disk":
                assert DEFAULT_REGISTRY.describe_backend(name)["disk_backed"] is False, name

    def test_unknown_backend_raises(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            DEFAULT_REGISTRY.tree_factory("no-such-backend")

    def test_duplicate_registration_rejected_without_replace(self):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            DEFAULT_REGISTRY.register_backend("ibs", lambda: None)
        # replace=True is the escape hatch; re-register the original
        original = DEFAULT_REGISTRY.tree_factory("ibs")
        DEFAULT_REGISTRY.register_backend(
            "ibs",
            original,
            "unbalanced IBS-tree (Section 4.2, the paper's measurements)",
            replace=True,
        )
        assert DEFAULT_REGISTRY.tree_factory("ibs") is original
