"""Property-based tests: IBS-tree invariants against brute force."""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import AVLIBSTree, IBSTree, Interval, RBIBSTree
from tests.conftest import intervals, query_points

#: an operation script: insert (interval) / delete (index into live set)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), intervals()),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    ),
    min_size=1,
    max_size=40,
)

TREE_CLASSES = [IBSTree, AVLIBSTree, RBIBSTree]


def apply_script(tree, script) -> Dict[int, Interval]:
    """Run an op script against a tree, mirroring into a dict.

    Every backend's full invariant validator runs after **every single
    mutation** — not just at the end of the batch — so a mutation that
    leaves the tree transiently broken is pinned to the exact op that
    caused it, and each property test doubles as a structural check.
    """
    live: Dict[int, Interval] = {}
    next_id = 0
    for op, arg in script:
        if op == "insert":
            tree.insert(arg, next_id)
            live[next_id] = arg
            next_id += 1
        elif live:
            victim = sorted(live)[arg % len(live)]
            tree.delete(victim)
            del live[victim]
        else:
            continue
        assert tree.check_invariants() is True, (
            f"invariants broken after {op} "
            f"(op #{script.index((op, arg))}, {len(live)} live)"
        )
    return live


class TestStabbingCompleteness:
    """stab(x) == {I : x in I} for arbitrary operation sequences."""

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    @given(script=ops, xs=st.lists(query_points, min_size=1, max_size=15))
    def test_stab(self, cls, script, xs):
        tree = cls()
        live = apply_script(tree, script)
        for x in xs:
            expected = {i for i, iv in live.items() if iv.contains(x)}
            assert tree.stab(x) == expected

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    @given(script=ops, xs=st.lists(query_points, min_size=1, max_size=15))
    def test_stab_into(self, cls, script, xs):
        """stab_into unions into ``out`` without clearing prior entries."""
        tree = cls()
        live = apply_script(tree, script)
        for x in xs:
            expected = {i for i, iv in live.items() if iv.contains(x)}
            out = {"sentinel"}
            result = tree.stab_into(x, out)
            assert result is out
            assert out == expected | {"sentinel"}

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    @given(script=ops, xs=st.lists(query_points, min_size=1, max_size=15))
    def test_stab_many(self, cls, script, xs):
        """Grouped descent agrees with one-at-a-time stabbing."""
        tree = cls()
        live = apply_script(tree, script)
        answers = tree.stab_many(xs)
        for x in xs:
            assert answers[x] == tree.stab(x)


class TestStabManyEdges:
    """The batch forms' edge cases: incomparable values, empty input."""

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    def test_incomparable_value_maps_to_none(self, cls):
        tree = cls()
        tree.insert(Interval.closed(0, 10), "A")
        answers = tree.stab_many([5, "zzz"])
        assert answers[5] == {"A"}
        assert answers["zzz"] is None
        with pytest.raises(TypeError):
            tree.stab("zzz")

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    def test_stab_into_is_all_or_nothing(self, cls):
        tree = cls()
        tree.insert(Interval.closed(0, 10), "A")
        out = {"kept"}
        with pytest.raises(TypeError):
            tree.stab_into("zzz", out)
        assert out == {"kept"}

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    def test_empty_tree_and_empty_input(self, cls):
        tree = cls()
        assert tree.stab_many([]) == {}
        assert tree.stab_many([1, 2]) == {1: set(), 2: set()}


class TestStructuralInvariants:
    """validate() passes after arbitrary operation sequences."""

    @pytest.mark.parametrize("cls", TREE_CLASSES)
    @given(script=ops)
    def test_invariants(self, cls, script):
        tree = cls()
        apply_script(tree, script)
        tree.validate()  # balanced variants also check balance/colors
        assert tree.audit() == []


class TestDeleteIsInverse:
    """insert(I); delete(I) leaves queries over other intervals unchanged."""

    @given(
        base=st.lists(intervals(), min_size=0, max_size=12),
        extra=intervals(),
        xs=st.lists(query_points, min_size=1, max_size=10),
    )
    def test_insert_then_delete_restores_answers(self, base, extra, xs):
        for cls in TREE_CLASSES:
            tree = cls()
            for k, iv in enumerate(base):
                tree.insert(iv, k)
            before = {x: tree.stab(x) for x in xs}
            tree.insert(extra, "extra")
            tree.delete("extra")
            tree.validate()
            for x in xs:
                assert tree.stab(x) == before[x]


class TestAVLBalance:
    @given(script=ops)
    def test_height_bound(self, script):
        import math

        tree = AVLIBSTree()
        apply_script(tree, script)
        n = tree.node_count
        if n:
            assert tree.height <= 1.4405 * math.log2(n + 2) + 1


class TestMarkerEconomy:
    def test_disjoint_intervals_linear_markers(self):
        """Section 5.1: non-overlapping intervals place O(N) markers."""
        tree = IBSTree()
        n = 200
        for k in range(n):
            tree.insert(Interval.closed(10 * k, 10 * k + 5), k)
        # each closed interval needs >= 2 markers (its two endpoints);
        # a small constant factor on top is allowed, but no log factor.
        assert tree.marker_count <= 4 * n

    def test_each_interval_logarithmic_markers(self):
        """No interval should ever hold more than O(log N) markers."""
        import math
        import random

        rng = random.Random(4)
        tree = AVLIBSTree()
        n = 300
        for k in range(n):
            a = rng.randint(0, 10_000)
            tree.insert(Interval.closed(a, a + rng.randint(0, 2_000)), k)
        bound = 6 * math.log2(n + 2)
        for k in range(n):
            assert tree.markers_of(k) <= bound
