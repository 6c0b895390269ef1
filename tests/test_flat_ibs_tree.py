"""``repro.core.flat_ibs_tree``: the old name of the unbalanced IBS-tree.

The array-and-bitset layout is gone.  Its module keeps the name as an
alias of :class:`IBSTree`, so old imports still resolve, and the two
places that built the flat layout — a ``columnar`` index's trees and a
disk tree's staging tree — build the pointer tree.
"""

import repro
import repro.core
from repro import IBSTree, Interval, IntervalClause, Predicate
from repro.core.flat_ibs_tree import FlatIBSTree
from repro.disk.tree import DiskIBSTree
from repro.match.registry import DEFAULT_REGISTRY


def test_flat_name_is_the_pointer_tree_everywhere(tmp_path):
    assert FlatIBSTree is IBSTree
    assert "FlatIBSTree" not in repro.__all__
    assert "FlatIBSTree" not in repro.core.__all__
    assert "flat" not in DEFAULT_REGISTRY.tree_backends()
    assert "ibs-flat" not in DEFAULT_REGISTRY.matchers()

    columnar = DEFAULT_REGISTRY.create_matcher("columnar")
    for ident, attribute in enumerate("xy"):
        clause = IntervalClause(attribute, Interval.closed(0, 10))
        columnar.add(Predicate("r", [clause], ident=ident))
    trees = [columnar.tree_for("r", attribute) for attribute in "xy"]
    assert [type(tree) for tree in trees] == [IBSTree, IBSTree]

    disk = DiskIBSTree(str(tmp_path / "x.g1.seg"), relation="r", attribute="x")
    disk.bulk_load([(Interval.closed(0, 10), "a")])
    disk.insert(Interval.closed(5, 15), "b")  # builds the staging tree
    assert type(disk._mem) is IBSTree
    assert disk.stab(7) == {"a", "b"}
