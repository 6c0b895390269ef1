#!/usr/bin/env python3
"""A tour of the interval indexes: IBS-tree vs the alternatives.

Reproduces, at demo scale, the comparisons the paper draws in
Sections 2, 4.1 and 6: the IBS-tree against the linear list, the
static segment/interval trees, the priority search tree, and the 1-d
R-tree — on capability (dynamic? open bounds? unbounded?) and on
measured per-operation cost.

Run:  python examples/interval_index_tour.py
"""

import time

from repro import AVLIBSTree, IBSTree, Interval, RBIBSTree
from repro.baselines import (
    IntervalList,
    PrioritySearchTree,
    RPlusTree1D,
    RTree1D,
    SegmentTree,
    StaticIntervalTree,
)
from repro.bench.reporting import format_table
from repro.errors import TreeError
from repro.workloads import IntervalWorkload

N = 2_000
QUERIES = 2_000


def capability_matrix() -> None:
    print("=== capability matrix (paper Sections 2, 4.1) ===")
    structures = [
        IntervalList(),
        IBSTree(),
        AVLIBSTree(),
        RBIBSTree(),
        PrioritySearchTree(),
        RTree1D(),
        RPlusTree1D(),
        SegmentTree(),
        StaticIntervalTree(),
    ]
    rows = []
    for s in structures:
        name = getattr(s, "name", type(s).__name__.lower())
        if isinstance(s, (IBSTree,)):
            name = type(s).__name__
        rows.append(
            [
                name,
                "yes" if getattr(s, "supports_dynamic_insert", True) else "NO",
                "yes" if getattr(s, "supports_dynamic_delete", True) else "NO",
                "yes" if getattr(s, "supports_open_bounds", True) else "approx",
                "yes" if getattr(s, "supports_unbounded", True) else "clamped",
            ]
        )
    print(format_table(
        ["structure", "dyn insert", "dyn delete", "open bounds", "unbounded"], rows
    ))
    print()


def open_bounds_demo() -> None:
    print("=== exact open/unbounded semantics (IBS-tree only, dynamically) ===")
    tree = IBSTree()
    tree.insert(Interval.closed_open(10, 20), "half")   # [10, 20)
    tree.insert(Interval.greater_than(15), "ray")       # (15, +inf)
    print(f"  stab(20) = {sorted(tree.stab(20))}   (20 excluded from [10,20))")
    print(f"  stab(15) = {sorted(tree.stab(15))}   (15 excluded from (15,+inf))")
    print(f"  stab(16) = {sorted(tree.stab(16))}")

    pst = PrioritySearchTree()
    pst.insert(Interval.closed_open(10, 20), "half")
    print(f"  PST (closed-only tree) stab_candidates(20) = "
          f"{sorted(pst.stab_candidates(20))} <- false positive; "
          f"stab(20) = {sorted(pst.stab(20))} after the post-filter")
    print()


def timing_comparison() -> None:
    print(f"=== per-operation cost, N={N}, closed intervals ===")
    workload = IntervalWorkload(point_fraction=0.3, seed=1)
    intervals = list(enumerate(workload.intervals(N)))
    points = workload.query_points(QUERIES)

    rows = []
    for name, factory in [
        ("list", IntervalList),
        ("IBSTree", IBSTree),
        ("AVLIBSTree", AVLIBSTree),
        ("RBIBSTree", RBIBSTree),
        ("PST", PrioritySearchTree),
        ("RTree1D", RTree1D),
        ("RPlusTree1D", RPlusTree1D),
    ]:
        index = factory()
        start = time.perf_counter()
        for ident, interval in intervals:
            index.insert(interval, ident)
        insert_us = (time.perf_counter() - start) / N * 1e6
        start = time.perf_counter()
        for x in points:
            index.stab(x)
        search_us = (time.perf_counter() - start) / QUERIES * 1e6
        rows.append([name, f"{insert_us:.2f}", f"{search_us:.2f}"])

    start = time.perf_counter()
    static = SegmentTree((iv, k) for k, iv in intervals)
    build = time.perf_counter() - start
    start = time.perf_counter()
    for x in points:
        static.stab(x)
    search_us = (time.perf_counter() - start) / QUERIES * 1e6
    rows.append(["segment (static)", f"rebuild {build*1e3:.1f}ms", f"{search_us:.2f}"])
    try:
        static.insert(Interval.point(1), "new")
    except TreeError as exc:
        note = str(exc).split(":")[0]
    print(format_table(["structure", "insert us/op", "search us/query"], rows))
    print(f"  (segment tree on insert: '{note}')")
    print()


def marker_economy() -> None:
    print("=== Section 5.1: marker economy ===")
    workload = IntervalWorkload(point_fraction=0.0, seed=2)
    overlapping = IBSTree()
    for k, iv in enumerate(workload.intervals(1000)):
        overlapping.insert(iv, k)
    disjoint = IBSTree()
    for k, iv in enumerate(workload.disjoint_intervals(1000)):
        disjoint.insert(iv, k)
    print(f"  1000 overlapping intervals: {overlapping.marker_count} markers "
          f"({overlapping.marker_count/1000:.1f}/interval ~ log N)")
    print(f"  1000 disjoint intervals:    {disjoint.marker_count} markers "
          f"({disjoint.marker_count/1000:.1f}/interval ~ constant)")


if __name__ == "__main__":
    capability_matrix()
    open_bounds_demo()
    timing_comparison()
    marker_economy()
