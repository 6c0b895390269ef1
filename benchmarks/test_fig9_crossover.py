"""FIG9 — IBS-tree vs sequential search at small predicate counts.

Paper Figure 9: even for N as small as 5, "the cost curve for
sequential search is always higher than for the IBS-tree, showing that
the IBS-tree has quite low overhead", and the sequential curve grows
linearly while the IBS curve stays nearly flat.
"""

import pytest

from repro import IBSTree
from repro.baselines import IntervalList
from repro.bench.timing import measure


def build_pair(workload, n):
    tree, linked = IBSTree(), IntervalList()
    for k, interval in enumerate(workload.intervals(n)):
        tree.insert(interval, k)
        linked.insert(interval, k)
    return tree, linked


def best_stab_seconds(index, points):
    """Best of three timed passes stabbing every point."""

    def stab_all():
        for x in points:
            index.stab(x)

    return measure(stab_all, repeats=3).seconds


@pytest.mark.parametrize("n", [5, 20, 40])
@pytest.mark.parametrize("structure", ["ibs", "sequential"])
def test_fig9_stab(benchmark, interval_workload, n, structure):
    workload = interval_workload(point_fraction=0.5)
    tree, linked = build_pair(workload, n)
    index = tree if structure == "ibs" else linked
    points = workload.query_points(256)

    def search_batch():
        for x in points:
            index.stab(x)

    benchmark(search_batch)


def test_fig9_sequential_always_above(interval_workload):
    """The headline claim, asserted directly."""
    for n in (5, 10, 20, 40):
        workload = interval_workload(point_fraction=0.5)
        tree, linked = build_pair(workload, n)
        points = workload.query_points(4000)
        assert best_stab_seconds(tree, points) < best_stab_seconds(linked, points), (
            f"IBS slower than sequential at N={n}"
        )


def test_fig9_sequential_linear_growth(interval_workload):
    def per_query(n: int) -> float:
        workload = interval_workload(point_fraction=0.5)
        _, linked = build_pair(workload, n)
        points = workload.query_points(3000)
        return best_stab_seconds(linked, points) / len(points)

    assert per_query(40) > per_query(5) * 2.5  # ~8x in theory
