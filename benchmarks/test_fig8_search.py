"""FIG8 — average IBS-tree search time vs N and point fraction a.

Paper Figure 8: stabbing-query cost grows logarithmically in the number
of indexed predicates, and the difference between the a curves is
small, "particularly for search time".
"""

import pytest

from repro import IBSTree
from repro.bench.timing import measure


def build_tree(workload, n):
    tree = IBSTree()
    for k, interval in enumerate(workload.intervals(n)):
        tree.insert(interval, k)
    return tree


def best_stab_seconds(tree, points):
    """Best of three timed passes stabbing every point."""

    def stab_all():
        for x in points:
            tree.stab(x)

    return measure(stab_all, repeats=3).seconds


@pytest.mark.parametrize("n", [100, 500, 1000])
@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_fig8_search(benchmark, interval_workload, n, a):
    workload = interval_workload(point_fraction=a)
    tree = build_tree(workload, n)
    points = workload.query_points(256)

    def search_batch():
        total = 0
        for x in points:
            total += len(tree.stab(x))
        return total

    benchmark(search_batch)


def test_fig8_shape_logarithmic(interval_workload):
    """Search cost grows ~log N, not linearly."""

    def per_query(n: int) -> float:
        workload = interval_workload(point_fraction=0.5)
        tree = build_tree(workload, n)
        points = workload.query_points(2000)
        return best_stab_seconds(tree, points) / len(points)

    small, large = per_query(100), per_query(1600)
    assert large < small * 8  # 16x data, far less than 16x time


def test_fig8_point_fraction_spread_small(interval_workload):
    """The a=0 and a=1 curves stay within a small factor (paper: 'the
    difference between the curves ... are small')."""
    times = {}
    for a in (0.0, 1.0):
        workload = interval_workload(point_fraction=a)
        tree = build_tree(workload, 800)
        times[a] = best_stab_seconds(tree, workload.query_points(2000))
    ratio = max(times.values()) / min(times.values())
    assert ratio < 6
