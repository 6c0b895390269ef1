"""FIG7 — average IBS-tree insertion time vs N and point fraction a.

Paper Figure 7: insertion cost grows logarithmically with N, with only
a small spread between a = 0 (all ranges), a = 0.5, and a = 1 (all
points).  The paper measures the unbalanced tree under random
insertion order; so do we.

Regenerate the full series table with:  python benchmarks/run_all.py
"""

import pytest

from repro import IBSTree
from repro.bench.timing import measure


@pytest.mark.parametrize("n", [100, 500, 1000])
@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_fig7_insertion(benchmark, interval_workload, n, a):
    workload = interval_workload(point_fraction=a)
    intervals = workload.intervals(n)

    def build():
        tree = IBSTree()
        for k, interval in enumerate(intervals):
            tree.insert(interval, k)
        return tree

    tree = benchmark(build)
    assert len(tree) == n
    benchmark.extra_info["per_insert_us"] = (
        benchmark.stats["mean"] / n * 1e6 if benchmark.stats else None
    )


def test_fig7_shape_logarithmic(interval_workload):
    """Per-insert cost must grow far slower than linearly in N."""

    def per_insert(n: int) -> float:
        intervals = interval_workload(point_fraction=0.5).intervals(n)

        def build():
            tree = IBSTree()
            for k, interval in enumerate(intervals):
                tree.insert(interval, k)

        return measure(build, repeats=3).seconds / n

    small, large = per_insert(100), per_insert(1600)
    # 16x the predicates must cost far less than 16x per insert
    # (logarithmic: expect ~1.5-2.5x; allow generous slack for noise)
    assert large < small * 6
