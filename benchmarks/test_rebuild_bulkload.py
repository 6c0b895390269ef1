"""REBUILD — O(N) bulk_load vs incremental insert construction.

A rebuild (``PredicateIndex.verify_and_rebuild``) or a recovery replay
hands a tree its whole interval population at once, so it can sort the
endpoints once, lay out a perfectly balanced tree by midpoint
recursion, and place every marker with integer index comparisons — no
per-insert descents with generic comparisons, rotations, or marker
migrations.  The bench builds each backend from the same 10,000
Figure-7-style intervals both ways, in the workload's random arrival
order and in ascending endpoint order (how a rebuild actually scans
the PREDICATES table; the degenerate case for the plain BST and the
rotation-heavy case for the balanced variants).

Acceptance criteria (checked below): at 10,000 intervals bulk_load is
at least 5x faster than incremental insertion on the unbalanced
``ibs`` backend, and cold-starting a disk-backed index from sealed
segments is at least 5x faster than replaying the same predicates from
the journal.

Running this module rewrites ``BENCH_rebuild.json`` at the repo root
with the measured rows of both experiments.
"""

from pathlib import Path

import pytest

from repro.bench.reporting import write_bench
from repro.bench.runner import run_coldstart, run_rebuild

INTERVALS = 10_000
COLDSTART_PREDICATES = 5_000
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_rebuild.json"


def best_speedups(rows):
    best = {}
    for row in rows:
        best[row["backend"]] = max(best.get(row["backend"], 0.0), row["speedup"])
    return best


@pytest.fixture(scope="module")
def rebuild_rows():
    rebuild = run_rebuild(intervals=INTERVALS, repeats=4)
    if best_speedups(rebuild)["ibs"] < 5.0:
        # one retry: wall-clock benches on shared CI boxes see 2x swings
        rebuild = run_rebuild(intervals=INTERVALS, repeats=4)
    coldstart = run_coldstart(predicates=COLDSTART_PREDICATES)
    segments_row = next(r for r in coldstart if r["path"] == "segments")
    if segments_row["speedup"] < 5.0:
        # one retry: wall-clock benches on shared CI boxes see 2x swings
        coldstart = run_coldstart(predicates=COLDSTART_PREDICATES)
    write_bench(
        RESULT_PATH,
        {
            "experiment": "rebuild_bulkload",
            "scenario": {
                "intervals": INTERVALS,
                "point_fraction": 0.5,
                "orders": ["shuffled", "sorted"],
            },
            "baseline": "N incremental tree.insert calls, same items and order",
            "rows": rebuild,
            "coldstart": {
                "scenario": {"predicates": COLDSTART_PREDICATES, "probes": 100},
                "baseline": "journal-only replay of the same predicates",
                "rows": coldstart,
            },
        },
    )
    return rebuild, {row["path"]: row for row in coldstart}


def test_all_configurations_measured(rebuild_rows):
    rebuild, coldstart = rebuild_rows
    assert {(row["backend"], row["order"]) for row in rebuild} == {
        (backend, order)
        for backend in ("ibs", "avl", "rb")
        for order in ("shuffled", "sorted")
    }
    assert all(row["intervals"] == INTERVALS for row in rebuild)
    assert set(coldstart) == {"journal-replay", "segments"}
    assert all(
        row["predicates"] == COLDSTART_PREDICATES for row in coldstart.values()
    )


def test_bulk_load_speedup(rebuild_rows):
    """bulk_load is >= 5x incremental insertion on ``ibs`` at 10k.

    The unbalanced tree's incremental build degenerates on sorted input,
    which is the rebuild scan's order; the balanced trees' incremental
    builds do not, so their best speedups sit near 3x.
    """
    rebuild, _ = rebuild_rows
    best = best_speedups(rebuild)
    assert best["ibs"] >= 5.0, f"per-backend best speedups: {best}"


def test_bulk_load_always_helps_a_rebuild_scan(rebuild_rows):
    """In sorted (rebuild-scan) order every backend must gain from bulk_load."""
    rebuild, _ = rebuild_rows
    for row in rebuild:
        if row["order"] == "sorted":
            assert row["speedup"] > 1.0, row


def test_coldstart_segments_beat_journal_replay(rebuild_rows):
    """The ISSUE acceptance bar: segment attach >= 5x over journal replay."""
    _, coldstart = rebuild_rows
    assert coldstart["journal-replay"]["speedup"] == pytest.approx(1.0)
    assert coldstart["segments"]["speedup"] >= 5.0, coldstart
    # lazy attach must not secretly pay the replay cost up front
    assert coldstart["segments"]["coldstart_s"] < coldstart["journal-replay"][
        "coldstart_s"
    ]
