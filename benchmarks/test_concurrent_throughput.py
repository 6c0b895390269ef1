"""CONCURRENCY — epoch-snapshot matching vs the mutable index.

``ConcurrentPredicateIndex`` publishes immutable epoch snapshots:
writes build a small overlay and never touch the frozen base, so the
base's stab cache — an append-only, GIL-safe ``dict`` that ``freeze()``
turns on — stays warm across writes.  The mutable ``PredicateIndex``
caches no stabs, so a mixed read/write workload re-stabs every batch.

Acceptance criterion:

* ``test_speedup_is_isolation_not_parallelism`` — on a
  10,000-predicate mixed read/write workload (one add + one 500-tuple
  batch + one remove per round, values repeating across rounds), the
  facade's inline ``match_batch`` sustains at least 2x the match
  throughput of ``match_batch`` over the mutable index.

Both rows run on one thread, so the speedup is *not* parallelism: it
is write isolation (snapshot cache retention).  Fanning batches over
worker threads or processes measured slower than the inline path
(EXPERIMENTS.md PROC).  See ``docs/concurrency_model.md``.

Running this module rewrites ``BENCH_concurrency.json`` at the repo
root with the measured rows.
"""

from pathlib import Path

import pytest

from repro.bench.reporting import write_bench
from repro.bench.runner import run_concurrency

PREDICATES = 10_000
BATCH_SIZE = 500
ROUNDS = 20
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_concurrency.json"


@pytest.fixture(scope="module")
def concurrency_rows():
    rows = run_concurrency(
        predicates=PREDICATES,
        batch_size=BATCH_SIZE,
        rounds=ROUNDS,
    )
    write_bench(
        RESULT_PATH,
        {
            "experiment": "concurrent_throughput",
            "scenario": {
                "predicates": PREDICATES,
                "batch_size": BATCH_SIZE,
                "rounds": ROUNDS,
                "workload": "per round: add 1 predicate, match one batch, remove it; "
                            "batch values repeat across rounds",
            },
            "baseline": "mutable PredicateIndex (the default IBSTree, which caches "
                        "no stabs) driven single-threaded",
            "note": "both rows run on one thread: speedup measures snapshot write "
                    "isolation (cache retention), not parallelism",
            "rows": rows,
        },
    )
    return {(row["mode"], row["pool"]): row for row in rows}


def test_all_configurations_measured(concurrency_rows):
    assert set(concurrency_rows) == {("serial", "none"), ("snapshot", "inline")}
    assert concurrency_rows[("serial", "none")]["speedup"] == pytest.approx(1.0)


def test_speedup_is_isolation_not_parallelism(concurrency_rows):
    """The inline facade clears the 2x bar on one thread: the win is
    write isolation, not parallelism."""
    assert concurrency_rows[("snapshot", "inline")]["speedup"] >= 2.0
