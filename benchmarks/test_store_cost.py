"""STORE — a store pays only for the statistics something reads.

A relation tracks an attribute's statistics from its first read on
(``RelationStatistics.attribute`` or ``clause_selectivity``), so
attributes no estimate reads cost a store nothing.  The scenario is
shaped like the system benchmark's ``bulk-columnar`` workload, without
its rules: ``bulk_insert`` of 250-row batches of 15-attribute tuples,
each attribute drawn from its own 1,000-value pool.

The bar: storing into a relation whose statistics nobody reads runs at
least 2x faster than storing into one whose 15 attributes were all read
first.  The two setups are timed in alternating rounds in one process,
each with the collector off (``repro.bench.timing.measure``), and
compared by their medians, so load on the host moves both alike.
Writes no BENCH file.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_store_cost.py -q
"""

import random
import statistics

from repro import Database
from repro.bench.timing import measure

ATTRIBUTES = tuple(f"a{k}" for k in range(15))
BATCH = 250
POOL = 1_000
BATCHES = 8
ROUNDS = 7


def batches(seed: int):
    rng = random.Random(seed)
    pool = {name: [rng.randint(1, 10_000) for _ in range(POOL)] for name in ATTRIBUTES}
    out = []
    for _ in range(BATCHES):
        columns = [rng.choices(pool[name], k=BATCH) for name in ATTRIBUTES]
        out.append([dict(zip(ATTRIBUTES, values)) for values in zip(*columns)])
    return out


def store_us_per_tuple(rows, read_first):
    """Microseconds per stored tuple into a fresh relation."""
    db = Database()
    relation = db.create_relation("r", ATTRIBUTES)
    for name in read_first:
        relation.statistics.attribute(name)
    timing = measure(lambda: [db.bulk_insert("r", batch) for batch in rows])
    assert relation.statistics.tracked == tuple(read_first)
    return timing.seconds / (len(rows) * BATCH) * 1e6


def test_unread_statistics_cost_nothing():
    rows = batches(seed=1)
    unread, all_read = [], []
    for _ in range(ROUNDS):
        unread.append(store_us_per_tuple(rows, ()))
        all_read.append(store_us_per_tuple(rows, ATTRIBUTES))
    ratio = statistics.median(all_read) / statistics.median(unread)
    print(
        f"store: {statistics.median(unread):.1f} us/tuple unread, "
        f"{statistics.median(all_read):.1f} us/tuple with all 15 read ({ratio:.2f}x)"
    )
    assert ratio >= 2.0, (unread, all_read)
