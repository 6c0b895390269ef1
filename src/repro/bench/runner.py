"""Experiment harness: one runner per paper figure / analysis.

Each ``run_*`` function returns plain row dicts (so tests can assert on
shapes) and has a matching ``print_*`` that renders the paper-style
table.  ``python -m repro.bench.runner`` runs everything.

Experiment ids (see DESIGN.md / EXPERIMENTS.md):

======  ==========================================================
FIG7    average IBS-tree insertion time vs N, a in {0, 0.5, 1}
FIG8    average IBS-tree search time vs N, a in {0, 0.5, 1}
FIG9    IBS-tree vs sequential list, small N (the crossover plot)
COST    Section 5.2 cost model: paper constants, calibrated
        constants, and the directly measured matcher
SPACE   Section 5.1 marker counts: overlapping vs disjoint intervals
ABL1    dynamic interval index ablation (Section 6 future work)
ABL2    balanced vs unbalanced IBS-tree under sorted insertion
E2E     end-to-end matcher throughput vs number of predicates
CONC    mixed read/write: mutable index vs epoch-snapshot facade
======  ==========================================================
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.intervals import Interval
from ..core.predicate_index import PredicateIndex
from ..match.registry import DEFAULT_REGISTRY
from ..predicates.clauses import IntervalClause
from ..predicates.predicate import Predicate
from ..workloads.generator import IntervalWorkload, ScenarioConfig, ScenarioWorkload
from .cost_model import (
    CostParameters,
    calibrate,
    measured_match_cost_ms,
    predicate_match_cost,
)
from .reporting import print_experiment

__all__ = [
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_cost_model",
    "run_space",
    "run_ablation_indexes",
    "run_ablation_balancing",
    "run_ablation_selectivity",
    "run_ablation_multiclause",
    "run_e2e",
    "run_batch",
    "run_rebuild",
    "run_coldstart",
    "run_stab_cache",
    "run_concurrency",
    "run_maintenance",
    "main",
]

DEFAULT_NS = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
DEFAULT_FRACTIONS = (0.0, 0.5, 1.0)


# ----------------------------------------------------------------------
# FIG7 — insertion time
# ----------------------------------------------------------------------


def run_fig7(
    ns: Sequence[int] = DEFAULT_NS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 7,
    tree_factory: Any = "ibs",
) -> List[Dict[str, Any]]:
    """Average insertion time (microseconds) per (N, a) cell.

    Methodology follows the paper: "the average insertion cost was
    measured as the time to insert N predicates in an initially empty
    index, divided by N", with the unbalanced tree and random order.
    *tree_factory* is a registered backend name or a factory callable.
    """
    tree_factory = DEFAULT_REGISTRY.resolve_tree_factory(tree_factory)
    rows: List[Dict[str, Any]] = []
    for n in ns:
        row: Dict[str, Any] = {"n": n}
        for a in fractions:
            workload = IntervalWorkload(point_fraction=a, seed=seed)
            intervals = workload.intervals(n)
            tree = tree_factory()
            start = time.perf_counter()
            for k, interval in enumerate(intervals):
                tree.insert(interval, k)
            elapsed = time.perf_counter() - start
            row[f"a={a:g}"] = elapsed / n * 1e6
        rows.append(row)
    return rows


def _chart_fractions(rows: List[Dict[str, Any]], unit: str) -> str:
    from .charts import ascii_chart

    series = {
        key: [(row["n"], row[key]) for row in rows]
        for key in rows[0]
        if key != "n"
    }
    return ascii_chart(series, title=f"({unit} vs N)")


def print_fig7(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_fig7()
    headers = ["N"] + [key for key in rows[0] if key != "n"]
    print_experiment(
        "FIG7: average IBS-tree insertion time (microseconds/op)",
        headers,
        [[row["n"]] + [row[h] for h in headers[1:]] for row in rows],
        note="paper Figure 7 (msec on a SPARCstation 1; shape: logarithmic growth)",
    )
    if len(rows) > 1:
        print(_chart_fractions(rows, "us/insert"))
        print()
    return rows


# ----------------------------------------------------------------------
# FIG8 — search time
# ----------------------------------------------------------------------


def run_fig8(
    ns: Sequence[int] = DEFAULT_NS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    queries: int = 2_000,
    seed: int = 8,
    tree_factory: Any = "ibs",
) -> List[Dict[str, Any]]:
    """Average stabbing-query time (microseconds) per (N, a) cell.

    *tree_factory* is a registered backend name or a factory callable.
    """
    tree_factory = DEFAULT_REGISTRY.resolve_tree_factory(tree_factory)
    rows: List[Dict[str, Any]] = []
    for n in ns:
        row: Dict[str, Any] = {"n": n}
        for a in fractions:
            workload = IntervalWorkload(point_fraction=a, seed=seed)
            tree = tree_factory()
            for k, interval in enumerate(workload.intervals(n)):
                tree.insert(interval, k)
            points = workload.query_points(queries)
            start = time.perf_counter()
            for x in points:
                tree.stab(x)
            elapsed = time.perf_counter() - start
            row[f"a={a:g}"] = elapsed / queries * 1e6
        rows.append(row)
    return rows


def print_fig8(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_fig8()
    headers = ["N"] + [key for key in rows[0] if key != "n"]
    print_experiment(
        "FIG8: average IBS-tree search time (microseconds/query)",
        headers,
        [[row["n"]] + [row[h] for h in headers[1:]] for row in rows],
        note="paper Figure 8 (shape: logarithmic growth, small spread across a)",
    )
    if len(rows) > 1:
        print(_chart_fractions(rows, "us/query"))
        print()
    return rows


# ----------------------------------------------------------------------
# FIG9 — IBS-tree vs sequential list at small N
# ----------------------------------------------------------------------


def run_fig9(
    ns: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40),
    point_fraction: float = 0.5,
    queries: int = 4_000,
    seed: int = 9,
) -> List[Dict[str, Any]]:
    """Per-query time (microseconds): IBS-tree vs linked-list scan.

    Paper Figure 9: "the cost curve for sequential search is always
    higher than for the IBS-tree, showing that the IBS-tree has quite
    low overhead."
    """
    rows: List[Dict[str, Any]] = []
    for n in ns:
        workload = IntervalWorkload(point_fraction=point_fraction, seed=seed)
        intervals = workload.intervals(n)
        tree = DEFAULT_REGISTRY.tree_factory("ibs")()
        linked = DEFAULT_REGISTRY.tree_factory("interval-list")()
        for k, interval in enumerate(intervals):
            tree.insert(interval, k)
            linked.insert(interval, k)
        points = workload.query_points(queries)
        start = time.perf_counter()
        for x in points:
            tree.stab(x)
        tree_us = (time.perf_counter() - start) / queries * 1e6
        start = time.perf_counter()
        for x in points:
            linked.stab(x)
        list_us = (time.perf_counter() - start) / queries * 1e6
        rows.append({"n": n, "ibs_us": tree_us, "sequential_us": list_us})
    return rows


def print_fig9(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_fig9()
    print_experiment(
        "FIG9: predicate test cost, IBS-tree vs sequential (microseconds/query)",
        ["N", "IBS-tree", "sequential"],
        [[row["n"], row["ibs_us"], row["sequential_us"]] for row in rows],
        note="paper Figure 9 (shape: sequential linear and above the IBS curve)",
    )
    if len(rows) > 1:
        from .charts import ascii_chart

        print(
            ascii_chart(
                {
                    "ibs": [(row["n"], row["ibs_us"]) for row in rows],
                    "sequential": [
                        (row["n"], row["sequential_us"]) for row in rows
                    ],
                },
                title="(us/query vs N)",
            )
        )
        print()
    return rows


# ----------------------------------------------------------------------
# COST — the Section 5.2 cost model
# ----------------------------------------------------------------------


def run_cost_model(seed: int = 42) -> Dict[str, Any]:
    """Paper-constant prediction, calibrated prediction, and measurement."""
    paper = predicate_match_cost(CostParameters())
    calibrated_params = calibrate(seed=seed)
    calibrated = predicate_match_cost(calibrated_params)
    measured = measured_match_cost_ms(seed=seed)
    return {
        "paper": paper,
        "calibrated_params": calibrated_params,
        "calibrated": calibrated,
        "measured_ms": measured,
    }


def print_cost_model(result: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    result = result if result is not None else run_cost_model()
    paper = result["paper"]
    calibrated = result["calibrated"]
    rows = [
        ["hash", paper.hash_ms, calibrated.hash_ms],
        ["tree searches", paper.tree_search_ms, calibrated.tree_search_ms],
        ["non-indexable", paper.non_indexable_ms, calibrated.non_indexable_ms],
        ["index probe", paper.index_probe_ms, calibrated.index_probe_ms],
        ["residual tests", paper.residual_ms, calibrated.residual_ms],
        ["total", paper.total_ms, calibrated.total_ms],
    ]
    print_experiment(
        "COST: Section 5.2 per-tuple matching cost (milliseconds)",
        ["component", "paper constants", "this machine"],
        rows,
        note=(
            f"paper total ~2.1 msec on a SPARCstation 1; "
            f"directly measured matcher here: {result['measured_ms']:.4f} msec/tuple"
        ),
    )
    return result


# ----------------------------------------------------------------------
# SPACE — Section 5.1 marker counts
# ----------------------------------------------------------------------


def run_space(
    ns: Sequence[int] = (100, 200, 400, 800, 1600),
    seed: int = 5,
) -> List[Dict[str, Any]]:
    """Marker counts: overlapping random intervals vs disjoint intervals.

    Section 5.1: each interval places O(log N) markers for an
    O(N log N) worst case, but "when intervals in the tree do not
    overlap, only O(N) markers are placed in the tree".
    """
    rows: List[Dict[str, Any]] = []
    ibs_factory = DEFAULT_REGISTRY.tree_factory("ibs")
    for n in ns:
        workload = IntervalWorkload(point_fraction=0.0, seed=seed)
        random_tree = ibs_factory()
        for k, interval in enumerate(workload.intervals(n)):
            random_tree.insert(interval, k)
        disjoint_tree = ibs_factory()
        for k, interval in enumerate(workload.disjoint_intervals(n)):
            disjoint_tree.insert(interval, k)
        rows.append(
            {
                "n": n,
                "overlapping_markers": random_tree.marker_count,
                "overlapping_per_interval": random_tree.marker_count / n,
                "disjoint_markers": disjoint_tree.marker_count,
                "disjoint_per_interval": disjoint_tree.marker_count / n,
                "log2_n": math.log2(n),
            }
        )
    return rows


def print_space(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_space()
    print_experiment(
        "SPACE: IBS-tree marker counts (Section 5.1 space analysis)",
        ["N", "overlap markers", "/interval", "disjoint markers", "/interval", "log2 N"],
        [
            [
                row["n"],
                row["overlapping_markers"],
                row["overlapping_per_interval"],
                row["disjoint_markers"],
                row["disjoint_per_interval"],
                row["log2_n"],
            ]
            for row in rows
        ],
        note="expected: overlapping ~ N log N (per-interval ~ log N); disjoint ~ N",
    )
    return rows


# ----------------------------------------------------------------------
# ABL1 — dynamic interval index ablation (Section 6 future work)
# ----------------------------------------------------------------------


def run_ablation_indexes(
    n: int = 500,
    queries: int = 1_000,
    deletes: int = 100,
    seed: int = 6,
) -> List[Dict[str, Any]]:
    """Insert/search/delete cost per interval-index structure.

    Uses closed intervals only, so every structure answers queries
    exactly.  Static structures (segment tree, interval tree) are
    charged a full rebuild per modification — the cost of using them
    in the paper's dynamic rule environment.
    """
    workload = IntervalWorkload(point_fraction=0.3, seed=seed)
    intervals = list(enumerate(workload.intervals(n)))
    points = workload.query_points(queries)
    delete_idents = [k for k, _ in intervals[:deletes]]
    rows: List[Dict[str, Any]] = []

    dynamic_factories: List[Tuple[str, Callable[[], Any]]] = [
        ("list", DEFAULT_REGISTRY.tree_factory("interval-list")),
        ("ibs", DEFAULT_REGISTRY.tree_factory("ibs")),
        ("ibs-avl", DEFAULT_REGISTRY.tree_factory("avl")),
        ("ibs-rb", DEFAULT_REGISTRY.tree_factory("rb")),
        ("pst", DEFAULT_REGISTRY.tree_factory("pst")),
        ("rtree-1d", DEFAULT_REGISTRY.tree_factory("rtree-1d")),
        ("rplus-1d", DEFAULT_REGISTRY.tree_factory("rplus")),
    ]
    for name, factory in dynamic_factories:
        index = factory()
        start = time.perf_counter()
        for ident, interval in intervals:
            index.insert(interval, ident)
        insert_us = (time.perf_counter() - start) / n * 1e6
        start = time.perf_counter()
        for x in points:
            index.stab(x)
        search_us = (time.perf_counter() - start) / queries * 1e6
        start = time.perf_counter()
        for ident in delete_idents:
            index.delete(ident)
        delete_us = (time.perf_counter() - start) / deletes * 1e6
        rows.append(
            {
                "structure": name,
                "dynamic": True,
                "insert_us": insert_us,
                "search_us": search_us,
                "delete_us": delete_us,
            }
        )

    static_builders: List[Tuple[str, Callable[[Iterable], Any]]] = [
        ("segment", DEFAULT_REGISTRY.tree_factory("segment")),
        ("interval", DEFAULT_REGISTRY.tree_factory("static-interval")),
    ]
    items = [(interval, ident) for ident, interval in intervals]
    for name, builder in static_builders:
        start = time.perf_counter()
        index = builder(items)
        build_us = (time.perf_counter() - start) / n * 1e6
        start = time.perf_counter()
        for x in points:
            index.stab(x)
        search_us = (time.perf_counter() - start) / queries * 1e6
        # a "dynamic" modification costs a full rebuild
        start = time.perf_counter()
        rebuilds = 5
        for _ in range(rebuilds):
            builder(items)
        rebuild_us = (time.perf_counter() - start) / rebuilds * 1e6
        rows.append(
            {
                "structure": name,
                "dynamic": False,
                "insert_us": rebuild_us,  # cost to admit one new interval
                "search_us": search_us,
                "delete_us": rebuild_us,
                "build_us_per_interval": build_us,
            }
        )
    return rows


def print_ablation_indexes(
    rows: Optional[List[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_ablation_indexes()
    print_experiment(
        "ABL1: interval index ablation (microseconds/op, N=500)",
        ["structure", "dynamic", "insert", "search", "delete"],
        [
            [
                row["structure"],
                "yes" if row["dynamic"] else "no (rebuild)",
                row["insert_us"],
                row["search_us"],
                row["delete_us"],
            ]
            for row in rows
        ],
        note="static structures pay a full rebuild for any modification",
    )
    return rows


# ----------------------------------------------------------------------
# ABL2 — balancing ablation
# ----------------------------------------------------------------------


def run_ablation_balancing(
    n: int = 800,
    queries: int = 500,
    seed: int = 11,
) -> List[Dict[str, Any]]:
    """Sorted insertion order: unbalanced IBS-tree vs AVL variant.

    Sorted endpoint order is the worst case for an unbalanced BST
    (height ~ N); the AVL variant's rotations with the Figure 6 marker
    rewrites keep the height logarithmic.
    """
    import sys

    workload = IntervalWorkload(point_fraction=0.0, seed=seed)
    intervals = sorted(workload.intervals(n), key=lambda iv: (iv.low, iv.high))
    points = workload.query_points(queries)
    rows: List[Dict[str, Any]] = []
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 100))
    try:
        for name, factory in (
            ("ibs (unbalanced)", DEFAULT_REGISTRY.tree_factory("ibs")),
            ("ibs-avl", DEFAULT_REGISTRY.tree_factory("avl")),
            ("ibs-rb", DEFAULT_REGISTRY.tree_factory("rb")),
        ):
            tree = factory()
            start = time.perf_counter()
            for k, interval in enumerate(intervals):
                tree.insert(interval, k)
            insert_us = (time.perf_counter() - start) / n * 1e6
            start = time.perf_counter()
            for x in points:
                tree.stab(x)
            search_us = (time.perf_counter() - start) / queries * 1e6
            rows.append(
                {
                    "structure": name,
                    "height": tree.height,
                    "insert_us": insert_us,
                    "search_us": search_us,
                    "markers": tree.marker_count,
                }
            )
    finally:
        sys.setrecursionlimit(old_limit)
    return rows


def print_ablation_balancing(
    rows: Optional[List[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_ablation_balancing()
    print_experiment(
        "ABL2: sorted insertion order, unbalanced vs AVL (N=800)",
        ["structure", "height", "insert us", "search us", "markers"],
        [
            [row["structure"], row["height"], row["insert_us"], row["search_us"], row["markers"]]
            for row in rows
        ],
        note="unbalanced height degenerates toward N; AVL stays ~1.44 log2 N",
    )
    return rows


# ----------------------------------------------------------------------
# ABL3 — selectivity-estimator ablation
# ----------------------------------------------------------------------


def run_ablation_selectivity(
    predicates: int = 200,
    tuples: int = 300,
    rows: int = 2_000,
    seed: int = 21,
) -> List[Dict[str, Any]]:
    """Entry-clause choice: System R constants vs data-driven statistics.

    The paper places each predicate's *most selective* clause in the
    IBS-tree, "selectivity estimates ... obtained from the query
    optimizer".  This ablation shows why the optimizer matters: on a
    skewed domain, shape-based constants pick an equality clause that
    actually matches almost everything (``status = "active"`` when 95%
    of rows are active), flooding the residual test; data-driven
    statistics pick the genuinely selective range clause instead.
    """
    import random

    from ..core.selectivity import DefaultEstimator, StatisticsEstimator
    from ..db.database import Database
    from ..predicates.clauses import EqualityClause, IntervalClause
    from ..predicates.predicate import Predicate

    rng = random.Random(seed)
    db = Database()
    db.create_relation("log", ["status", "value"])
    for _ in range(rows):
        db.insert(
            "log",
            {
                "status": "active" if rng.random() < 0.95 else "closed",
                "value": rng.randint(1, 10_000),
            },
        )

    def build_predicates() -> List[Predicate]:
        generator = random.Random(seed + 1)
        built = []
        for _ in range(predicates):
            start = generator.randint(1, 9_000)
            built.append(
                Predicate(
                    "log",
                    [
                        EqualityClause("status", "active"),
                        IntervalClause(
                            "value", Interval.closed(start, start + 999)
                        ),
                    ],
                )
            )
        return built

    batch = [
        {
            "status": "active" if rng.random() < 0.95 else "closed",
            "value": rng.randint(1, 10_000),
        }
        for _ in range(tuples)
    ]

    results: List[Dict[str, Any]] = []
    for name, estimator in (
        ("default constants", DefaultEstimator()),
        ("statistics", StatisticsEstimator(db)),
    ):
        index = DEFAULT_REGISTRY.create_matcher("ibs", estimator=estimator)
        for predicate in build_predicates():
            index.add(predicate)
        index.stats.reset()
        start = time.perf_counter()
        for tup in batch:
            index.match("log", tup)
        elapsed = time.perf_counter() - start
        layout = index.describe()["log"]["trees"]
        results.append(
            {
                "estimator": name,
                "partials_per_tuple": index.stats.partial_matches / tuples,
                "match_us": elapsed / tuples * 1e6,
                "status_tree": layout.get("status", 0),
                "value_tree": layout.get("value", 0),
            }
        )
    return results


def print_ablation_selectivity(
    rows: Optional[List[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_ablation_selectivity()
    print_experiment(
        "ABL3: entry-clause selectivity estimation (skewed data)",
        ["estimator", "partials/tuple", "match us", "status-tree preds", "value-tree preds"],
        [
            [
                row["estimator"],
                row["partials_per_tuple"],
                row["match_us"],
                row["status_tree"],
                row["value_tree"],
            ]
            for row in rows
        ],
        note="data-driven estimates avoid indexing the 95%-selectivity equality clause",
    )
    return rows


# ----------------------------------------------------------------------
# ABL4 — single vs multi-clause indexing
# ----------------------------------------------------------------------


def run_ablation_multiclause(
    predicates: int = 400,
    tuples: int = 300,
    seed: int = 23,
) -> List[Dict[str, Any]]:
    """The paper's one-clause-per-predicate choice vs indexing them all.

    Indexing every clause and intersecting prunes candidates harder
    (fewer residual tests) but probes more trees and stores more
    markers.  On the Section 5.2 scenario (2 clauses of equal
    selectivity per predicate) this quantifies the trade-off behind
    the paper's design.
    """
    config = ScenarioConfig(predicates_per_relation=predicates, seed=seed)
    rows: List[Dict[str, Any]] = []
    for name, multi in (("single (paper)", False), ("multi-clause", True)):
        workload = ScenarioWorkload(config)
        index = DEFAULT_REGISTRY.create_matcher("ibs", multi_clause=multi)
        for predicate in workload.predicates()["r0"]:
            index.add(predicate)
        markers = sum(
            tree.marker_count
            for tree in index._relations["r0"].trees.values()
        )
        batch = workload.tuples(tuples)
        index.stats.reset()
        start = time.perf_counter()
        for tup in batch:
            index.match("r0", tup)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "scheme": name,
                "partials_per_tuple": index.stats.partial_matches / tuples,
                "full_matches_per_tuple": index.stats.full_matches / tuples,
                "match_us": elapsed / tuples * 1e6,
                "markers": markers,
            }
        )
    return rows


def print_ablation_multiclause(
    rows: Optional[List[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_ablation_multiclause()
    print_experiment(
        "ABL4: one indexed clause per predicate (paper) vs all clauses",
        ["scheme", "partials/tuple", "matches/tuple", "match us", "markers"],
        [
            [
                row["scheme"],
                row["partials_per_tuple"],
                row["full_matches_per_tuple"],
                row["match_us"],
                row["markers"],
            ]
            for row in rows
        ],
        note="intersection prunes candidates but probes more trees and doubles markers",
    )
    return rows


# ----------------------------------------------------------------------
# E2E — matcher throughput vs predicate count
# ----------------------------------------------------------------------

E2E_STRATEGIES: Tuple[str, ...] = ("ibs", "hash", "sequential", "locking", "rtree")


def _make_matcher(strategy: str, workload: ScenarioWorkload) -> Any:
    return DEFAULT_REGISTRY.create_matcher(
        strategy,
        indexed_attributes={
            rel: set(workload.predicate_attributes)
            for rel in workload.relation_names
        },
    )


def run_e2e(
    predicate_counts: Sequence[int] = (50, 100, 200, 400, 800),
    strategies: Sequence[str] = E2E_STRATEGIES,
    tuples: int = 200,
    seed: int = 12,
) -> List[Dict[str, Any]]:
    """Per-tuple matching time for each strategy at each predicate count.

    One relation, the Section 5.2 scenario shape.  All strategies are
    first checked for agreement on a sample tuple batch, then timed.
    """
    rows: List[Dict[str, Any]] = []
    for count in predicate_counts:
        config = ScenarioConfig(predicates_per_relation=count, seed=seed)
        workload = ScenarioWorkload(config)
        predicates = workload.predicates()["r0"]
        batch = workload.tuples(tuples)
        row: Dict[str, Any] = {"predicates": count}
        reference: Optional[List[set]] = None
        for strategy in strategies:
            matcher = _make_matcher(strategy, workload)
            for predicate in predicates:
                matcher.add(predicate)
            answers = [
                {p.ident for p in matcher.match("r0", tup)} for tup in batch[:20]
            ]
            if reference is None:
                reference = answers
            elif answers != reference:
                raise AssertionError(
                    f"strategy {strategy!r} disagrees with reference matcher"
                )
            start = time.perf_counter()
            for tup in batch:
                matcher.match("r0", tup)
            row[strategy] = (time.perf_counter() - start) / tuples * 1e6
        rows.append(row)
    return rows


def print_e2e(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_e2e()
    strategies = [key for key in rows[0] if key != "predicates"]
    print_experiment(
        "E2E: per-tuple matching time by strategy (microseconds/tuple)",
        ["predicates"] + strategies,
        [[row["predicates"]] + [row[s] for s in strategies] for row in rows],
        note="scenario: 15 attributes, 2 clauses/predicate, 90% indexable, sel=0.1",
    )
    return rows


# ----------------------------------------------------------------------
# BATCH — single-tuple vs batched matching throughput
# ----------------------------------------------------------------------

BATCH_CONFIGURATIONS: Tuple[Tuple[str, str], ...] = (
    ("ibs", "single"),
    ("ibs", "batch"),
    ("flat", "single"),
    ("flat", "batch"),
    ("columnar", "single"),
    ("columnar", "batch"),
)


def run_batch(
    predicates: int = 10_000,
    batch_size: int = 1_000,
    repeats: int = 3,
    seed: int = 12,
) -> List[Dict[str, Any]]:
    """Batched-matching throughput against the per-tuple baseline.

    Builds the Section 5.2 scenario at *predicates* predicates and
    measures tuples/second for six configurations: per-tuple
    :meth:`PredicateIndex.match` and whole-batch
    :meth:`PredicateIndex.match_batch`, each over the nested
    ``IBSTree``, the flat array-backed ``FlatIBSTree`` backend, and
    the ``columnar`` matcher (flat trees plus the vectorized NumPy
    batch plane; its single-tuple row shows that the plane only pays
    off on batches).  Without NumPy the columnar rows silently measure
    the scalar fallback, so the runner works from a bare install.
    Every configuration is checked for agreement with the per-tuple
    reference on a sample before timing; each timing keeps the best of
    *repeats* runs after one warm-up pass (the warm-up compiles the
    residual evaluators and fills the flat backend's decode cache, the
    steady state a rule engine runs in).

    ``speedup`` is relative to the first configuration (per-tuple
    matching over ``IBSTree`` — the paper's design point).
    """
    config = ScenarioConfig(predicates_per_relation=predicates, seed=seed)
    workload = ScenarioWorkload(config)
    predicate_list = workload.predicates()["r0"]
    batch = workload.tuples(batch_size)
    indexes: Dict[str, PredicateIndex] = {
        "ibs": DEFAULT_REGISTRY.create_matcher("ibs"),
        "flat": DEFAULT_REGISTRY.create_matcher("ibs-flat"),
        "columnar": DEFAULT_REGISTRY.create_matcher("columnar"),
    }
    for index in indexes.values():
        for predicate in predicate_list:
            index.add(predicate)
    sample = batch[: min(20, batch_size)]
    reference = [{p.ident for p in indexes["ibs"].match("r0", tup)} for tup in sample]
    for backend, index in indexes.items():
        answers = [{p.ident for p in row} for row in index.match_batch("r0", sample)]
        if answers != reference:
            raise AssertionError(
                f"match_batch over {backend!r} disagrees with per-tuple match"
            )
    rows: List[Dict[str, Any]] = []
    baseline: Optional[float] = None
    for backend, mode in BATCH_CONFIGURATIONS:
        index = indexes[backend]
        if mode == "single":

            def work(idx: PredicateIndex = index) -> None:
                for tup in batch:
                    idx.match("r0", tup)

        else:

            def work(idx: PredicateIndex = index) -> None:
                idx.match_batch("r0", batch)

        work()  # warm-up
        elapsed = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            work()
            elapsed = min(elapsed, time.perf_counter() - start)
        throughput = batch_size / elapsed
        if baseline is None:
            baseline = throughput
        rows.append(
            {
                "backend": backend,
                "mode": mode,
                "us_per_tuple": elapsed / batch_size * 1e6,
                "tuples_per_s": throughput,
                "speedup": throughput / baseline,
            }
        )
    return rows


def print_batch(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_batch()
    print_experiment(
        "BATCH: single-tuple vs batched matching throughput",
        ["backend", "mode", "us_per_tuple", "tuples_per_s", "speedup"],
        [
            [row["backend"], row["mode"], row["us_per_tuple"],
             row["tuples_per_s"], row["speedup"]]
            for row in rows
        ],
        note="speedup is relative to per-tuple match over IBSTree",
    )
    return rows


# ----------------------------------------------------------------------
# REBUILD — bulk_load vs incremental construction
# ----------------------------------------------------------------------


REBUILD_BACKENDS: Tuple[Tuple[str, Any], ...] = (
    ("ibs", DEFAULT_REGISTRY.tree_factory("ibs")),
    ("avl", DEFAULT_REGISTRY.tree_factory("avl")),
    ("rb", DEFAULT_REGISTRY.tree_factory("rb")),
    ("flat", DEFAULT_REGISTRY.tree_factory("flat")),
)


def run_rebuild(
    intervals: int = 10_000,
    repeats: int = 3,
    seed: int = 21,
    point_fraction: float = 0.5,
) -> List[Dict[str, Any]]:
    """Bulk loading vs N incremental inserts, per tree backend and order.

    Generates *intervals* Figure-7-style intervals and builds each
    backend incrementally and with :meth:`bulk_load` (best of
    *repeats*), in two insertion orders:

    * ``shuffled`` — the workload's random arrival order, the friendly
      case for incremental insertion;
    * ``sorted`` — ascending endpoint order, which is how a rebuild or
      recovery scan actually feeds a tree (the PREDICATES table and
      snapshots are read in key order).  Sorted arrival is the
      degenerate case for the plain BST (it builds a path) and the
      rotation-heavy case for the balanced variants, while
      :meth:`bulk_load` is order-insensitive.

    The two trees are verified to give identical stab answers on a
    sample of endpoints before reporting.  ``speedup`` is incremental
    build time over bulk build time for the same backend and order —
    the factor :meth:`PredicateIndex.verify_and_rebuild` and journal
    recovery gain from the O(N) path.
    """
    workload = IntervalWorkload(point_fraction=point_fraction, seed=seed)
    shuffled = [
        (interval, i) for i, interval in enumerate(workload.intervals(intervals))
    ]
    orders = (
        ("shuffled", shuffled),
        ("sorted", sorted(shuffled, key=lambda p: (p[0].low, p[0].high))),
    )
    rows: List[Dict[str, Any]] = []
    for name, factory in REBUILD_BACKENDS:
        for order, items in orders:
            incremental = factory()
            start = time.perf_counter()
            for interval, ident in items:
                incremental.insert(interval, ident)
            incremental_s = time.perf_counter() - start
            bulk_s = math.inf
            bulk = None
            for _ in range(repeats):
                tree = factory()
                start = time.perf_counter()
                tree.bulk_load(items)
                bulk_s = min(bulk_s, time.perf_counter() - start)
                bulk = tree
            for interval, _ in items[: min(50, intervals)]:
                if bulk.stab(interval.low) != incremental.stab(interval.low):
                    raise AssertionError(
                        f"bulk_load over {name!r} disagrees with incremental inserts"
                    )
            rows.append(
                {
                    "backend": name,
                    "order": order,
                    "intervals": intervals,
                    "incremental_ms": incremental_s * 1e3,
                    "bulk_ms": bulk_s * 1e3,
                    "speedup": incremental_s / bulk_s,
                }
            )
    return rows


def print_rebuild(rows: Optional[List[Dict[str, Any]]] = None) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_rebuild()
    print_experiment(
        "REBUILD: incremental insert vs O(N) bulk_load",
        ["backend", "order", "intervals", "incremental_ms", "bulk_ms", "speedup"],
        [
            [row["backend"], row["order"], row["intervals"], row["incremental_ms"],
             row["bulk_ms"], row["speedup"]]
            for row in rows
        ],
        note="speedup is incremental build time / bulk_load time, same backend+order",
    )
    return rows


# ----------------------------------------------------------------------
# COLDSTART — disk-tier segment attach vs journal-style re-registration
# ----------------------------------------------------------------------


def run_coldstart(
    predicates: int = 5_000,
    probes: int = 100,
    seed: int = 33,
    repeats: int = 3,
) -> List[Dict[str, Any]]:
    """Time-to-first-answer after a restart, per recovery path.

    Builds one disk-tier index (``predicates`` single-clause interval
    predicates across four relations), checkpoints it, then measures —
    best of *repeats* — how long a fresh process-equivalent takes to be
    *answering queries*:

    * ``segments`` — :func:`repro.disk.load_index`: attach the mmap'd
      segment files cold and serve *probes* stabs straight off them;
      predicate records are loaded, but no tree is ever rebuilt;
    * ``journal-replay`` — what a journal-only recovery does: parse
      every CRC'd journal line, decode its predicate record, and re-add
      it through the normal write path (each add is a tree insert),
      then run the same probes.

    ``coldstart_s`` is the whole span, probe workload included, so the
    lazy path cannot cheat by deferring all decode work past the timer.
    ``speedup`` is relative to ``journal-replay``.
    """
    import shutil
    import tempfile

    from ..db.persistence import read_journal, write_checksummed_lines
    from ..disk.checkpoint import (
        load_index,
        predicate_from_dict,
        predicate_to_dict,
        save_index,
    )

    rng = random.Random(seed)
    relations = [f"rel{i}" for i in range(4)]
    preds: List[Predicate] = []
    for i in range(predicates):
        low = rng.uniform(-1000, 1000)
        preds.append(
            Predicate(
                relations[i % len(relations)],
                [IntervalClause("x", Interval.closed(low, low + rng.uniform(0, 20)))],
                ident=i,
            )
        )
    probe_tuples = [{"x": rng.uniform(-1000, 1000)} for _ in range(probes)]

    data_dir = tempfile.mkdtemp(prefix="repro-coldstart-")
    try:
        source = PredicateIndex(storage="disk", data_dir=data_dir)
        for pred in preds:
            source.add(pred)
        save_index(source)
        # the journal a checkpoint-free run would have left behind
        journal_path = os.path.join(data_dir, "coldstart-journal.log")
        write_checksummed_lines(
            journal_path,
            [{"op": "add", "pred": predicate_to_dict(p)} for p in preds],
        )

        def probe(index: PredicateIndex) -> List[frozenset]:
            # collecting ident sets keeps both paths honest (same work)
            # and feeds the differential check below
            return [
                frozenset(p.ident for p in index.match(relation, tup))
                for relation in relations
                for tup in probe_tuples
            ]

        segments_s = math.inf
        segments_answers: List[frozenset] = []
        for _ in range(repeats):
            start = time.perf_counter()
            index = load_index(data_dir)
            segments_answers = probe(index)
            segments_s = min(segments_s, time.perf_counter() - start)

        replay_s = math.inf
        replay_answers: List[frozenset] = []
        for _ in range(repeats):
            start = time.perf_counter()
            index = PredicateIndex()
            for op in read_journal(journal_path):
                index.add(predicate_from_dict(op["pred"]))
            replay_answers = probe(index)
            replay_s = min(replay_s, time.perf_counter() - start)

        if segments_answers != replay_answers:
            raise AssertionError(
                "cold-start recovery paths disagree: segment attach and "
                "journal replay produced different match sets"
            )
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    return [
        {
            "path": "journal-replay",
            "predicates": predicates,
            "coldstart_s": replay_s,
            "speedup": 1.0,
        },
        {
            "path": "segments",
            "predicates": predicates,
            "coldstart_s": segments_s,
            "speedup": replay_s / segments_s,
        },
    ]


def print_coldstart(
    rows: Optional[List[Dict[str, Any]]] = None
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_coldstart()
    print_experiment(
        "COLDSTART: disk-tier segment attach vs journal-style replay",
        ["path", "predicates", "coldstart_s", "speedup"],
        [
            [row["path"], row["predicates"], row["coldstart_s"], row["speedup"]]
            for row in rows
        ],
        note="speedup is relative to re-adding every predicate (journal replay)",
    )
    return rows


# ----------------------------------------------------------------------
# STAB CACHE — epoch-versioned caching on a duplicate-heavy stream
# ----------------------------------------------------------------------


def _zipf_values(distinct: int, count: int, seed: int) -> List[int]:
    """A Zipf(1)-weighted stream over *distinct* values of a huge domain."""
    rng = random.Random(seed)
    universe = [rng.randint(1, 1_000_000) for _ in range(distinct)]
    weights = [1.0 / rank for rank in range(1, distinct + 1)]
    return rng.choices(universe, weights=weights, k=count)


def run_stab_cache(
    predicates: int = 10_000,
    tuples: int = 10_000,
    distinct_values: int = 256,
    cache_size: int = 4_096,
    repeats: int = 3,
    seed: int = 33,
) -> List[Dict[str, Any]]:
    """Match throughput with and without the epoch-versioned stab cache.

    The workload is the cache's design case: a duplicate-heavy stream
    (Zipf-weighted draws from a small set of distinct values) against
    many narrow single-clause predicates over one attribute, so the
    IBS-tree stab dominates each match and repeated values pay it
    again.  Both configurations are verified to give identical answers
    on a sample before timing; ``speedup`` is relative to the
    cache-off row.
    """
    rng = random.Random(seed)
    predicate_list = [
        Predicate(
            "r",
            [IntervalClause("x", Interval.closed(low, low + rng.randint(0, 50)))],
            ident=i,
        )
        for i, low in enumerate(
            rng.randint(1, 1_000_000) for _ in range(predicates)
        )
    ]
    stream = [{"x": value} for value in _zipf_values(distinct_values, tuples, seed)]
    indexes: Dict[str, PredicateIndex] = {
        "off": DEFAULT_REGISTRY.create_matcher("ibs"),
        "on": DEFAULT_REGISTRY.create_matcher("ibs", stab_cache_size=cache_size),
    }
    for index in indexes.values():
        index.add_many(predicate_list)
    sample = stream[:50]
    reference = [{p.ident for p in indexes["off"].match("r", tup)} for tup in sample]
    answers = [{p.ident for p in indexes["on"].match("r", tup)} for tup in sample]
    if answers != reference:
        raise AssertionError("cached matching disagrees with uncached matching")
    rows: List[Dict[str, Any]] = []
    baseline: Optional[float] = None
    for label, index in indexes.items():
        def work(idx: PredicateIndex = index) -> None:
            for tup in stream:
                idx.match("r", tup)

        work()  # warm-up fills the cache: steady-state behaviour
        elapsed = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            work()
            elapsed = min(elapsed, time.perf_counter() - start)
        throughput = tuples / elapsed
        if baseline is None:
            baseline = throughput
        rows.append(
            {
                "cache": label,
                "us_per_tuple": elapsed / tuples * 1e6,
                "tuples_per_s": throughput,
                "cache_hits": index.stats.stab_cache_hits,
                "speedup": throughput / baseline,
            }
        )
    return rows


def print_stab_cache(
    rows: Optional[List[Dict[str, Any]]] = None
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_stab_cache()
    print_experiment(
        "STAB CACHE: duplicate-heavy Zipf stream, cache off vs on",
        ["cache", "us_per_tuple", "tuples_per_s", "cache_hits", "speedup"],
        [
            [row["cache"], row["us_per_tuple"], row["tuples_per_s"],
             row["cache_hits"], row["speedup"]]
            for row in rows
        ],
        note="speedup is relative to the cache-off configuration",
    )
    return rows


# ----------------------------------------------------------------------
# CONCURRENCY — epoch-snapshot facade vs mutable index, mixed read/write
# ----------------------------------------------------------------------


def run_concurrency(
    predicates: int = 10_000,
    distinct_values: int = 2_000,
    batch_size: int = 500,
    rounds: int = 20,
    cache_size: int = 8_192,
    repeats: int = 3,
    seed: int = 47,
) -> List[Dict[str, Any]]:
    """Mixed read/write matching: mutable index vs epoch snapshots.

    The workload interleaves writes with batched matching — each round
    adds a predicate, matches a *batch_size*-tuple batch, then removes
    the predicate — over *predicates* single-clause predicates split
    across two attributes, with batch values drawn from a pool of
    *distinct_values* per attribute so values repeat **across** rounds
    (the steady state of a rule engine fed a stream of similar tuples).

    Both configurations are answer-checked against the mutable index
    before timing:

    * ``serial`` / ``none`` — one mutable :class:`PredicateIndex` with
      the stab cache on.  Every write bumps a tree epoch, so the
      cross-round value repetition never pays off: each batch re-stabs
      all its values.
    * ``snapshot`` / ``inline`` — :class:`ConcurrentPredicateIndex`.
      Writes build a small overlay; the frozen base's trees never bump
      their epochs, so its stab cache stays warm across writes and
      steady-state batches skip the tree entirely.

    Both rows run on one thread, so the snapshot row's speedup over
    ``serial`` is the snapshot design's *write isolation* (cache
    retention), not parallelism.  ``speedup`` is relative to the
    ``serial`` row.
    """
    rng = random.Random(seed)
    attributes = ("x", "y")
    predicate_list = []
    for i in range(predicates):
        attribute = attributes[i % len(attributes)]
        low = rng.randint(1, 1_000_000)
        predicate_list.append(
            Predicate(
                "r",
                [IntervalClause(attribute, Interval.closed(low, low + rng.randint(0, 50)))],
                ident=i,
            )
        )
    pools = {
        attribute: [rng.randint(1, 1_000_000) for _ in range(distinct_values)]
        for attribute in attributes
    }
    batches = []
    for _ in range(rounds):
        columns = {
            attribute: rng.sample(pool, min(batch_size, len(pool)))
            for attribute, pool in pools.items()
        }
        batches.append(
            [
                {attribute: columns[attribute][j] for attribute in attributes}
                for j in range(min(batch_size, distinct_values))
            ]
        )
    write_preds = [
        Predicate(
            "r",
            [IntervalClause(rng.choice(attributes), Interval.closed(low, low + 50))],
            ident=f"bench-w{i}",
        )
        for i, low in enumerate(
            rng.randint(1, 1_000_000) for _ in range(rounds)
        )
    ]

    def mixed_rounds(index: Any) -> None:
        for i, batch in enumerate(batches):
            index.add(write_preds[i])
            index.match_batch("r", batch)
            index.remove(write_preds[i].ident)

    serial = DEFAULT_REGISTRY.create_matcher(
        "ibs", tree_factory="flat", stab_cache_size=cache_size
    )
    serial.add_many(predicate_list)
    sample = batches[0][:20]
    reference = [{p.ident for p in serial.match("r", tup)} for tup in sample]

    def build_facade() -> Any:
        facade = DEFAULT_REGISTRY.create_matcher(
            "ibs-concurrent", tree_factory="flat", snapshot_cache_size=cache_size
        )
        facade.add_many(predicate_list)
        answers = [{p.ident for p in row} for row in facade.match_batch("r", sample)]
        if answers != reference:
            raise AssertionError("concurrent facade disagrees with the mutable index")
        return facade

    total = sum(len(batch) for batch in batches)
    rows: List[Dict[str, Any]] = []
    baseline: Optional[float] = None
    for mode, pool_kind in (("serial", "none"), ("snapshot", "inline")):
        index = serial if mode == "serial" else build_facade()
        mixed_rounds(index)  # warm-up: steady-state caches
        elapsed = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            mixed_rounds(index)
            elapsed = min(elapsed, time.perf_counter() - start)
        throughput = total / elapsed
        if baseline is None:
            baseline = throughput
        rows.append(
            {
                "mode": mode,
                "pool": pool_kind,
                "us_per_tuple": elapsed / total * 1e6,
                "tuples_per_s": throughput,
                "speedup": throughput / baseline,
            }
        )
    return rows


def print_concurrency(
    rows: Optional[List[Dict[str, Any]]] = None
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_concurrency()
    print_experiment(
        "CONCURRENCY: mutable index vs epoch snapshots, mixed read/write",
        ["mode", "pool", "us_per_tuple", "tuples_per_s", "speedup"],
        [
            [row["mode"], row["pool"], row["us_per_tuple"],
             row["tuples_per_s"], row["speedup"]]
            for row in rows
        ],
        note="speedup vs the mutable serial index; both run on one thread, "
             "so the gain is snapshot cache retention, not parallelism",
    )
    return rows


# ----------------------------------------------------------------------
# MAINT — the unified maintenance plane's hot-path cost
# ----------------------------------------------------------------------


def run_maintenance(
    predicates: int = 5_000,
    distinct_values: int = 1_000,
    batch_size: int = 400,
    rounds: int = 24,
    repeats: int = 3,
    seed: int = 53,
    checkpoint_every: int = 6,
) -> List[Dict[str, Any]]:
    """Price the maintenance plane against a scheduler-free index.

    Two questions, two row groups, one shared mixed workload (each
    round adds a predicate, matches a *batch_size*-tuple batch on an
    alternating relation, then removes the predicate):

    * **Tick overhead** — ``scheduler-off`` is a plain
      ``PredicateIndex``; ``scheduler-idle`` carries a
      ``MaintenancePolicy`` whose tasks never come due, so its extra
      cost is exactly the per-op clock tick and due-scan on the hot
      paths (the ≤5 % acceptance bar applies to this row);
      ``scheduler-active`` additionally runs real retune passes
      (``adaptive=True``), pricing maintenance *work*, not just the
      plane.
    * **Checkpoint pauses** — on the disk facade, ``ckpt-stop-world``
      runs a full ``DiskCheckpointer.checkpoint()`` inline every
      *checkpoint_every* rounds; ``ckpt-background`` lets the
      scheduler trigger the same checkpoints at the same op cadence
      but with ``budget_ops=1``, so each pass seals at most one shard
      and the remainder waits for the next due tick.  ``max_pause_ms``
      is the worst single-round wall time — the stall a caller would
      actually feel — and the background row's should sit well below
      the stop-the-world row's at full scale.

    Every configuration is answer-checked against ``scheduler-off`` on
    a sample before timing; ``overhead_pct`` is throughput loss vs the
    ``scheduler-off`` row (negative = faster, noise).
    """
    import shutil
    import tempfile

    from ..disk.checkpoint import DiskCheckpointer
    from ..maintenance import MaintenancePolicy

    rng = random.Random(seed)
    relations = ("emp", "dept")
    attributes = ("x", "y")
    predicate_list = []
    for i in range(predicates):
        attribute = attributes[i % len(attributes)]
        relation = relations[i % len(relations)]
        low = rng.randint(1, 1_000_000)
        predicate_list.append(
            Predicate(
                relation,
                [IntervalClause(attribute, Interval.closed(low, low + rng.randint(0, 50)))],
                ident=i,
            )
        )
    pools = {
        attribute: [rng.randint(1, 1_000_000) for _ in range(distinct_values)]
        for attribute in attributes
    }
    batches = []
    for _ in range(rounds):
        columns = {
            attribute: rng.sample(pool, min(batch_size, len(pool)))
            for attribute, pool in pools.items()
        }
        batches.append(
            [
                {attribute: columns[attribute][j] for attribute in attributes}
                for j in range(min(batch_size, distinct_values))
            ]
        )
    write_preds = [
        Predicate(
            relations[i % len(relations)],
            [IntervalClause(rng.choice(attributes), Interval.closed(low, low + 50))],
            ident=f"bench-m{i}",
        )
        for i, low in enumerate(
            rng.randint(1, 1_000_000) for _ in range(rounds)
        )
    ]
    total = sum(len(batch) for batch in batches)
    ops_per_round = batch_size + 2
    never = 10 ** 12  # an interval no bench-scale clock ever reaches

    def mixed_rounds(index: Any, checkpointer: Any = None) -> float:
        """Run the workload; returns the worst single-round seconds."""
        worst = 0.0
        for i, batch in enumerate(batches):
            relation = relations[i % len(relations)]
            start = time.perf_counter()
            index.add(write_preds[i])
            index.match_batch(relation, batch)
            index.remove(write_preds[i].ident)
            if checkpointer is not None and (i + 1) % checkpoint_every == 0:
                checkpointer.checkpoint()
            worst = max(worst, time.perf_counter() - start)
        return worst

    baseline_index = DEFAULT_REGISTRY.create_matcher("ibs", tree_factory="flat")
    baseline_index.add_many(predicate_list)
    sample = batches[0][:20]
    reference = {
        relation: [
            {p.ident for p in baseline_index.match(relation, tup)}
            for tup in sample
        ]
        for relation in relations
    }

    def check(index: Any, label: str) -> None:
        for relation in relations:
            answers = [
                {p.ident for p in row}
                for row in index.match_batch(relation, sample)
            ]
            if answers != reference[relation]:
                raise AssertionError(
                    f"maintenance bench: {label} disagrees with the "
                    f"scheduler-free index on {relation}"
                )

    rows: List[Dict[str, Any]] = []
    baseline: Optional[float] = None

    def time_config(
        mode: str, index: Any, checkpointer: Any = None
    ) -> Dict[str, Any]:
        nonlocal baseline
        check(index, mode)
        mixed_rounds(index, checkpointer)  # warm-up
        elapsed, worst = math.inf, 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            pause = mixed_rounds(index, checkpointer)
            took = time.perf_counter() - start
            if took < elapsed:
                elapsed, worst = took, pause
        throughput = total / elapsed
        if baseline is None:
            baseline = throughput
        row = {
            "mode": mode,
            "us_per_tuple": elapsed / total * 1e6,
            "tuples_per_s": throughput,
            "overhead_pct": (1.0 - throughput / baseline) * 100.0,
            "max_pause_ms": worst * 1e3,
        }
        rows.append(row)
        return row

    time_config("scheduler-off", baseline_index)

    idle = DEFAULT_REGISTRY.create_matcher(
        "ibs",
        tree_factory="flat",
        maintenance=MaintenancePolicy(retune_interval=never),
    )
    idle.add_many(predicate_list)
    time_config("scheduler-idle", idle)

    active = DEFAULT_REGISTRY.create_matcher(
        "ibs",
        tree_factory="flat",
        adaptive=True,
        min_feedback_tuples=64,
        maintenance=MaintenancePolicy(retune_interval=ops_per_round * 2),
    )
    active.add_many(predicate_list)
    time_config("scheduler-active", active)

    work_dir = tempfile.mkdtemp(prefix="bench-maint-")
    try:
        stop_world = DEFAULT_REGISTRY.create_matcher(
            "ibs-concurrent",
            storage="disk",
            data_dir=os.path.join(work_dir, "stop-world"),
        )
        stop_world.add_many(predicate_list)
        ck_stop = DiskCheckpointer(stop_world)
        try:
            time_config("ckpt-stop-world", stop_world, ck_stop)
        finally:
            ck_stop.close()

        background = DEFAULT_REGISTRY.create_matcher(
            "ibs-concurrent",
            storage="disk",
            data_dir=os.path.join(work_dir, "background"),
            maintenance=MaintenancePolicy(
                checkpoint_interval=ops_per_round * checkpoint_every,
                budget_ops=1,
            ),
        )
        background.add_many(predicate_list)
        ck_back = DiskCheckpointer(background)
        try:
            time_config("ckpt-background", background)
        finally:
            ck_back.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return rows


def print_maintenance(
    rows: Optional[List[Dict[str, Any]]] = None
) -> List[Dict[str, Any]]:
    rows = rows if rows is not None else run_maintenance()
    print_experiment(
        "MAINT: maintenance-plane overhead and checkpoint pauses",
        ["mode", "us_per_tuple", "tuples_per_s", "overhead_pct",
         "max_pause_ms"],
        [
            [row["mode"], row["us_per_tuple"], row["tuples_per_s"],
             row["overhead_pct"], row["max_pause_ms"]]
            for row in rows
        ],
        note="overhead_pct vs the scheduler-free index (idle row is the "
             "<=5% bar); ckpt rows run on the disk facade — stop-world "
             "checkpoints inline, background spreads the same cadence "
             "over budget_ops=1 scheduler slices",
    )
    return rows


# ----------------------------------------------------------------------


def main() -> None:
    """Run and print every experiment (used by ``python -m``)."""
    print_fig7()
    print_fig8()
    print_fig9()
    print_cost_model()
    print_space()
    print_ablation_indexes()
    print_ablation_balancing()
    print_ablation_selectivity()
    print_ablation_multiclause()
    print_e2e()
    print_batch()
    print_rebuild()
    print_coldstart()
    print_stab_cache()
    print_concurrency()
    print_maintenance()


if __name__ == "__main__":
    main()
