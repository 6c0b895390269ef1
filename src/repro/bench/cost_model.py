"""The closed-form cost model of the paper's Section 5.2.

The paper estimates the CPU time to find all predicates matching one
tuple under the Figure 1 scheme::

    cost = hash cost
         + (number of attributes searched) * (IBS-tree search cost)
         + (non-indexable predicate test cost)

with a residual pass testing each partially matched predicate in full.
Plugging in the paper's assumptions (SPARCstation 1 constants)::

    hash search cost              = 0.1  msec
    IBS search cost per attribute = 0.13 msec   (tree of ~40 predicates)
    sequential clause test        = 0.02 msec
    full predicate test           = 0.05 msec
    attributes per relation       = 15, one third carrying clauses -> 5 searched
    predicates per relation (N)   = 200, 90 % indexable
    clause selectivity            = 0.1  -> 20 residual tests

    index probe  = 0.1 + 5 * 0.13 + (1 - 0.9) * 0.02 * 200 = 1.15 msec
    residual     = 0.1 * 200 * 0.05                        = 1.0  msec
    total        =                                          ~2.1  msec

(The paper prints the probe as "1.1 msec" and the total as "2.1 msec";
the 0.05 msec difference is rounding in the paper's arithmetic.)

:func:`calibrate` re-derives the four machine constants on *this*
machine by direct measurement, so the same formula yields a prediction
comparable against the measured end-to-end matcher (the COST
experiment in EXPERIMENTS.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from ..match.registry import DEFAULT_REGISTRY
from ..workloads.generator import ScenarioConfig, ScenarioWorkload
from .timing import measure

__all__ = [
    "CostParameters",
    "CostBreakdown",
    "predicate_match_cost",
    "calibrate",
    "MIN_MEASURED_MS",
]

#: Floor for every measured cost constant, in milliseconds.
#: Timer quantisation (or an injected fake timer in tests) can report a
#: loop as taking zero time; a zero constant would make a backend look
#: free and poison every downstream ratio, so all measurements clamp
#: here instead.
MIN_MEASURED_MS = 1e-7


@dataclass(frozen=True)
class CostParameters:
    """Inputs to the Section 5.2 cost formula (paper defaults)."""

    #: per-operation CPU costs, in milliseconds
    hash_cost_ms: float = 0.1
    ibs_search_cost_ms: float = 0.13
    sequential_test_cost_ms: float = 0.02
    full_test_cost_ms: float = 0.05
    #: scenario shape
    attributes_per_relation: int = 15
    predicate_attr_fraction: float = 1.0 / 3.0
    predicates_per_relation: int = 200
    indexable_fraction: float = 0.9
    clause_selectivity: float = 0.1

    @property
    def attributes_searched(self) -> int:
        """Attribute trees probed per tuple (paper: 15 / 3 = 5)."""
        return max(
            1,
            round(self.attributes_per_relation * self.predicate_attr_fraction),
        )

    @property
    def non_indexable_count(self) -> float:
        """Predicates tested by brute force per tuple (paper: 20)."""
        return (1.0 - self.indexable_fraction) * self.predicates_per_relation

    @property
    def residual_tests(self) -> float:
        """Partial matches requiring a full test (paper: 0.1 * 200 = 20)."""
        return self.clause_selectivity * self.predicates_per_relation


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component costs (milliseconds) of matching one tuple."""

    hash_ms: float
    tree_search_ms: float
    non_indexable_ms: float
    residual_ms: float

    @property
    def index_probe_ms(self) -> float:
        """Cost of finding the partial matches (paper: ~1.1 msec)."""
        return self.hash_ms + self.tree_search_ms + self.non_indexable_ms

    @property
    def total_ms(self) -> float:
        """Total per-tuple matching cost (paper: ~2.1 msec)."""
        return self.index_probe_ms + self.residual_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "hash_ms": self.hash_ms,
            "tree_search_ms": self.tree_search_ms,
            "non_indexable_ms": self.non_indexable_ms,
            "index_probe_ms": self.index_probe_ms,
            "residual_ms": self.residual_ms,
            "total_ms": self.total_ms,
        }


def predicate_match_cost(params: Optional[CostParameters] = None) -> CostBreakdown:
    """Evaluate the Section 5.2 formula for the given parameters."""
    p = params or CostParameters()
    return CostBreakdown(
        hash_ms=p.hash_cost_ms,
        tree_search_ms=p.attributes_searched * p.ibs_search_cost_ms,
        non_indexable_ms=p.non_indexable_count * p.sequential_test_cost_ms,
        residual_ms=p.residual_tests * p.full_test_cost_ms,
    )


def calibrate(
    seed: int = 42,
    samples: int = 2_000,
    params: Optional[CostParameters] = None,
    timer: Callable[[], float] = time.perf_counter,
) -> CostParameters:
    """Measure this machine's constants for the four cost components.

    * hash cost — a dict probe on the relation name (amortised over a
      loop, as is the IBS search);
    * IBS search cost — stabbing a tree of ``N / attributes_searched``
      predicates, per the paper's "200/5 = 40 predicates per attribute";
    * sequential clause test — one interval containment check;
    * full predicate test — a two-clause conjunction evaluated against
      a tuple dict.

    Returns a :class:`CostParameters` with measured constants and the
    scenario shape copied from *params*.  Every constant is clamped to
    :data:`MIN_MEASURED_MS` so timer quantisation can never report a
    free operation.  *timer* is injectable so tests can calibrate
    deterministically.
    """
    p = params or CostParameters()
    rng = random.Random(seed)
    workload = ScenarioWorkload(
        ScenarioConfig(
            attributes_per_relation=p.attributes_per_relation,
            predicate_attr_fraction=p.predicate_attr_fraction,
            predicates_per_relation=p.predicates_per_relation,
            indexable_fraction=1.0,
            clause_selectivity=p.clause_selectivity,
            seed=seed,
        )
    )
    predicates = workload.predicates()["r0"]
    per_tree = max(1, p.predicates_per_relation // p.attributes_searched)

    # hash probe
    table = {f"r{k}": k for k in range(64)}
    start = timer()
    for _ in range(samples):
        table.get("r0")
    hash_ms = (timer() - start) / samples * 1e3

    # IBS search over a per-attribute-sized tree
    tree = DEFAULT_REGISTRY.tree_factory("ibs")()
    for k, predicate in enumerate(predicates[:per_tree]):
        clause = predicate.indexable_clauses()[0]
        tree.insert(clause.interval, k)
    queries = [rng.randint(1, 10_000) for _ in range(samples)]
    start = timer()
    for q in queries:
        tree.stab(q)
    ibs_ms = (timer() - start) / samples * 1e3

    # single-clause sequential test
    clause = predicates[0].indexable_clauses()[0]
    tup = workload.tuple()
    start = timer()
    for _ in range(samples):
        clause.matches(tup)
    seq_ms = (timer() - start) / samples * 1e3

    # full predicate test
    predicate = predicates[0]
    start = timer()
    for _ in range(samples):
        predicate.matches(tup)
    full_ms = (timer() - start) / samples * 1e3

    return replace(
        p,
        hash_cost_ms=max(hash_ms, MIN_MEASURED_MS),
        ibs_search_cost_ms=max(ibs_ms, MIN_MEASURED_MS),
        sequential_test_cost_ms=max(seq_ms, MIN_MEASURED_MS),
        full_test_cost_ms=max(full_ms, MIN_MEASURED_MS),
    )


def measured_match_cost_ms(seed: int = 42, tuples: int = 500) -> float:
    """Directly measure the full Figure 1 matcher on the paper scenario.

    Builds the Section 5.2 scenario (200 predicates, 15 attributes, 90 %
    indexable) and times :meth:`PredicateIndex.match` per tuple, in
    milliseconds — the observable the cost model predicts.
    """
    workload = ScenarioWorkload(ScenarioConfig(seed=seed))
    index = DEFAULT_REGISTRY.create_matcher("ibs")
    for predicate in workload.predicates()["r0"]:
        index.add(predicate)
    batch = workload.tuples(tuples)

    def match_all() -> None:
        for tup in batch:
            index.match("r0", tup)

    return measure(match_all).seconds / tuples * 1e3
