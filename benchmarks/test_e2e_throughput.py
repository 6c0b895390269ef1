"""E2E — end-to-end matcher throughput across strategies.

Extends the paper's evaluation with the full pipeline: the Figure 1
scheme against the Section 2 baselines on the Section 5.2 scenario, at
growing predicate counts.  Expected shape: the baselines scale
linearly in the number of predicates per relation, the IBS scheme
logarithmically plus output cost, so the gap widens with scale.
"""

import pytest

from repro import PredicateIndex
from repro.baselines import (
    HashSequentialMatcher,
    PhysicalLockingMatcher,
    RTreeMatcher,
    SequentialMatcher,
)
from repro.bench.timing import measure

STRATEGIES = {
    "ibs": lambda workload: PredicateIndex(),
    "hash": lambda workload: HashSequentialMatcher(),
    "sequential": lambda workload: SequentialMatcher(),
    "locking": lambda workload: PhysicalLockingMatcher(
        {rel: set(workload.predicate_attributes) for rel in workload.relation_names}
    ),
    "rtree": lambda workload: RTreeMatcher(),
}


def build_matcher(strategy, workload, predicates):
    matcher = STRATEGIES[strategy](workload)
    for predicate in predicates:
        matcher.add(predicate)
    return matcher


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("count", [100, 400])
def test_e2e_match(benchmark, scenario_workload, strategy, count):
    workload = scenario_workload(predicates=count)
    predicates = workload.predicates()["r0"]
    matcher = build_matcher(strategy, workload, predicates)
    tuples = workload.tuples(64)
    state = {"i": 0}

    def match_one():
        tup = tuples[state["i"] % len(tuples)]
        state["i"] += 1
        return matcher.match("r0", tup)

    benchmark(match_one)


def test_e2e_strategies_agree(scenario_workload):
    workload = scenario_workload(predicates=150)
    predicates = workload.predicates()["r0"]
    matchers = {
        name: build_matcher(name, workload, predicates) for name in STRATEGIES
    }
    for tup in workload.tuples(40):
        reference = {p.ident for p in matchers["ibs"].match("r0", tup)}
        for name, matcher in matchers.items():
            got = {p.ident for p in matcher.match("r0", tup)}
            assert got == reference, name


def test_e2e_ibs_beats_linear_baselines_at_scale(scenario_workload):
    workload = scenario_workload(predicates=800)
    predicates = workload.predicates()["r0"]
    tuples = workload.tuples(150)
    times = {}
    for name in ("ibs", "hash", "sequential"):
        matcher = build_matcher(name, workload, predicates)
        times[name] = measure(
            lambda matcher=matcher: [matcher.match("r0", tup) for tup in tuples], repeats=3
        ).seconds
    assert times["ibs"] < times["hash"]
    assert times["ibs"] < times["sequential"]
