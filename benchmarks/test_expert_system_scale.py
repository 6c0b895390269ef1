"""EXT1 — expert-system scale: the abstract's "large expert systems" claim.

"We introduce an algorithm for finding the matching predicates that is
more efficient than the standard algorithm when the number of
predicates is large ... The algorithm could also be used to improve
the performance of forward-chaining inference engines for large expert
systems applications."  — paper, abstract.

This benchmark builds production systems with growing rule counts
(each rule guarding on numeric ranges of sensor facts) and measures
fact-assertion cost with the IBS-tree alpha network versus the
OPS5-style hash + sequential alpha network (baseline 2.2).
"""

import random

import pytest

from repro.baselines import HashSequentialMatcher
from repro.bench.timing import measure
from repro.core.predicate_index import PredicateIndex
from repro.production import Pattern, ProductionSystem, Test

DOMAIN = 10_000
WIDTH = 500  # each guard matches ~5% of readings


def build_system(rule_count: int, alpha) -> ProductionSystem:
    rng = random.Random(rule_count)
    ps = ProductionSystem(alpha_index=alpha)
    for k in range(rule_count):
        low = rng.randint(0, DOMAIN - WIDTH)
        ps.add_rule(
            f"monitor-{k}",
            [
                Pattern(
                    "reading",
                    [Test("value", ">=", low), Test("value", "<=", low + WIDTH)],
                )
            ],
            lambda ctx: None,
        )
    return ps


def assert_readings(ps: ProductionSystem, count: int, seed: int = 7) -> None:
    rng = random.Random(seed)
    for _ in range(count):
        ps.assert_fact("reading", value=rng.randint(0, DOMAIN))


@pytest.mark.parametrize("alpha", ["ibs", "hash"])
@pytest.mark.parametrize("rules", [100, 500])
def test_ext1_assert_cost(benchmark, alpha, rules):
    factory = PredicateIndex if alpha == "ibs" else HashSequentialMatcher
    ps = build_system(rules, factory())
    rng = random.Random(1)
    readings = [rng.randint(0, DOMAIN) for _ in range(64)]
    state = {"i": 0}

    def assert_one():
        value = readings[state["i"] % len(readings)]
        state["i"] += 1
        ps.assert_fact("reading", value=value)

    benchmark(assert_one)


def test_ext1_alphas_agree():
    for rules in (50, 200):
        results = {}
        for name, factory in (("ibs", PredicateIndex), ("hash", HashSequentialMatcher)):
            ps = build_system(rules, factory())
            assert_readings(ps, 100)
            results[name] = sorted(inst.key for inst in ps.conflict_set())
        assert results["ibs"] == results["hash"]


def test_ext1_ibs_wins_at_scale():
    rng = random.Random(42)
    readings = [{"value": rng.randint(0, DOMAIN)} for _ in range(150)]
    times = {}
    for name, factory in (("ibs", PredicateIndex), ("hash", HashSequentialMatcher)):
        alpha = build_system(800, factory()).network.alpha_index
        times[name] = measure(
            lambda alpha=alpha: [alpha.match("reading", reading) for reading in readings],
            repeats=3,
        ).seconds
    assert times["ibs"] < times["hash"]
