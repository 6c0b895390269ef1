"""The seeded workload synthesizer behind the maintenance differential.

The families must be deterministic under a pinned seed (a seeded
differential is only reproducible if the workload is), must never
consume ambient ``random`` state, and must scale down cleanly for the
tests' small runs.
"""

import random

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    SCENARIO_FAMILIES,
    ScenarioSpec,
    scenario_names,
    synthesize,
)


def fingerprint(scenario):
    predicates = tuple(
        (p.ident, tuple(str(c) for c in p.clauses)) for p in scenario.predicates()
    )
    batches = tuple(
        tuple(tuple(sorted(t.items())) for t in batch)
        for batch in scenario.batches()
    )
    churn = tuple(
        (op, payload.ident if hasattr(payload, "ident") else payload)
        for op, payload in scenario.churn()
    )
    return predicates, batches, churn


def test_at_least_five_families():
    assert len(scenario_names()) >= 5
    assert set(scenario_names()) == set(SCENARIO_FAMILIES)


@pytest.mark.parametrize("family", scenario_names())
def test_same_seed_same_workload(family):
    a = synthesize(family, seed=11, scale=0.25)
    b = synthesize(family, seed=11, scale=0.25)
    assert fingerprint(a) == fingerprint(b)


@pytest.mark.parametrize("family", scenario_names())
def test_different_seed_different_workload(family):
    a = synthesize(family, seed=11, scale=0.25)
    b = synthesize(family, seed=12, scale=0.25)
    assert fingerprint(a) != fingerprint(b)


@pytest.mark.parametrize("family", scenario_names())
def test_ambient_random_state_untouched(family):
    # every generator must draw from its own explicit random.Random —
    # a synthesizer that consumes module-level state would couple the
    # benchmark to whatever ran before it
    random.seed(1234)
    before = random.getstate()
    synthesize(family, seed=5, scale=0.25)
    assert random.getstate() == before


def test_family_seed_streams_are_independent():
    # the per-family stream is keyed "family:seed", so two families at
    # the same seed must not replay each other's draws
    a = synthesize("uniform-stabs", seed=3, scale=0.25)
    b = synthesize("zipf-stabs", seed=3, scale=0.25)
    assert fingerprint(a) != fingerprint(b)


def test_scale_shrinks_predicates_and_batches():
    full = synthesize("uniform-stabs", seed=1)
    quick = synthesize("uniform-stabs", seed=1, scale=0.25)
    assert len(quick.predicates()) < len(full.predicates())
    assert len(quick.batches()) < len(full.batches())
    assert quick.total_stabs() < full.total_stabs()


def test_scaled_spec_floors():
    spec = ScenarioSpec(family="uniform-stabs", predicates=10, batches=3)
    tiny = spec.scaled(0.01)
    assert tiny.predicates >= 8
    assert tiny.batches >= 2


def test_scaled_rejects_nonpositive_factor():
    spec = ScenarioSpec(family="uniform-stabs")
    with pytest.raises(WorkloadError):
        spec.scaled(0)


def test_churn_family_carries_events():
    scenario = synthesize("churn-heavy", seed=2, scale=0.25)
    ops = {op for op, _ in scenario.churn()}
    assert ops == {"add", "remove"}


def test_adversarial_endpoints_strictly_ascend():
    scenario = synthesize("adversarial-unbalanced", seed=2, scale=0.25)
    lows = []
    for predicate in scenario.predicates():
        clause = predicate.clauses[0]
        lows.append(clause.interval.low)
    assert lows == sorted(lows)
    assert len(set(lows)) == len(lows)


def test_hot_attribute_family_spans_attributes():
    scenario = synthesize("hot-attribute", seed=2, scale=0.25)
    attributes = {
        clause.attribute
        for predicate in scenario.predicates()
        for clause in predicate.clauses
    }
    assert attributes == {"a", "b", "c"}


def test_unknown_family_raises():
    with pytest.raises(WorkloadError, match="unknown scenario family"):
        synthesize("no-such-family")


def test_unknown_override_raises():
    with pytest.raises(WorkloadError):
        synthesize("uniform-stabs", bogus_knob=7)
