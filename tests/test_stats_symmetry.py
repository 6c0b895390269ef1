"""Logical counters must be path-independent.

The :class:`~repro.match.observer.MatchStatistics` counters split into
logical (describe the matching problem) and physical (describe the work
actually done).  The batch path and the stab cache reduce *physical*
work, but a per-tuple loop and a single
``match_batch`` call over the same workload must report identical
*logical* counts — same tuples, same probes, same partial matches, same
residual outcomes.  These tests pin that symmetry, which is what makes
the counters trustworthy inputs to the Section 5.2 cost model.
"""

import pytest

from repro.core.predicate_index import PredicateIndex
from repro.match.observer import MatchStatistics
from repro.workloads.generator import ScenarioConfig, ScenarioWorkload

N_TUPLES = 200


@pytest.fixture(scope="module")
def workload():
    # predicates() draws from an advancing RNG, so generate the
    # predicate set once and share it between the indexes under
    # comparison — the symmetry claim is about one workload.
    scenario = ScenarioWorkload(
        ScenarioConfig(
            predicates_per_relation=80,
            indexable_fraction=0.85,
            seed=7,
        )
    )
    return scenario, scenario.predicates()["r0"]


def loaded_index(workload, frozen=False, **options):
    _, predicates = workload
    index = PredicateIndex(**options)
    for predicate in predicates:
        index.add(predicate)
    if frozen:
        index.freeze()  # turns the stab cache on
    return index


def results_and_stats(index, tuples, mode):
    if mode == "per-tuple":
        results = [index.match("r0", tup) for tup in tuples]
    elif mode == "per-tuple-idents":
        results = [index.match_idents("r0", tup) for tup in tuples]
    else:
        results = index.match_batch("r0", tuples)
    return results, index.stats.logical_counts()


@pytest.mark.parametrize("options", [
    {},
    {"frozen": True},
    {"multi_clause": True},
    # the columnar plane must report the same logical counts as the
    # scalar paths; without NumPy the option is inert and this row
    # degenerates to a second "default" run, which is still a valid check
    {"columnar": True},
], ids=["default", "stab-cache", "multi-clause", "columnar"])
def test_batch_reports_same_logical_counts(workload, options):
    tuples = workload[0].tuples(N_TUPLES)

    serial = loaded_index(workload, **options)
    serial_results, serial_logical = results_and_stats(serial, tuples, "per-tuple")

    batched = loaded_index(workload, **options)
    batch_results, batch_logical = results_and_stats(batched, tuples, "batch")

    assert [set(p.ident for p in r) for r in serial_results] == [
        set(p.ident for p in r) for r in batch_results
    ]
    # both paths share one residual stage: check them against direct
    # evaluation too, which shares no code with it
    stored = serial.predicates_for("r0")
    assert [set(p.ident for p in r) for r in serial_results] == [
        {p.ident for p in stored if p.matches(tup)} for tup in tuples
    ]
    assert serial_logical == batch_logical


@pytest.fixture(scope="module")
def shared_workload():
    # most predicates on the non-indexable list, each an ordered pair of
    # 5 function clauses: their clause tuples repeat, so the residual
    # stage tests each distinct tuple once per tuple
    scenario = ScenarioWorkload(
        ScenarioConfig(predicates_per_relation=80, indexable_fraction=0.3, seed=11)
    )
    return scenario, scenario.predicates()["r0"]


@pytest.mark.parametrize("options", [
    {},
    {"columnar": True},
], ids=["default", "columnar"])
def test_shared_clause_tuples_report_same_logical_counts(shared_workload, options):
    scenario, predicates = shared_workload
    listed = [p for p in predicates if not p.is_indexable]
    assert len({p.clauses for p in listed}) < len(listed) / 2
    tuples = scenario.tuples(N_TUPLES)

    serial = loaded_index(shared_workload, **options)
    serial_results, serial_logical = results_and_stats(serial, tuples, "per-tuple")

    batched = loaded_index(shared_workload, **options)
    batch_results, batch_logical = results_and_stats(batched, tuples, "batch")

    expected = [{p.ident for p in predicates if p.matches(tup)} for tup in tuples]
    assert [set(p.ident for p in r) for r in serial_results] == expected
    assert [set(p.ident for p in r) for r in batch_results] == expected
    assert serial_logical == batch_logical
    # one logical test per listed predicate, however many share a check
    assert serial_logical["non_indexable_tested"] == len(listed) * N_TUPLES


def test_idents_path_reports_same_logical_counts(workload):
    tuples = workload[0].tuples(N_TUPLES)

    by_pred = loaded_index(workload)
    _, pred_logical = results_and_stats(by_pred, tuples, "per-tuple")

    by_ident = loaded_index(workload)
    _, ident_logical = results_and_stats(by_ident, tuples, "per-tuple-idents")

    assert pred_logical == ident_logical


def test_physical_counters_differ_where_expected(workload):
    tuples = workload[0].tuples(N_TUPLES)

    serial = loaded_index(workload)
    results_and_stats(serial, tuples, "per-tuple")

    batched = loaded_index(workload)
    results_and_stats(batched, tuples, "batch")

    assert batched.stats.batches_matched == 1
    assert serial.stats.batches_matched == 0
    # the batch path groups probes into shared tree descents
    assert batched.stats.trees_searched <= serial.stats.trees_searched


def test_logical_counters_is_declared_subset():
    stats = MatchStatistics()
    assert set(stats.LOGICAL_COUNTERS) <= set(stats.as_dict())
    assert set(stats.logical_counts()) == set(stats.LOGICAL_COUNTERS)


def test_counts_reflect_workload_shape(workload):
    tuples = workload[0].tuples(50)
    index = loaded_index(workload)
    results_and_stats(index, tuples, "batch")
    logical = index.stats.logical_counts()
    assert logical["tuples_matched"] == 50
    assert logical["probes"] > 0
    assert logical["full_matches"] <= logical["partial_matches"] + logical[
        "non_indexable_tested"
    ]
