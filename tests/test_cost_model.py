"""Tests for the Section 5.2 cost model."""

import pytest

from repro.bench.cost_model import (
    MIN_MEASURED_MS,
    CostParameters,
    calibrate,
    measured_match_cost_ms,
    predicate_match_cost,
)


def ticking_timer(tick=0.001):
    """Deterministic fake clock: advances *tick* seconds per reading."""
    state = {"now": 0.0}

    def timer():
        state["now"] += tick
        return state["now"]

    return timer


def frozen_timer():
    """A clock that never advances: every measured span is zero."""
    return lambda: 1.0


class TestPaperArithmetic:
    def test_derived_quantities(self):
        params = CostParameters()
        assert params.attributes_searched == 5  # 15 / 3
        assert params.non_indexable_count == pytest.approx(20.0)  # 10% of 200
        assert params.residual_tests == pytest.approx(20.0)  # 0.1 * 200

    def test_index_probe_matches_paper(self):
        """0.1 + 5*0.13 + 20*0.02 = 1.15 (the paper prints 1.1)."""
        breakdown = predicate_match_cost(CostParameters())
        assert breakdown.hash_ms == pytest.approx(0.1)
        assert breakdown.tree_search_ms == pytest.approx(0.65)
        assert breakdown.non_indexable_ms == pytest.approx(0.4)
        assert breakdown.index_probe_ms == pytest.approx(1.15)

    def test_residual_matches_paper(self):
        """20 residual tests * 0.05 msec = 1 msec."""
        breakdown = predicate_match_cost(CostParameters())
        assert breakdown.residual_ms == pytest.approx(1.0)

    def test_total_matches_paper(self):
        """Paper: ~2.1 msec total per tuple."""
        breakdown = predicate_match_cost(CostParameters())
        assert breakdown.total_ms == pytest.approx(2.15)
        assert abs(breakdown.total_ms - 2.1) < 0.1

    def test_as_dict(self):
        d = predicate_match_cost().as_dict()
        assert d["total_ms"] == pytest.approx(2.15)
        assert set(d) == {
            "hash_ms",
            "tree_search_ms",
            "non_indexable_ms",
            "index_probe_ms",
            "residual_ms",
            "total_ms",
        }


class TestScaling:
    def test_more_predicates_cost_more(self):
        small = predicate_match_cost(CostParameters(predicates_per_relation=100))
        large = predicate_match_cost(CostParameters(predicates_per_relation=400))
        assert large.total_ms > small.total_ms

    def test_fully_indexable_removes_brute_force(self):
        breakdown = predicate_match_cost(CostParameters(indexable_fraction=1.0))
        assert breakdown.non_indexable_ms == 0.0

    def test_selectivity_drives_residual(self):
        sharp = predicate_match_cost(CostParameters(clause_selectivity=0.01))
        blunt = predicate_match_cost(CostParameters(clause_selectivity=0.5))
        assert blunt.residual_ms > sharp.residual_ms


class TestCalibration:
    def test_calibrated_constants_positive_and_fast(self):
        params = calibrate(samples=300)
        assert 0 < params.hash_cost_ms < 1.0
        assert 0 < params.ibs_search_cost_ms < 1.0
        assert 0 < params.sequential_test_cost_ms < 1.0
        assert 0 < params.full_test_cost_ms < 1.0
        # shape is preserved from the defaults
        assert params.attributes_searched == 5

    def test_measured_cost_reasonable(self):
        ms = measured_match_cost_ms(tuples=50)
        assert 0 < ms < 50  # sub-50ms/tuple even on slow machines

    def test_calibrated_prediction_near_measurement(self):
        """The model should predict the measured cost within ~6x.

        (The formula ignores set-union overhead and per-candidate
        retrieval, so it systematically underestimates; the check is
        that it lands in the right order of magnitude, which is all the
        paper's model claims.)
        """
        params = calibrate(samples=500)
        predicted = predicate_match_cost(params).total_ms
        measured = measured_match_cost_ms(tuples=100)
        assert predicted < measured * 6
        assert measured < predicted * 60

    def test_calibrate_accepts_injected_timer(self):
        from dataclasses import asdict

        a = asdict(calibrate(samples=20, timer=ticking_timer()))
        b = asdict(calibrate(samples=20, timer=ticking_timer()))
        assert a == b

    def test_calibrate_zero_elapsed_floors_at_min_measured(self):
        params = calibrate(samples=20, timer=frozen_timer())
        assert params.hash_cost_ms >= MIN_MEASURED_MS
        assert params.ibs_search_cost_ms >= MIN_MEASURED_MS
        assert params.sequential_test_cost_ms >= MIN_MEASURED_MS
        assert params.full_test_cost_ms >= MIN_MEASURED_MS
