"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro import Interval
from repro.core.selectivity import DefaultEstimator

# A single moderate profile: enough examples to matter, fast enough to
# keep the suite snappy.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


# -- hypothesis strategies ---------------------------------------------

#: small integer domain so intervals overlap and endpoints collide often
domain_values = st.integers(min_value=0, max_value=40)


@st.composite
def intervals(draw, allow_open: bool = True, allow_unbounded: bool = True):
    """Random Interval over the small integer domain."""
    kind = draw(
        st.sampled_from(
            ["point", "closed", "mixed", "low_unbounded", "high_unbounded", "unbounded"]
            if allow_unbounded
            else ["point", "closed", "mixed"]
        )
    )
    a = draw(domain_values)
    b = draw(domain_values)
    low, high = min(a, b), max(a, b)
    if kind == "point":
        return Interval.point(low)
    if kind == "closed":
        return Interval.closed(low, high)
    if kind == "mixed" and allow_open:
        low_inc = draw(st.booleans())
        high_inc = draw(st.booleans())
        if low == high:
            low_inc = high_inc = True
        return Interval(low, high, low_inc, high_inc)
    if kind == "mixed":
        return Interval.closed(low, high)
    if kind == "low_unbounded":
        return (
            Interval.at_most(high) if not allow_open or draw(st.booleans())
            else Interval.less_than(high)
        )
    if kind == "high_unbounded":
        return (
            Interval.at_least(low) if not allow_open or draw(st.booleans())
            else Interval.greater_than(low)
        )
    return Interval.unbounded()


#: query points hitting endpoints, gaps (via halves), and out-of-range
query_points = st.one_of(
    st.integers(min_value=-5, max_value=45),
    st.sampled_from([v + 0.5 for v in range(-2, 43)]),
)


# -- estimators --------------------------------------------------------


class SteeredEstimator(DefaultEstimator):
    """System R constants, except that *preferred* looks most selective.

    Counts its calls.  Setting ``preferred`` after registration plays
    statistics that shifted, which ``retune()`` then acts on.
    """

    def __init__(self, preferred=None):
        self.preferred = preferred
        self.calls = 0

    def estimate(self, relation, clause):
        self.calls += 1
        if clause.attribute == self.preferred:
            return 0.01
        return super().estimate(relation, clause)
