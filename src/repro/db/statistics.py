"""Incrementally maintained relation statistics for selectivity estimation.

The paper places, for each conjunctive predicate, its *most selective*
indexable clause into the IBS-tree, with "selectivity estimates ...
obtained from the query optimizer".  This module plays that optimizer
role: it tracks per-attribute value distributions (count, min/max,
distinct values, an equi-width histogram) as tuples are inserted and
deleted, and estimates the fraction of tuples matched by a clause.

When no data has been observed the estimator falls back to the classic
System R magic numbers [S*79], so clause ranking works even on empty
databases (the common case when rules are created before data loads).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Mapping, Optional

from ..core.intervals import Interval, is_infinite
from ..predicates.clauses import Clause, EqualityClause, FunctionClause, IntervalClause

__all__ = [
    "AttributeStatistics",
    "RelationStatistics",
    "DEFAULT_SELECTIVITIES",
]

#: System R style fallback selectivities, by clause shape.
DEFAULT_SELECTIVITIES = {
    "equality": 1.0 / 10.0,
    "bounded_interval": 1.0 / 4.0,
    "half_open_interval": 1.0 / 3.0,
    "unbounded": 1.0,
    "function": 1.0,
}


class AttributeStatistics:
    """Value distribution of a single attribute.

    Maintains exact value counts (a Counter) while the number of
    distinct values stays small, degrading to min/max plus a distinct
    estimate beyond :attr:`max_tracked_values` so memory stays bounded
    on high-cardinality attributes.
    """

    __slots__ = (
        "count",
        "null_count",
        "min_value",
        "max_value",
        "value_counts",
        "distinct_overflow",
        "max_tracked_values",
    )

    def __init__(self, max_tracked_values: int = 1024):
        self.count = 0
        self.null_count = 0
        self.min_value: Any = None
        self.max_value: Any = None
        self.value_counts: Optional[Counter] = Counter()
        self.distinct_overflow = 0
        self.max_tracked_values = max_tracked_values

    # -- maintenance -----------------------------------------------------

    def observe_insert(self, value: Any) -> None:
        """Record one inserted value."""
        self.count += 1
        if value is None:
            self.null_count += 1
            return
        if self.min_value is None or _safe_lt(value, self.min_value):
            self.min_value = value
        if self.max_value is None or _safe_lt(self.max_value, value):
            self.max_value = value
        if self.value_counts is not None:
            self.value_counts[value] += 1
            if len(self.value_counts) > self.max_tracked_values:
                self.distinct_overflow = len(self.value_counts)
                self.value_counts = None

    def observe_delete(self, value: Any) -> None:
        """Record one deleted value.

        Min/max are not tightened on delete (standard practice: they
        remain conservative until a statistics rebuild).
        """
        self.count = max(0, self.count - 1)
        if value is None:
            self.null_count = max(0, self.null_count - 1)
            return
        if self.value_counts is not None:
            remaining = self.value_counts.get(value, 0) - 1
            if remaining > 0:
                self.value_counts[value] = remaining
            elif value in self.value_counts:
                del self.value_counts[value]

    # -- derived figures ---------------------------------------------------

    @property
    def non_null_count(self) -> int:
        return self.count - self.null_count

    @property
    def distinct(self) -> int:
        """(Estimated) number of distinct non-null values."""
        if self.value_counts is not None:
            return len(self.value_counts)
        return max(self.distinct_overflow, 1)

    def equality_selectivity(self, value: Any) -> float:
        """Estimated fraction of tuples with attribute equal to *value*."""
        if self.non_null_count == 0:
            return DEFAULT_SELECTIVITIES["equality"]
        if self.value_counts is not None:
            return self.value_counts.get(value, 0) / self.non_null_count
        return 1.0 / self.distinct

    def interval_selectivity(self, interval: Interval) -> float:
        """Estimated fraction of tuples falling inside *interval*.

        Uses exact counts when available, otherwise a uniform
        interpolation between the observed min and max.
        """
        if self.non_null_count == 0:
            return _default_for(interval)
        if self.value_counts is not None:
            contains = interval.contains
            matched = 0
            for value, count in self.value_counts.items():
                try:
                    if contains(value):
                        matched += count
                except TypeError:
                    pass  # cannot be ordered against the bounds: outside
            return matched / self.non_null_count
        return self._uniform_fraction(interval)

    def _uniform_fraction(self, interval: Interval) -> float:
        lo, hi = self.min_value, self.max_value
        try:
            span = float(hi - lo)
        except TypeError:
            return _default_for(interval)
        if span <= 0:
            return 1.0 if _inside(interval, lo) else 0.0
        try:
            low = lo if is_infinite(interval.low) else max(lo, interval.low)
            high = hi if is_infinite(interval.high) else min(hi, interval.high)
            covered = float(high - low)
        except TypeError:
            return _default_for(interval)
        return min(1.0, max(0.0, covered / span))


class RelationStatistics:
    """Per-attribute statistics for one relation, plus a row count."""

    __slots__ = ("row_count", "_attributes")

    def __init__(self) -> None:
        self.row_count = 0
        self._attributes: Dict[str, AttributeStatistics] = {}

    def attribute(self, name: str) -> AttributeStatistics:
        """Statistics for *name*, creating an empty record on first use."""
        stats = self._attributes.get(name)
        if stats is None:
            stats = self._attributes[name] = AttributeStatistics()
        return stats

    def observe_insert(self, tup: Mapping[str, Any]) -> None:
        self.row_count += 1
        for name, value in tup.items():
            self.attribute(name).observe_insert(value)

    def observe_delete(self, tup: Mapping[str, Any]) -> None:
        self.row_count = max(0, self.row_count - 1)
        for name, value in tup.items():
            self.attribute(name).observe_delete(value)

    def observe_update(
        self, old: Mapping[str, Any], new: Mapping[str, Any]
    ) -> None:
        for name in new:
            if old.get(name) != new.get(name):
                stats = self.attribute(name)
                stats.observe_delete(old.get(name))
                stats.observe_insert(new.get(name))

    # -- clause selectivity -------------------------------------------------

    def clause_selectivity(self, clause: Clause) -> float:
        """Estimated fraction of tuples matched by *clause* (in [0, 1])."""
        if isinstance(clause, FunctionClause):
            return DEFAULT_SELECTIVITIES["function"]
        if isinstance(clause, EqualityClause):
            stats = self._attributes.get(clause.attribute)
            if stats is None or stats.non_null_count == 0:
                return DEFAULT_SELECTIVITIES["equality"]
            return stats.equality_selectivity(clause.value)
        if isinstance(clause, IntervalClause):
            stats = self._attributes.get(clause.attribute)
            if stats is None or stats.non_null_count == 0:
                return _default_for(clause.interval)
            return stats.interval_selectivity(clause.interval)
        return 1.0


def _default_for(interval: Interval) -> float:
    """System R fallback for an interval of the given shape."""
    if interval.is_point:
        return DEFAULT_SELECTIVITIES["equality"]
    if interval.is_low_unbounded and interval.is_high_unbounded:
        return DEFAULT_SELECTIVITIES["unbounded"]
    if interval.is_unbounded:
        return DEFAULT_SELECTIVITIES["half_open_interval"]
    return DEFAULT_SELECTIVITIES["bounded_interval"]


def _inside(interval: Interval, value: Any) -> bool:
    """``interval.contains(value)``, counting a value that cannot be
    ordered against the interval's bounds as outside it — the rule
    :meth:`IntervalClause.matches` and every match path follow.
    """
    try:
        return interval.contains(value)
    except TypeError:
        return False


def _safe_lt(a: Any, b: Any) -> bool:
    """Comparison that tolerates cross-type values (treats them as equal)."""
    try:
        return a < b
    except TypeError:
        return False
