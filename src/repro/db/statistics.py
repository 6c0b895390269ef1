"""Relation statistics for selectivity estimation, tracked on demand.

The paper places, for each conjunctive predicate, its *most selective*
indexable clause into the IBS-tree, with "selectivity estimates ...
obtained from the query optimizer".  This module plays that optimizer
role: it estimates the fraction of tuples matched by a clause from
per-attribute value distributions.

A relation's :class:`RelationStatistics` keeps a record only for the
attributes something reads.  The first read of an attribute
(:meth:`RelationStatistics.attribute`, or
:meth:`RelationStatistics.clause_selectivity`, which the
:class:`~repro.core.selectivity.StatisticsEstimator` calls) fills its
record with one scan of the relation's tuples; from then on every
insert, update, delete, restore and rollback maintains it.  An
attribute nothing has read costs a store nothing.

An :class:`AttributeStatistics` record holds a row count, a NULL count,
the minimum and maximum, and exact per-value counts up to 1,024
distinct values.  Past that it keeps only the minimum and maximum and
estimates a range by uniform interpolation between them.

When no data has been observed the estimator falls back to the classic
System R magic numbers [S*79], so clause ranking works even on empty
databases (the common case when rules are created before data loads).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

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
    """The statistics of one relation, one record per attribute read so far.

    *rows* is the relation's live tid -> tuple map, so :attr:`row_count`
    is always its length, and *attributes* are the schema's attribute
    names: a name outside them is never tracked.  *lock* is the
    relation's lock (a no-op ``nullcontext()`` unless the database is
    threadsafe).  A read holds it across a fill or an estimate, and the
    relation holds it across each store and the ``observe_*`` call that
    follows, so neither sees the other half done.  A tracked attribute
    stays tracked until its relation is dropped.
    """

    __slots__ = ("_rows", "_names", "_lock", "_attributes")

    def __init__(
        self,
        rows: Mapping[int, Mapping[str, Any]],
        attributes: Iterable[str],
        lock: Any,
    ) -> None:
        self._rows = rows
        self._names = frozenset(attributes)
        self._lock = lock
        self._attributes: Dict[str, AttributeStatistics] = {}

    @property
    def row_count(self) -> int:
        """Number of tuples in the relation."""
        return len(self._rows)

    @property
    def tracked(self) -> Tuple[str, ...]:
        """Names of the tracked attributes, in the order of first read."""
        with self._lock:
            return tuple(self._attributes)

    def attribute(self, name: str) -> AttributeStatistics:
        """The record of *name*, tracked from this call on.

        The first read of a schema attribute fills its record with one
        scan of the relation's tuples.  A name outside the schema gets a
        fresh empty record and stays untracked.
        """
        with self._lock:
            return self._record(name)

    def _record(self, name: str) -> AttributeStatistics:
        """:meth:`attribute` for a caller that holds the lock."""
        stats = self._attributes.get(name)
        if stats is None:
            stats = AttributeStatistics()
            if name in self._names:
                for tup in self._rows.values():
                    stats.observe_insert(tup.get(name))
                self._attributes[name] = stats
        return stats

    # -- maintenance (the relation calls these under its lock) --------------

    def observe_insert(self, tup: Mapping[str, Any]) -> None:
        for name, stats in self._attributes.items():
            stats.observe_insert(tup.get(name))

    def observe_delete(self, tup: Mapping[str, Any]) -> None:
        for name, stats in self._attributes.items():
            stats.observe_delete(tup.get(name))

    def observe_update(
        self, old: Mapping[str, Any], new: Mapping[str, Any]
    ) -> None:
        for name, stats in self._attributes.items():
            before, after = old.get(name), new.get(name)
            if before != after:
                stats.observe_delete(before)
                stats.observe_insert(after)

    # -- clause selectivity -------------------------------------------------

    def clause_selectivity(self, clause: Clause) -> float:
        """Estimated fraction of tuples matched by *clause* (in [0, 1]).

        Reads, and so tracks, the clause's attribute; a function clause
        is opaque and reads nothing.
        """
        if isinstance(clause, FunctionClause):
            return DEFAULT_SELECTIVITIES["function"]
        if isinstance(clause, EqualityClause):
            with self._lock:
                return self._record(clause.attribute).equality_selectivity(clause.value)
        if isinstance(clause, IntervalClause):
            with self._lock:
                return self._record(clause.attribute).interval_selectivity(clause.interval)
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
