"""Clause selectivity estimation for index-clause selection.

The paper: "for predicates that are a conjunction of selection clauses,
if there is an indexable clause, the most selective one is placed in the
IBS-tree (selectivity estimates are obtained from the query optimizer)".

Two estimators are provided:

* :class:`DefaultEstimator` — System R style constants by clause shape;
  needs no data and is fully deterministic;
* :class:`StatisticsEstimator` — consults a database's
  :class:`~repro.db.statistics.RelationStatistics`, falling back to the
  defaults when a relation or attribute has no data yet.  A relation
  tracks an attribute from the first estimate that reads it.

Both return a number in ``[0, 1]``: the estimated fraction of tuples
matched by the clause.  Lower is more selective.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..predicates.clauses import Clause, EqualityClause, FunctionClause, IntervalClause
from ..predicates.predicate import Predicate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.database import Database

__all__ = [
    "SelectivityEstimator",
    "DefaultEstimator",
    "StatisticsEstimator",
    "choose_index_clause",
    "rank_index_clauses",
]


class SelectivityEstimator:
    """Interface: estimate the matched fraction for one clause."""

    def estimate(self, relation: str, clause: Clause) -> float:
        raise NotImplementedError


class DefaultEstimator(SelectivityEstimator):
    """Shape-based constants in the System R tradition.

    Equality is assumed most selective, bounded ranges next, half-open
    ranges after that, and opaque functions are assumed to match
    everything (nothing is known about them).
    """

    EQUALITY = 0.10
    BOUNDED = 0.25
    HALF_OPEN = 0.33
    UNBOUNDED = 1.0
    FUNCTION = 1.0

    def estimate(self, relation: str, clause: Clause) -> float:
        if isinstance(clause, FunctionClause):
            return self.FUNCTION
        if isinstance(clause, EqualityClause):
            return self.EQUALITY
        if isinstance(clause, IntervalClause):
            interval = clause.interval
            if interval.is_point:
                return self.EQUALITY
            if interval.is_low_unbounded and interval.is_high_unbounded:
                return self.UNBOUNDED
            if interval.is_unbounded:
                return self.HALF_OPEN
            return self.BOUNDED
        return 1.0


class StatisticsEstimator(SelectivityEstimator):
    """Data-driven estimates from a database's relation statistics.

    An estimate on an empty relation reads nothing and returns the
    fallback's, so rules created before their data leave every
    attribute untracked until a later estimate (a ``retune()``, or a
    rule created once rows exist) asks with rows present.  The first
    such estimate of an attribute fills its statistics with one scan.
    """

    def __init__(self, db: "Database", fallback: Optional[SelectivityEstimator] = None):
        self._db = db
        self._fallback = fallback or DefaultEstimator()

    def estimate(self, relation: str, clause: Clause) -> float:
        from ..errors import UnknownRelationError

        try:
            rel = self._db.relation(relation)
        except UnknownRelationError:
            return self._fallback.estimate(relation, clause)
        stats = rel.statistics
        if stats.row_count == 0:
            return self._fallback.estimate(relation, clause)
        return stats.clause_selectivity(clause)


def rank_index_clauses(
    predicate: Predicate, estimator: Optional[SelectivityEstimator] = None
) -> List[tuple]:
    """Every indexable clause of *predicate*, most selective first.

    Returns ``[(score, clause), ...]`` sorted ascending by estimated
    selectivity, with clause order breaking ties, so the first entry is
    exactly what :func:`choose_index_clause` picks; the rest show how
    close the runners-up came.
    """
    estimator = estimator or DefaultEstimator()
    scored: List[tuple] = []
    for position, clause in enumerate(predicate.clauses):
        if not clause.indexable:
            continue
        score = estimator.estimate(predicate.relation, clause)
        scored.append((score, position, clause))
    scored.sort(key=lambda entry: (entry[0], entry[1]))
    return [(score, clause) for score, _, clause in scored]


def choose_index_clause(
    predicate: Predicate, estimator: Optional[SelectivityEstimator] = None
) -> Optional[IntervalClause]:
    """Pick the predicate's most selective indexable clause (or None).

    Ties are broken by clause order, so the choice is deterministic.
    Returns None when the predicate has no indexable clause (it then
    belongs on the relation's non-indexable list in Figure 1).
    """
    ranked = rank_index_clauses(predicate, estimator)
    return ranked[0][1] if ranked else None
