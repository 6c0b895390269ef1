"""Common interfaces for predicate matchers and interval indexes.

Two protocols are defined:

* :class:`PredicateMatcher` — the contract of the paper's *predicate
  testing problem*: register/unregister conjunctive predicates, and for
  a tuple return every matching predicate.  Implemented by the paper's
  algorithm (:class:`~repro.core.predicate_index.PredicateIndex`
  satisfies it structurally) and by each Section 2 baseline, so the
  rule engine and the end-to-end benchmarks can swap strategies.

* :class:`IntervalIndex` — the contract of a one-dimensional stabbing
  index: insert/delete intervals under identifiers, and return all
  identifiers whose interval contains a query value.  Implemented by
  the IBS-trees and by the alternative interval structures compared in
  the ABL1 ablation (interval list, 1-d R-tree, priority search tree,
  segment/interval trees); it lives in :mod:`repro.core.stabbing`,
  beside the trees, and is re-exported here.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Mapping, Set

from ..core.stabbing import IntervalIndex
from ..predicates.predicate import Predicate

__all__ = ["PredicateMatcher", "IntervalIndex"]


class PredicateMatcher:
    """Abstract base for predicate matching strategies."""

    #: Short machine name used in benchmark tables and engine config.
    name: str = "abstract"

    def add(self, predicate: Predicate) -> Hashable:
        """Register a predicate; returns its identifier."""
        raise NotImplementedError

    def remove(self, ident: Hashable) -> Predicate:
        """Unregister and return the predicate under *ident*."""
        raise NotImplementedError

    def match(self, relation: str, tup: Mapping[str, Any]) -> List[Predicate]:
        """All registered predicates of *relation* matching the tuple."""
        raise NotImplementedError

    def match_idents(self, relation: str, tup: Mapping[str, Any]) -> Set[Hashable]:
        """Identifiers of all matching predicates (default: via match)."""
        return {pred.ident for pred in self.match(relation, tup)}

    def match_batch(
        self, relation: str, tuples: Iterable[Mapping[str, Any]]
    ) -> List[List[Predicate]]:
        """Match several tuples at once; one result list per input tuple.

        The default simply loops :meth:`match`; strategies with a real
        batched fast path (the IBS index) override it.
        """
        return [self.match(relation, tup) for tup in tuples]

    def __len__(self) -> int:
        raise NotImplementedError
